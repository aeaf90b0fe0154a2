"""Per-layer tracing of the carleman package from outside its source.

``Tracer.install()`` replaces the public functions and methods of each layer
(one module per layer) with wrappers, and rebinds every module-level name
in the package that referred to an original.  The package source is never
edited; ``uninstall()`` restores every binding.

Each wrapped call is a span: name, start, end and parent.  Spans of the hot
primitives (interval ring ops, ``as_root``, ``enclosure``, series products)
run millions of times per pass, so they are folded into their parent span
instead of being stored one by one; every other span is kept in memory and
written out by ``write_spans``.  Self time is a span's duration minus the
time covered by its child spans, folded ones included.

Counts are deterministic for a fixed input, which ``deterministic_counts``
exposes for the traced-run self-check; times are not.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict

LAYERS = ("scalar", "seqcore", "transforms", "criteria", "comb", "bang", "verify", "cli")

# (module, attribute path, group, keep each span)
# A group aggregates calls of several functions into one metric; nested
# calls of one group count once for its time (outermost only).
_INTERVAL_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "pow_int", "outward",
)
_TRANSCENDENTALS = ("iv_exp", "iv_log", "iv_cos", "iv_sin", "iv_sqrt", "iv_e", "iv_pi", "iv_pow")

TARGETS = (
    [("scalar", f"Interval.{m}", "interval_op", False) for m in _INTERVAL_OPS]
    + [("scalar", f, "transcendental", False) for f in _TRANSCENDENTALS]
    + [
        ("scalar", "refine_sign", "refine_sign", False),
        ("scalar", "make_scalar", None, False),
        ("scalar", "decimal_str", None, False),
        ("seqcore", "WeightSequence.as_root", "as_root", False),
        ("seqcore", "WeightSequence.enclosure", "enclosure", False),
        ("seqcore", "compare_products", "compare", True),
        ("seqcore", "is_increasing", "predicate", True),
        ("seqcore", "is_log_convex", "predicate", True),
        ("seqcore", "value", None, True),
        ("seqcore", "derived_value", None, True),
        ("seqcore", "ratio", None, True),
        ("seqcore", "default_shift", None, True),
        ("seqcore", "IteratedLog.__init__", None, True),
        ("transforms", "log_convex_regularization", "regularize", True),
        ("transforms", "_turn_sign", "hull_turn", True),
        ("transforms", "derived_power_substitution", None, True),
        ("criteria", "dc_partial_sum", "estimate", True),
        ("criteria", "derivation_closure_estimate", "estimate", True),
        ("criteria", "inclusion_estimate", "estimate", True),
        ("criteria", "quasianalytic_verdict", None, True),
        ("comb", "TruncatedPowerSeries.__mul__", "series_mul", False),
        ("comb", "log_power_coefficients", None, True),
        ("comb", "composition_sum_oracle", None, True),
        ("comb", "root_series_coefficients", None, True),
        ("comb", "alpha_b_coefficients", None, True),
        ("comb", "alpha_diag_derivative", None, True),
        ("comb", "lemma1_check", "sweep", True),
        ("comb", "b_coefficient_bound_check", "sweep", True),
        ("comb", "lemma2_check", "sweep", True),
        ("comb", "stirling_sweep", "sweep", True),
        ("comb", "stirling_ineq_check", "sweep", True),
        ("comb", "stirling_factorial_bounds_check", "sweep", True),
        ("comb", "composite_derivative", None, True),
        ("comb", "taylor_remainder_reconstruct", "remainder", True),
        ("bang", "BangFunction.__init__", "build", True),
        ("bang", "bang_derivative", "derivative", True),
        ("bang", "_bang_sum", None, True),
        ("bang", "bang_lower_bound_certify", None, True),
        ("bang", "induced_f_derivative", None, True),
        ("bang", "bang_envelope_check", None, True),
        ("bang", "theorem1_bound", None, True),
        ("bang", "cp_derivative", "cp", True),
        ("bang", "cp_bound_check", "cp", True),
        ("bang", "CpModel.derivative_enclosure", "cp", True),
        ("bang", "PolynomialModel.derivative_enclosure", None, True),
        ("bang", "BangModel.derivative_enclosure", None, True),
        ("bang", "PowerCompositeModel.derivative_enclosure", None, True),
        ("bang", "class_norm", "norm", True),
        ("verify", "run_checks", None, True),
        ("cli", "main", None, True),
        ("cli", "build_parser", "parse", True),
        ("cli", "_Parser.parse_args", "parse", True),
        ("cli", "build_run_config", "parse", True),
        ("cli", "parse_sequence_spec", "parse", True),
        ("cli", "parse_model_spec", "parse", True),
        ("cli", "parse_fraction", "parse", True),
        ("cli", "_finish", "render", True),
        ("cli", "_scalar_cells", "render", True),
        ("cli", "_record", "render", True),
        ("cli", "_mini_report", "render", True),
        ("cli", "emit_report", "render", True),
    ]
)

# interval ops whose endpoints are measured; outward() shrinks them, so its
# result is skipped and the input size it compresses is seen on the op that
# produced it
_BITS_OPS = frozenset(_INTERVAL_OPS) - {"outward"}


def _endpoint_bits(iv) -> int:
    lo, hi = iv.lo, iv.hi
    return max(
        lo.numerator.bit_length(), lo.denominator.bit_length(),
        hi.numerator.bit_length(), hi.denominator.bit_length(),
    )


class Tracer:
    """Span recorder and counters for one traced pass."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self.calls = []
        self.self_ns = []
        self.incl_ns = []
        self.group_calls = defaultdict(int)
        self.group_outer_ns = defaultdict(int)
        self._group_active = defaultdict(int)
        # kept spans: name id, parent span index (-1 for none), start, end
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []
        self.counters = defaultdict(int)
        self.endpoint_bits_max = 0
        self._first_bits = {}
        self._patches = []
        self._own = {}
        self._origin = None

    # -- spans --------------------------------------------------------------------

    def _intern(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        self.incl_ns.append(0)
        return len(self.names) - 1

    def _make_wrapper(self, fn, name, layer, group, keep, hook):
        nid = self._intern(name, layer)
        stack = self._stack
        clock = time.perf_counter_ns
        calls, self_ns, incl_ns = self.calls, self.self_ns, self.incl_ns
        group_calls, group_outer_ns, active = (
            self.group_calls, self.group_outer_ns, self._group_active,
        )
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            if keep:
                parent = stack[-1][2] if stack else -1
                span_idx = len(span_name)
                span_name.append(nid)
                span_parent.append(parent)
                span_start.append(0)
                span_end.append(0)
            else:
                span_idx = stack[-1][2] if stack else -1
            if group is not None:
                active[group] += 1
            frame = [0, 0, span_idx]
            stack.append(frame)
            before = hook.before(args) if hook is not None else None
            t0 = clock()
            frame[0] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if group is not None:
                    active[group] -= 1
                    group_calls[group] += 1
                    if not active[group]:
                        group_outer_ns[group] += dur
                incl_ns[nid] += dur
                if keep:
                    span_start[span_idx] = t0
                    span_end[span_idx] = t1
            if hook is not None:
                hook.after(args, result, before)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def call(self, name, fn):
        """Run ``fn()`` inside a kept span the benchmark itself opens."""
        wrapper = self._own.get(name)
        if wrapper is None:
            wrapper = self._make_wrapper(lambda f: f(), name, "bench", None, True, None)
            self._own[name] = wrapper
        return wrapper(fn)

    # -- installation ---------------------------------------------------------------

    def install(self, package):
        """Wrap every target of every layer module of ``package``."""
        import importlib
        import sys

        modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        }
        pkg_modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        hooks = {
            "interval_op": _IntervalHook(self),
            "compare": _CompareHook(self),
            "enclosure": _EnclosureHook(self),
            "regularize": _RegularizeHook(self),
        }
        for layer, attr_path, group, keep in TARGETS:
            mod = modules[layer]
            owner_name, _, attr = attr_path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            orig = getattr(owner, attr)
            hook = hooks.get(group)
            if group == "interval_op" and attr not in _BITS_OPS:
                hook = None
            wrapper = self._make_wrapper(orig, f"{layer}.{attr_path}", layer, group, keep, hook)
            if owner_name:
                self._patches.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapper)
            else:
                for m in pkg_modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, key, orig))
                            setattr(m, key, wrapper)
        verify = modules["verify"]
        registry = verify._REGISTRY
        self._patches.append((verify, "_REGISTRY", list(registry)))
        check_hook = _CheckHook(self)
        for i, (cid, anchor, fn) in enumerate(registry):
            wrapper = self._make_wrapper(fn, f"verify.check.{cid}", "verify", None, True, check_hook)
            registry[i] = (cid, anchor, wrapper)
        self._origin = time.perf_counter_ns()

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            if attr == "_REGISTRY":
                owner._REGISTRY[:] = orig
            elif orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    def begin_operation(self):
        """Start a new operation: enclosure escalation is judged per operation."""
        self._first_bits.clear()

    # -- results ---------------------------------------------------------------------

    def group_metric(self, group):
        return self.group_calls.get(group, 0), self.group_outer_ns.get(group, 0) / 1e9

    def name_seconds(self, name):
        total = 0
        for nid, n in enumerate(self.names):
            if n == name:
                total += self.incl_ns[nid]
        return total / 1e9

    def layer_self_seconds(self):
        out = defaultdict(int, {layer: 0 for layer in LAYERS})
        for nid, layer in enumerate(self.layer_of):
            out[layer] += self.self_ns[nid]
        return {layer: ns / 1e9 for layer, ns in out.items()}

    def deterministic_counts(self):
        """Counts that must repeat exactly for a repeated input."""
        out = {name: self.calls[nid] for nid, name in enumerate(self.names) if self.calls[nid]}
        out.update({f"group.{g}": c for g, c in self.group_calls.items()})
        out.update(self.counters)
        out["scalar.endpoint_bits_max"] = self.endpoint_bits_max
        return dict(sorted(out.items()))

    def write_spans(self, path):
        """Kept spans as tab-separated rows: index, parent, name, start, end
        (ns since install)."""
        origin = self._origin or 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - origin}\t{self.span_end[i] - origin}\n"
                )


class _IntervalHook:
    def __init__(self, tracer):
        self.t = tracer

    def before(self, args):
        return None

    def after(self, args, result, before):
        bits = _endpoint_bits(result)
        if bits > self.t.endpoint_bits_max:
            self.t.endpoint_bits_max = bits


class _CompareHook:
    """Which path decided a product comparison, read from whether the
    interval refinement loop ran during the call."""

    def __init__(self, tracer):
        self.t = tracer

    def before(self, args):
        return self.t.group_calls.get("refine_sign", 0)

    def after(self, args, result, before):
        c = self.t.counters
        if self.t.group_calls.get("refine_sign", 0) > before:
            c["seqcore.compare_interval"] += 1
        else:
            c["seqcore.compare_exact"] += 1
        if result == 0:
            c["seqcore.compare_ties"] += 1
        elif result is None:
            c["seqcore.compare_unresolved"] += 1


class _EnclosureHook:
    """Counts enclosure requests at more bits than the first request for the
    same sequence and index within the current operation."""

    def __init__(self, tracer):
        self.t = tracer

    def before(self, args):
        return None

    def after(self, args, result, before):
        seq, n, bits = args[0], args[1], args[2]
        key = (id(seq), n)
        first = self.t._first_bits.setdefault(key, (seq, bits))[1]
        if bits > first:
            self.t.counters["seqcore.enclosure_escalated"] += 1


class _RegularizeHook:
    def __init__(self, tracer):
        self.t = tracer

    def before(self, args):
        return None

    def after(self, args, result, before):
        c = self.t.counters
        c["transforms.vertices"] += len(result.vertices)
        c["transforms.points"] += result.n_max + 1


class _CheckHook:
    def __init__(self, tracer):
        self.t = tracer

    def before(self, args):
        self.t.begin_operation()
        return None

    def after(self, args, result, before):
        return None
