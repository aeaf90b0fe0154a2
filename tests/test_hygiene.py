"""Source hygiene: no module of the package imports a name it never uses or
imports inside a function, no module but ``scalar`` builds an Interval
without its order check or a Fraction without its gcd, compares two
enclosures by hand, calls ``float`` or reads its guard bits, no class has
a second exact hook, and every annotation resolves."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "carleman"

# the package root re-exports its public names, so its imports are its API
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module):
    """Module-level import bindings: (bound name, line)."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module) -> set:
    """Every name loaded anywhere, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            annotations += [a.annotation for a in (args.vararg, args.kwarg) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def test_the_check_sees_every_module():
    names = {p.stem for p in MODULES}
    assert {"bang", "cli", "scalar", "seqcore", "spec", "transforms", "verify"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_check_flags_an_unused_import():
    tree = ast.parse("from typing import Union\nimport os\n\nx = os.sep\n")
    used = _used_names(tree)
    assert [n for n, _ in _imported_names(tree) if n not in used] == ["Union"]


# the one lazy loader: the package root imports a layer on first use, and
# cli reaches every layer it runs through it.  Loading on first use took a
# fresh interpreter's `import carleman, carleman.cli` from 79.6 to 62.3 ms
# (30 alternated pairs)
LOCAL_IMPORT_ALLOWLIST = {("__init__", "__getattr__")}
# calls that import a module by name
IMPORT_CALLS = {"import_module", "__import__"}


def _local_imports(node: ast.AST, path: tuple = (), in_function: bool = False):
    """(dotted function path, line) of every import statement inside a
    function body and of every ``importlib.import_module`` or ``__import__``
    call at any depth, with the empty path at module level; classes and
    functions both extend the path."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
            yield ".".join(path), child.lineno
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _local_imports(child, path + (child.name,), True)
        elif isinstance(child, ast.ClassDef):
            yield from _local_imports(child, path + (child.name,), in_function)
        else:
            if isinstance(child, ast.Call) and _called_name(child) in IMPORT_CALLS:
                yield ".".join(path), child.lineno
            yield from _local_imports(child, path, in_function)


def test_only_allowlisted_functions_import_locally():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, line in _local_imports(tree):
            key = (path.stem, name)
            assert key in LOCAL_IMPORT_ALLOWLIST, f"{path.name}:{line} imports inside {name or '<module>'}"
            found.add(key)
    # a stale entry would let a new local import of the same name through
    assert found == LOCAL_IMPORT_ALLOWLIST


def test_the_check_flags_a_function_level_import():
    text = (
        "import os\n"
        "def f():\n    import math\n    return math.pi\n"
        "class A:\n    def g(self):\n        if self:\n            from os import path\n"
        "        def h():\n            import re\n"
        "def k(name):\n    return importlib.import_module(name)\n"
        "re = __import__('re')\n"
        "class B:\n    sep = getattr(importlib.import_module('os'), 'sep')\n"
    )
    assert list(_local_imports(ast.parse(text))) == [
        ("f", 3), ("A.g", 8), ("A.g.h", 10), ("k", 12), ("", 13), ("B", 15),
    ]


def _cli_imports(tree: ast.AST):
    """Lines of every import of the package's ``cli``, at any depth:
    ``from .cli import``, ``from . import cli``, ``import carleman.cli`` and
    their absolute forms."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "carleman.cli" or a.name.startswith("carleman.cli.") for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            package = node.module == "carleman" or (node.level == 1 and node.module is None)
            if (
                node.module == "carleman.cli"
                or (node.level == 1 and node.module == "cli")
                or (package and any(a.name == "cli" for a in node.names))
            ):
                yield node.lineno


# cli is the front end: the library owns the formats and reports it prints,
# and only the ``python -m carleman`` entry point reaches back to it
@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.stem != "__main__"], ids=lambda p: p.stem
)
def test_no_library_module_imports_cli(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = list(_cli_imports(tree))
    assert not lines, f"{path.name} imports cli on lines {lines}"


def test_the_check_flags_a_cli_import():
    text = (
        "from .cli import main\n"
        "from . import bang, cli\n"
        "import carleman.cli\n"
        "def f():\n    from carleman.cli import parse_fraction\n"
        "from carleman import cli as front\n"
        "from .verify import client\nfrom .. import cli\nimport carleman.client\n"
    )
    assert sorted(_cli_imports(ast.parse(text))) == [1, 2, 3, 5, 6]
    main = ast.parse((SRC / "__main__.py").read_text(encoding="utf-8"))
    assert list(_cli_imports(main))


def _package_imports(tree: ast.AST):
    """(what, line) of every import of the package at any depth, relative or
    absolute: the layer imported from, a name imported from the root (its
    ``__version__``, or a layer as in ``from . import bang``), or
    ``carleman`` for the root itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "carleman":
                    yield (a.name.split(".") + ["carleman"])[1], node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1:
                layer = module
            elif node.level == 0 and module.split(".")[0] == "carleman":
                layer = module.partition(".")[2]
            else:
                continue
            if layer:
                yield layer.split(".")[0], node.lineno
            else:
                for a in node.names:
                    yield a.name, node.lineno


# spec holds the run's text formats; a front end that parses a spec or
# writes a report needs the arithmetic and the sequence families, no more
SPEC_IMPORTS = {"scalar", "seqcore", "__version__"}


def test_spec_imports_only_scalar_seqcore_and_the_version():
    tree = ast.parse((SRC / "spec.py").read_text(encoding="utf-8"))
    found = list(_package_imports(tree))
    extra = [f"{what} (line {line})" for what, line in found if what not in SPEC_IMPORTS]
    assert not extra, f"spec.py imports from the package beyond its leaf: {', '.join(extra)}"
    assert {what for what, _ in found} == SPEC_IMPORTS


def test_the_check_flags_an_import_beyond_the_leaf():
    text = (
        "from . import __version__\nfrom .scalar import ScalarConfig\n"
        "from .bang import BangFunction\nfrom . import verify\nimport carleman.cli\n"
        "from carleman.transforms import Regularized\nimport carleman\n"
        "from carleman.seqcore import Verdict\nfrom fractions import Fraction\n"
        "def f():\n    from .comb import lemma1_check\n"
    )
    found = sorted(_package_imports(ast.parse(text)), key=lambda w: w[1])
    assert [w for w in found if w[0] not in SPEC_IMPORTS] == [
        ("bang", 3), ("verify", 4), ("cli", 5), ("transforms", 6), ("carleman", 7), ("comb", 11),
    ]


# scalar's builder of op results that skips the lo <= hi check
TRUSTED_BUILDER = "_iv"
# every Python file of the project but scalar itself and this checker
OTHER_FILES = sorted(
    p for d in ("src", "scripts", "tests", "bench") for p in (ROOT / d).rglob("*.py")
    if p not in (SRC / "scalar.py", Path(__file__).resolve())
)


def _references(tree: ast.AST, name: str):
    """Lines that name ``name``: a name, an attribute, an import or a string
    such as a getattr argument."""
    for node in ast.walk(tree):
        if (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name == name)
            or (isinstance(node, ast.Constant) and node.value == name)
        ):
            yield node.lineno



def test_the_trusted_builder_is_defined_in_scalar():
    tree = ast.parse((SRC / "scalar.py").read_text(encoding="utf-8"))
    defined = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)]
    assert TRUSTED_BUILDER in defined
    assert SRC / "cli.py" in OTHER_FILES and SRC / "scalar.py" not in OTHER_FILES


@pytest.mark.parametrize("path", OTHER_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_scalar_skips_the_interval_order_check(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = list(_references(tree, TRUSTED_BUILDER))
    assert not lines, f"{path.name} references scalar.{TRUSTED_BUILDER} on lines {lines}"


def test_the_check_flags_a_builder_reference():
    snippets = [
        "from carleman.scalar import _iv\n",
        "from carleman import scalar\nscalar._iv(1, 0)\n",
        "import carleman.scalar as s\ngetattr(s, '_iv')\n",
    ]
    for text in snippets:
        assert list(_references(ast.parse(text), TRUSTED_BUILDER))
    assert not list(_references(ast.parse("from carleman.scalar import _iv_ctx\n"), TRUSTED_BUILDER))


# scalar's builder of Fractions already in lowest terms, which skips the gcd
FRACTION_BUILDER = "_reduced_fraction"


def test_the_fraction_builder_is_defined_in_scalar():
    tree = ast.parse((SRC / "scalar.py").read_text(encoding="utf-8"))
    assert FRACTION_BUILDER in [n.name for n in tree.body if isinstance(n, ast.FunctionDef)]


# the scalar tests compare the builder with the Fraction constructor
@pytest.mark.parametrize(
    "path", [p for p in OTHER_FILES if p != ROOT / "tests" / "test_scalar.py"],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_only_scalar_builds_a_fraction_without_its_gcd(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = list(_references(tree, FRACTION_BUILDER))
    assert not lines, f"{path.name} references scalar.{FRACTION_BUILDER} on lines {lines}"


# the private fields of a Fraction; only the builder writes them
FRACTION_FIELDS = {"_numerator", "_denominator"}
FIELD_WRITERS = {("scalar", FRACTION_BUILDER)}


def _writes_a_field(node: ast.AST) -> bool:
    """An attribute store, a setattr-style call naming a field, or the
    ``__set__`` of a field descriptor, called or bound to a name."""
    if isinstance(node, ast.Attribute):
        if node.attr == "__set__":
            return isinstance(node.value, ast.Attribute) and node.value.attr in FRACTION_FIELDS
        return node.attr in FRACTION_FIELDS and isinstance(node.ctx, ast.Store)
    return isinstance(node, ast.Call) and _called_name(node) in ("setattr", "__setattr__") and any(
        isinstance(a, ast.Constant) and a.value in FRACTION_FIELDS for a in node.args
    )


def _field_writes(node: ast.AST, path: tuple = ()):
    """(dotted function or class path, line) of every write to a Fraction
    field; module-level writes have the empty path."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _field_writes(child, path + (child.name,))
            continue
        if _writes_a_field(child):
            yield ".".join(path), child.lineno
        yield from _field_writes(child, path)


def test_only_the_fraction_builder_writes_fraction_fields():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, line in _field_writes(tree):
            key = (path.stem, name)
            assert key in FIELD_WRITERS, f"{path.name}:{line} writes a Fraction field in {name or '<module>'}"
            found.add(key)
    assert found == FIELD_WRITERS


def test_the_check_flags_a_fraction_field_write():
    text = (
        "def f(q):\n    q._numerator = 1\n"
        "class A:\n    def g(self, q):\n        setattr(q, '_denominator', 2)\n"
        "        object.__setattr__(q, '_numerator', 3)\n"
        "set_den = Fraction._denominator.__set__\n"
        "Fraction._numerator.__set__(q, 4)\n"
        "n, q._denominator = 1, 2\n"
        "def h(q):\n    return q._numerator + q.numerator\n"
    )
    assert list(_field_writes(ast.parse(text))) == [
        ("f", 2), ("A.g", 5), ("A.g", 6), ("", 7), ("", 8), ("", 9),
    ]


# mpmath's rational rounding scans its operands byte by byte; scalar rounds
# p/d in integers instead, to the same tuples
def test_the_package_never_rounds_through_from_rational():
    for path in sorted(SRC.glob("*.py")):
        lines = list(_references(ast.parse(path.read_text(encoding="utf-8")), "from_rational"))
        assert not lines, f"{path.name} names libmp.from_rational on lines {lines}"
    assert list(_references(ast.parse("from mpmath import libmp\nlibmp.from_rational(1, 3, 8, 'n')\n"), "from_rational"))


# module-level memos that may outlive a run: only the per-bits mpmath
# context of float mode, a functools cache keyed by precision.  A memo of
# values lives on an object: the per-sequence caches, among them the memo
# that the extremal series keep on their sequence
FUNCTOOLS_CACHE_ALLOWLIST = {("scalar", "_mp_ctx")}
MEMO_ALLOWLIST = FUNCTOOLS_CACHE_ALLOWLIST
CACHE_DECORATORS = {"lru_cache", "cache"}
WEAK_TABLES = {"WeakKeyDictionary", "WeakValueDictionary"}


def _called_name(node: ast.AST):
    """The last name part of a Name or Attribute, seen through a call:
    ``WeakKeyDictionary``, ``weakref.WeakKeyDictionary`` and
    ``WeakKeyDictionary()`` all give ``WeakKeyDictionary``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _functools_caches(tree: ast.Module):
    """(name, line) of every use of functools' ``lru_cache`` or ``cache``,
    under any alias: the name of the function it decorates, at any depth,
    or ``<wrapper>`` where it is used other than as a decorator."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in CACHE_DECORATORS}

    def is_cache(node):
        return (isinstance(node, ast.Name) and node.id in names) or (
            isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS
            and isinstance(node.value, ast.Name) and node.value.id in modules
        )

    decorators = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in node.decorator_list:
                d = d.func if isinstance(d, ast.Call) else d  # lru_cache(maxsize=None)
                if is_cache(d):
                    decorators.add(d)
                    yield node.name, node.lineno
    for node in ast.walk(tree):
        if is_cache(node) and node not in decorators:
            yield "<wrapper>", node.lineno


def _module_memos(tree: ast.Module):
    """(name, line) of every functools cache, as ``_functools_caches``
    gives them, and of every module-level weak table assignment."""
    yield from _functools_caches(tree)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(
                isinstance(call, ast.Call) and _called_name(call) in WEAK_TABLES
                for call in ast.walk(node.value)
            ):
                for target in targets:
                    yield getattr(target, "id", ast.unparse(target)), node.lineno


def test_only_allowlisted_memos_can_outlive_a_run():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, line in _module_memos(tree):
            key = (path.stem, name)
            assert key in MEMO_ALLOWLIST, f"{path.name}:{line} adds the module-level memo {name}"
            found.add(key)
    # a stale entry would let a new memo of the same name through unnoticed
    assert found == MEMO_ALLOWLIST


def test_the_check_flags_a_module_level_memo():
    snippets = {
        "import functools\n@functools.lru_cache(maxsize=None)\ndef f(x):\n    return x\n": "f",
        "from functools import cache\nclass A:\n    @cache\n    def g(self):\n        pass\n": "g",
        "import weakref\nT = weakref.WeakKeyDictionary()\n": "T",
        "from weakref import WeakValueDictionary\nV: dict = WeakValueDictionary()\n": "V",
    }
    for text, name in snippets.items():
        assert [n for n, _ in _module_memos(ast.parse(text))] == [name]
    local = "import weakref\ndef f():\n    t = weakref.WeakKeyDictionary()\n    return t\n"
    assert not list(_module_memos(ast.parse(local)))


def test_functools_caches_hold_only_the_mpmath_contexts():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, line in _functools_caches(tree):
            key = (path.stem, name)
            assert key in FUNCTOOLS_CACHE_ALLOWLIST, f"{path.name}:{line} adds the functools cache {name}"
            found.add(key)
    assert found == FUNCTOOLS_CACHE_ALLOWLIST


def test_the_check_flags_every_functools_cache():
    snippets = {
        "import functools as ft\n@ft.cache\ndef f(x):\n    return x\n": ["f"],
        "from functools import lru_cache as memo\ndef f():\n    @memo(8)\n    def g(x):\n        return x\n": ["g"],
        "import functools\nlength = functools.lru_cache(maxsize=None)(len)\n": ["<wrapper>"],
        "from functools import cache\nclass A:\n    size = cache(len)\n": ["<wrapper>"],
        # a local named cache, and a cache of another module, are no functools cache
        "import mylib\ndef f(d):\n    cache = d\n    return cache\n@mylib.cache\ndef g():\n    pass\n": [],
    }
    for text, names in snippets.items():
        assert [n for n, _ in _functools_caches(ast.parse(text))] == names, text


# a weight sequence states its exact values once, as ``_root``; ``exact``
# derives from it, so a second exact hook could disagree with the first
SECOND_EXACT_HOOK = "_exact"


def _class_methods(tree: ast.AST, name: str):
    """(class, line) of every method ``name`` defined in a class body, at
    any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name == name:
                    yield node.name, child.lineno


def test_no_weight_sequence_defines_a_second_exact_hook():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = list(_class_methods(tree, SECOND_EXACT_HOOK))
        assert not found, f"{path.name} defines {SECOND_EXACT_HOOK} in {found}; define _root"


def test_the_check_flags_an_exact_hook():
    text = (
        "def _exact(n):\n    return n\n"
        "class A:\n    def _root(self, n):\n        return None\n"
        "class B(A):\n    def _exact(self, n):\n        return 1\n"
        "def f():\n    class C:\n        def _exact(self, n):\n            pass\n"
    )
    assert list(_class_methods(ast.parse(text), SECOND_EXACT_HOOK)) == [("B", 7), ("C", 11)]


# The batch of integer forms derives from ``_root`` in the base class; only the
# regularization builds its own, from running powers of its vertex forms.
BATCH_HOOK = "_int_forms"
BATCH_OWNERS = {"WeightSequence", "Regularized"}


def _other_batches(tree: ast.AST):
    """(class, line) of every ``_int_forms`` outside the two batch owners."""
    return [(c, line) for c, line in _class_methods(tree, BATCH_HOOK) if c not in BATCH_OWNERS]


def test_only_the_base_class_and_the_regularization_define_a_batch():
    owners = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = _other_batches(tree)
        assert not found, f"{path.name} defines {BATCH_HOOK} in {found}; derive it from _root"
        owners += [c for c, _ in _class_methods(tree, BATCH_HOOK)]
    assert sorted(owners) == sorted(BATCH_OWNERS)


def test_the_check_flags_a_third_batch():
    text = (
        "class WeightSequence:\n    def _int_forms(self, hi):\n        return []\n"
        "class Regularized(WeightSequence):\n    def _int_forms(self, hi):\n        return []\n"
        "class Gevrey(WeightSequence):\n    def _int_forms(self, hi):\n        return []\n"
    )
    assert _other_batches(ast.parse(text)) == [("Gevrey", 8)]


# -- the benchmark tracer's targets -----------------------------------------------------


def _tracer_targets():
    """``TARGETS`` of bench/tracer.py, loaded from its file without running
    the benchmark."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("_bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _unresolved(targets):
    """Targets whose attribute path does not name a callable of its layer."""
    import importlib

    missing = []
    for layer, attr_path, _group, _keep in targets:
        obj = importlib.import_module(f"carleman.{layer}")
        for part in attr_path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{layer}.{attr_path}")
    return missing


def test_every_tracer_target_names_a_package_function():
    targets = _tracer_targets()
    assert len(targets) > 50
    assert _unresolved(targets) == []


def test_the_check_flags_a_renamed_tracer_target():
    targets = [("transforms", "_turn_sign_renamed", None, True),
               ("seqcore", "WeightSequence.as_root_renamed", "as_root", False),
               ("seqcore", "WeightSequence.as_root", "as_root", False)]
    assert _unresolved(targets) == [
        "transforms._turn_sign_renamed", "seqcore.WeightSequence.as_root_renamed",
    ]


# -- annotations that resolve ---------------------------------------------------------


def _unresolved_hints(module):
    """Qualified names of the functions and methods defined in ``module``
    whose annotations ``typing.get_type_hints`` cannot resolve."""
    import inspect
    import typing

    def defined_here(obj):
        return getattr(obj, "__module__", None) == module.__name__

    functions = []
    for obj in vars(module).values():
        if inspect.isfunction(obj) and defined_here(obj):
            functions.append(obj)
        elif inspect.isclass(obj) and defined_here(obj):
            for member in vars(obj).values():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    functions.append(member)
    bad = []
    for fn in functions:
        try:
            typing.get_type_hints(fn)
        except Exception as exc:  # NameError for a name the module never binds
            bad.append(f"{fn.__qualname__}: {exc}")
    return bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_annotation_resolves(path):
    import importlib

    module = importlib.import_module(f"carleman.{path.stem}")
    assert _unresolved_hints(module) == []


def test_the_check_flags_an_unresolvable_annotation():
    import types

    module = types.ModuleType("carleman._hints_probe")
    exec(
        "from __future__ import annotations\n"
        "from typing import List\n"
        "def ok(x: int) -> List[int]:\n    return [x]\n"
        "def missing(x: int) -> Report:\n    return x\n"
        "class A:\n"
        "    def m(self) -> Record:\n        pass\n"
        "    @staticmethod\n    def s(y: Unbound) -> None:\n        pass\n"
        "    @property\n    def p(self) -> Absent:\n        return 1\n",
        module.__dict__,
    )
    names = [entry.split(":")[0] for entry in _unresolved_hints(module)]
    assert names == ["missing", "A.m", "A.s", "A.p"]


# -- one two-enclosure comparison ----------------------------------------------------


def _hi_lo_comparisons(tree: ast.AST):
    """Lines of every comparison with adjacent operands that are the ``hi``
    and the ``lo`` attributes of two expressions, in either order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            for a, b in zip(operands, operands[1:]):
                if (
                    isinstance(a, ast.Attribute) and isinstance(b, ast.Attribute)
                    and {a.attr, b.attr} == {"hi", "lo"}
                ):
                    yield node.lineno
                    break


# scalar.refine_le decides every lhs <= rhs between two enclosures
@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem != "scalar"], ids=lambda p: p.stem
)
def test_only_scalar_compares_two_enclosures(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = list(_hi_lo_comparisons(tree))
    assert not lines, f"{path.name} compares hi with lo on lines {lines}; use scalar.refine_le"


def test_the_check_flags_a_hand_written_comparison():
    text = (
        "if a.hi <= b.lo:\n    pass\n"
        "ok = f(x).lo > g(y).hi\n"
        "mid = 0 < a.lo <= b.hi\n"
        "best = max(best.lo, val.lo) if best.lo < val.lo else best.hi\n"
        "same = a.hi == b.hi\n"
    )
    assert list(_hi_lo_comparisons(ast.parse(text))) == [1, 3, 4]


# -- float conversions -----------------------------------------------------------------


def _float_calls(tree: ast.AST):
    """Lines of every call of the builtin ``float``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno


# float() raises OverflowError past about 1e308 and reads 0 below 1e-308;
# scalar.display_float converts every value that the package prints
@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.stem != "scalar"], ids=lambda p: p.stem
)
def test_only_scalar_calls_float(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = list(_float_calls(tree))
    assert not lines, f"{path.name} calls float on lines {lines}; use scalar.display_float"


def test_the_check_flags_a_float_call():
    text = (
        "x = float(q)\n"
        "note = f'~{float(r.midpoint):.6g}'\n"
        "z = display_float(q)\n"
        "w: float = 1.0\n"
        "def f(v: float) -> float:\n    return [float(v), v.__float__()]\n"
        "ok = isinstance(w, float)\n"
    )
    assert list(_float_calls(ast.parse(text))) == [1, 2, 6]


# -- guard bits --------------------------------------------------------------------------


# scalar's working-precision guards; a composite that needs one outside
# scalar, such as scalar.iv_root_of_product, lives in scalar
GUARD_NAMES = ("_GUARD_BITS", "_ROUND_ONCE_GUARD")


def _guard_references(tree: ast.AST):
    return sorted(line for name in GUARD_NAMES for line in _references(tree, name))


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.stem != "scalar"], ids=lambda p: p.stem
)
def test_only_scalar_reads_its_guard_bits(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _guard_references(tree)
    assert not lines, f"{path.name} reads a scalar guard on lines {lines}; move the composite to scalar"


def test_the_check_flags_a_guard_import():
    text = (
        "from .scalar import _GUARD_BITS, iv_pow\n"
        "from carleman.scalar import _ROUND_ONCE_GUARD as g\n"
        "from . import scalar\nwp = bits + scalar._GUARD_BITS\n"
        "_SUM_GUARD_BITS = 64\n"
    )
    assert _guard_references(ast.parse(text)) == [1, 2, 4]
