"""Source hygiene: every name a package module imports, every private
module-level constant it defines and every parameter its functions take
is used in it, every field its classes store (a `__slots__` name, an
attribute `__init__` sets as `self.x = ...`, or a `@dataclass` field) is
read somewhere in the package or its tests, every function and class it
defines is loaded by the package or the benchmark, not only by tests, no module of
the package imports `dataclasses` or `typing`, and no module of the
package or the benchmark but `exactla` touches `SparseEchelon._rows` or
a private `exactla` name such as `_reduce`.

Deletions tend to leave names behind (a helper's last caller goes, its
import or its cached constant stays; a field's last reader goes, the
field stays; a parameter's last use goes, callers keep passing it).
Start-up cost creeps back the same way: one convenience import is paid
by every CLI call.  This parses each module with the stdlib `ast`, so it
needs no linter.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "superschur"
PERFBENCH = TESTS.parent / "perfbench"


def unused_imports(source: str) -> list[str]:
    """Names bound by imports in `source` that nothing in it references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unused_private_constants(source: str) -> list[str]:
    """Module-level `_NAME = ...` constants in `source` that nothing in it reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and re.fullmatch(r"_[A-Z][A-Z0-9_]*", target.id):
                defined[target.id] = node.lineno
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in defined.items() if name not in read]


def unused_parameters(source: str) -> list[str]:
    """Parameters of the functions and lambdas in `source` that their
    bodies never read; `self` and `cls` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "lambda")
        found += [
            f"{name}({p.arg}) (line {node.lineno})"
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls")
        ]
    return found


MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom fractions import Fraction\nx = Fraction(1)\n"
    assert unused_imports(source) == ["os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_constants(path):
    assert unused_private_constants(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_private_constant():
    source = "_USED = 1\n_UNUSED = _USED + 1\n"
    assert unused_private_constants(source) == ["_UNUSED (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_parameter():
    source = (
        "class C:\n    def m(self, a, b=0, *rest, key, **kw):\n        return a, key, kw\n"
        "def outer(x, y):\n    def inner(z):\n        return x\n    return inner\n"
        "f = lambda u, v: u\n"
    )
    assert sorted(unused_parameters(source)) == [
        "inner(z) (line 5)", "lambda(v) (line 8)", "m(b) (line 2)", "m(rest) (line 2)",
        "outer(y) (line 4)",
    ]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _self_attributes(target: ast.expr) -> list[str]:
    """The names `x` that an assignment target stores as `self.x`, also
    inside a tuple or list target such as `self.a, self.b`."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _self_attributes(elt)]
    if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self":
        return [target.attr]
    return []


def stored_fields(source: str) -> list[tuple[str, str, int]]:
    """(class, field, line) for each field a class in `source` declares: the
    annotated fields of a `@dataclass`, the names in `__slots__`, and the
    attributes that `__init__` stores as `self.x = ...`."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        found = {}
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if _is_dataclass(node):
                    found.setdefault(stmt.target.id, stmt.lineno)
            elif isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) == "__slots__" for t in stmt.targets
            ):
                slots = stmt.value.elts if isinstance(stmt.value, (ast.Tuple, ast.List)) else [stmt.value]
                for slot in slots:
                    found.setdefault(slot.value, stmt.lineno)
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                for sub in ast.walk(stmt):
                    targets = sub.targets if isinstance(sub, ast.Assign) else (
                        [sub.target] if isinstance(sub, ast.AnnAssign) else [])
                    for target in targets:
                        for name in _self_attributes(target):
                            found.setdefault(name, sub.lineno)
        fields += [(node.name, name, line) for name, line in found.items()]
    return fields


def attribute_reads(source: str) -> set[str]:
    """The attribute names that `source` reads, as in `x.name`."""
    return {
        n.attr
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def test_every_stored_field_is_read():
    readers = MODULES + sorted(TESTS.glob("*.py"))
    reads = set().union(*(attribute_reads(p.read_text(encoding="utf-8")) for p in readers))
    unread = [
        f"{path.name}: {cls}.{name} (line {line})"
        for path in MODULES
        for cls, name, line in stored_fields(path.read_text(encoding="utf-8"))
        if name not in reads
    ]
    assert unread == []


def test_the_check_sees_an_unread_field():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int\n"
        "class Q:\n    z: int\n"
        "class R:\n    __slots__ = ('u', 'v')\n"
        "    def __init__(self, u, v):\n        self.u = u\n        self.v = v\n"
        "class S:\n    def __init__(self, a):\n        self.a, self.b = a\n"
        "        self.c = self.a\n        if a:\n            self.d: int = 0\n"
        "    def grow(self):\n        self.e = 1\n"
        "print(P(1, 2).x, R(1, 2).u, S((1, 2)).a, S((1, 2)).c)\n"
    )
    reads = attribute_reads(source)
    assert [f for f in stored_fields(source) if f[1] not in reads] == [
        ("P", "y", 5), ("R", "v", 9), ("S", "b", 15), ("S", "d", 18),
    ]


# `dataclasses` imports `inspect`, and with it `ast`, `dis` and `tokenize`;
# `typing` is a large module of its own: each would be paid on every CLI call
SLOW_IMPORTS = {"dataclasses", "typing"}


def slow_imports(source: str) -> list[str]:
    """The lines of `source` that import a module in SLOW_IMPORTS."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in SLOW_IMPORTS for name in names):
            lines.append(f"line {node.lineno}")
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_slow_imports(path):
    assert slow_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_slow_import():
    source = (
        "from dataclasses import dataclass\n"
        "import os, typing as t\n"
        "from collections.abc import Iterable\n"
        "from .typing import x\n"
        "def f():\n    import dataclasses\n"
    )
    assert slow_imports(source) == ["line 1", "line 2", "line 6"]


def unquoted_catalog_errors(source: str, tests_text: str) -> list[str]:
    """`CatalogError(...)` calls in `source` whose message's longest literal
    fragment `tests_text` never contains, so no test pins that diagnostic."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CatalogError"):
            continue
        msg = node.args[0]
        parts = msg.values if isinstance(msg, ast.JoinedStr) else [msg]
        pieces = [p.value for p in parts if isinstance(p, ast.Constant)]
        fragment = max(pieces, key=len) if pieces else ast.unparse(msg)
        if fragment not in tests_text:
            found.append(f"{fragment!r} (line {node.lineno})")
    return found


def test_every_catalog_diagnostic_is_quoted_by_a_test():
    tests_text = "".join(p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py")))
    source = (SRC / "catalog.py").read_text(encoding="utf-8")
    assert unquoted_catalog_errors(source, tests_text) == []


def test_the_check_sees_an_unquoted_catalog_error():
    source = (
        "def f(x):\n"
        "    raise CatalogError(f'bad label {x!r} in record', 3)\n"
        "    raise CatalogError('quoted message')\n"
    )
    tests_text = "assert str(err) == 'quoted message'"
    assert unquoted_catalog_errors(source, tests_text) == ["'bad label ' (line 2)"]


def loads(node: ast.AST) -> Counter:
    """How often `node` loads each name, as `name` or as `x.name`."""
    found: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found[n.attr] += 1
    return found


def dotted_string_names(source: str) -> Counter:
    """The parts of the dotted names that string constants in `source`
    spell out, as in `"SparseEchelon.insert"`."""
    found: Counter = Counter()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            if re.fullmatch(r"\w+(\.\w+)+", n.value):
                found.update(n.value.split("."))
    return found


def echelon_row_accesses(source: str) -> list[str]:
    """The lines of `source` that touch an attribute named `_rows`, import a
    private name from `exactla` or read one as `exactla._name`."""
    lines = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Attribute) and (
            n.attr == "_rows"
            or n.attr.startswith("_") and isinstance(n.value, ast.Name) and n.value.id == "exactla"
        ):
            lines.append(n.lineno)
        elif isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[-1] == "exactla":
            lines += [n.lineno for alias in n.names if alias.name.startswith("_")]
    return [f"line {line}" for line in sorted(lines)]


# `SparseEchelon` keeps its primitive integer rows in `_rows` and reduces
# with `exactla`'s private `_reduce` and `_integral`; everything else
# reads and reduces through its accessors (`pivots`, `primitive_rows`,
# `remainder`, `express`, `insert_or_express`, `tag_rows`, `rows`) and
# snapshots it with `Subspace.of_echelon`
OUTSIDE_EXACTLA = [p for p in MODULES if p.name != "exactla.py"] + sorted(PERFBENCH.glob("*.py"))


@pytest.mark.parametrize(
    "path", OUTSIDE_EXACTLA, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_only_exactla_touches_the_echelon_rows(path):
    assert echelon_row_accesses(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_echelon_row_access():
    source = "def pivots(ech):\n    n = 0\n    return list(ech._rows), n\nech._rows = {}\n"
    assert echelon_row_accesses(source) == ["line 3", "line 4"]


def test_the_check_sees_a_private_exactla_name():
    source = (
        "from .exactla import SparseEchelon, _reduce\n"
        "from superschur import exactla\n"
        "from superschur.exactla import axpy\n"
        "s = exactla._integral({})\n"
        "ech = exactla.SparseEchelon()\n"
        "_reduce(ech.rows, {})\n"
    )
    assert echelon_row_accesses(source) == ["line 1", "line 4"]


# Stated by PAPER.md: the penultimate form of the main bound.
KEPT_FOR_TESTS = {"main_bound_penultimate"}


def uncalled_definitions(source: str, loaded: Counter) -> list[str]:
    """Functions, methods, properties and classes in `source` that `loaded`
    holds only as loads from their own bodies; dunders and KEPT_FOR_TESTS
    are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if re.fullmatch(r"__\w+__", name) or name in KEPT_FOR_TESTS:
            continue
        own = sum(loads(stmt)[name] for stmt in node.body)
        if loaded[name] <= own:
            found.append(f"{name} (line {node.lineno})")
    return found


def program_loads() -> Counter:
    """Every load in the package and the benchmark, plus the dotted names
    that the benchmark's span targets spell out."""
    loaded: Counter = Counter()
    for path in MODULES + sorted(PERFBENCH.glob("*.py")):
        loaded.update(loads(ast.parse(path.read_text(encoding="utf-8"))))
    loaded.update(dotted_string_names((PERFBENCH / "spans.py").read_text(encoding="utf-8")))
    return loaded


def test_every_definition_is_loaded_by_the_program():
    loaded = program_loads()
    found = [
        f"{path.name}: {item}"
        for path in MODULES
        for item in uncalled_definitions(path.read_text(encoding="utf-8"), loaded)
    ]
    assert found == []


def test_the_check_sees_an_uncalled_definition():
    source = (
        "def used():\n    return 1\n"
        "def unused():\n    return used()\n"
        "def depth(w):\n    return 1 if w is None else depth(w[0]) + 1\n"
        "class C:\n    def __init__(self):\n        self.x = used()\n"
        "    @property\n    def size(self):\n        return self.x\n"
        "    def traced(self):\n        return 0\n"
        "print(C().size)\n"
    )
    loaded = loads(ast.parse(source)) + dotted_string_names("T = ['C.traced']\n")
    assert uncalled_definitions(source, loaded) == ["unused (line 3)", "depth (line 5)"]


def test_the_check_sees_an_unloaded_class():
    source = (
        "class UsedError(ValueError):\n    pass\n"
        "class UnusedError(ValueError):\n    pass\n"
        "class Node:\n    def child(self):\n        return Node()\n"
        "class Base:\n    pass\n"
        "class Derived(Base):\n    pass\n"
        "def f(x):\n    if x:\n        raise UsedError(x)\n    return Derived()\n"
        "class Traced:\n    pass\n"
        "print(f(0).child)\n"
    )
    loaded = loads(ast.parse(source)) + dotted_string_names("T = ['Traced.run']\n")
    assert uncalled_definitions(source, loaded) == ["UnusedError (line 3)", "Node (line 5)"]
