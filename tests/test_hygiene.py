"""Source hygiene: every name a package module imports, and every private
module-level constant it defines, is used in it.

Deletions tend to leave names behind (a helper's last caller goes, its
import or its cached constant stays).  This parses each module with the
stdlib `ast`, so it needs no linter.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "superschur"


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
