"""Source hygiene: every name a package module imports is used in it.

Deletions tend to leave imports behind (a helper's last caller goes, its
import stays).  This parses each module with the stdlib `ast`, so it
needs no linter.
"""

import ast
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom fractions import Fraction\nx = Fraction(1)\n"
    assert unused_imports(source) == ["os (line 1)"]
