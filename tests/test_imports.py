"""Every import in the library, the tests and the demos is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    """Names bound by import statements that the module never reads.

    A name listed in `__all__` counts as read, so re-exports stay legal.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_finds_an_unused_import():
    source = "import math\nimport os\nfrom numpy import pi as tau, e\nprint(os.sep, e)\n"
    assert unused_imports(source) == [(1, "math"), (3, "tau")]


def test_scan_counts_dunder_all_as_use():
    assert unused_imports("from . import util\n__all__ = ['util']\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
