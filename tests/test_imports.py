"""Every import in the library, the tests and the demos is used, and every
private function, class and method of the library is read by the library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
SRC = sorted((ROOT / "src").rglob("*.py"))


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


def orphans(sources):
    """(module, line, name) of every private module-level function or class,
    and every private non-dunder method of a module-level class, in the
    sources (a dict of module name to text) whose name no module reads, as
    a name or an attribute. Tests and demos do not count: a private path
    that only they reach is a second path beside the one the library runs.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    out = []
    for module, tree in trees.items():
        defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [m for c in defs if isinstance(c, ast.ClassDef) for m in c.body
                 if isinstance(m, ast.FunctionDef)]
        out += [(module, d.lineno, d.name) for d in defs
                if d.name.startswith("_") and not d.name.endswith("__") and d.name not in read]
    return sorted(out)


def test_scan_finds_an_orphaned_private_definition():
    # _values lost its last caller and _Acc._drop never had one; _edges and
    # _Acc._add are read, and __init__ is a dunder
    lib = ("def _edges(x):\n    return x\n"
           "def _values(f, lo, hi):\n    return _edges(lo)\n"
           "class _Acc:\n    def __init__(self):\n        self._add()\n"
           "    def _add(self):\n        pass\n    def _drop(self):\n        pass\n"
           "def public():\n    return _Acc()\n")
    assert orphans({"lib": lib}) == [("lib", 3, "_values"), ("lib", 10, "_drop")]


def test_every_private_definition_is_read_by_the_library():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SRC}
    assert orphans(sources) == []
