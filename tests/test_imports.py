"""Every module of the package reads each name it imports.

No linter is part of the toolchain, so this stands in for the one check
that deletions most often leave behind: an import nothing uses.
"""

import ast
from pathlib import Path

import pytest

import falsetheta

# __init__.py imports only to re-export: its imports are the package's names
MODULES = sorted(p for p in Path(falsetheta.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source):
    """The names a module imports and never reads, those in __all__ aside."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read - exported)


def test_unused_imports_are_found():
    source = "import os.path, sys\nfrom a import b as c, d\n__all__ = ['d']\nsys.exit(0)\n"
    assert _unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert _unused_imports(path.read_text()) == []
