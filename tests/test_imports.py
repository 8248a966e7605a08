"""Every module of the package reads each name it imports, defines each
name in its __all__, and the package re-exports only names in the
__all__ of the module that defines them.

No linter is part of the toolchain, so this stands in for the checks
that deletions and renames most often leave behind: an import nothing
uses, an export of a name that is gone, and a re-export of a private name.
"""

import ast
from pathlib import Path

import pytest

import falsetheta

PACKAGE = Path(falsetheta.__file__).parent
# __init__.py imports only to re-export: its imports are the package's names
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def _exported(tree):
    """The names a module's __all__ lists, or None if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return None


def _undefined_exports(source):
    """The names in a module's __all__ that its top level neither defines,
    assigns nor imports."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return sorted(set(_exported(tree) or ()) - bound)


def _private_reexports(init_source, read_module):
    """(module, name) for each name that init_source imports from a sibling
    module whose __all__ does not list it; modules without __all__ aside."""
    out = []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            exported = _exported(ast.parse(read_module(node.module)))
            if exported is not None:
                out += [(node.module, a.name) for a in node.names if a.name not in exported]
    return out


def test_undefined_exports_are_found():
    source = "from a import b\nC = 1\ndef d(): pass\n__all__ = ['b', 'C', 'd', 'e']\n"
    assert _undefined_exports(source) == ["e"]


def test_private_reexports_are_found():
    modules = {"m": "__all__ = ['a']\na = b = 1\n", "r": "x = 1\n"}
    init = "from .m import a, b\nfrom .r import x\n"
    assert _private_reexports(init, modules.__getitem__) == [("m", "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    assert _undefined_exports(path.read_text()) == []


def test_the_package_reexports_only_exported_names():
    init = (PACKAGE / "__init__.py").read_text()
    assert _private_reexports(init, lambda m: (PACKAGE / f"{m}.py").read_text()) == []
