"""No module imports a name it never uses, and no private definition is orphaned.

Deleting code leaves imports behind that nothing reads.  These tests parse
every module except ``__init__.py``, which imports to re-export, and fail
on a name an ``import`` or ``from ... import`` binds that no expression in
the module reads.  ``from __future__`` imports are directives, not names.

Deleting code also leaves private helpers behind that nothing calls.  A
module-level ``_name`` that a module of the package defines (by ``def``,
``class`` or assignment) must be read, as a name or an attribute, by some
module of the package; a use in the tests alone does not count.  Dunder
names are left out.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "conceptlogic"


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def unused_imports(package: Path = PACKAGE) -> set[tuple[str, str]]:
    found = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found.update((path.stem, name) for name in _imported(tree) - used)
    return found


def _private_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def orphaned_definitions(package: Path = PACKAGE) -> set[tuple[str, str]]:
    defined, loaded = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined.update((path.stem, name) for name in _private_definitions(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return {(module, name) for module, name in defined if name not in loaded}


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports() == set()


def test_no_test_module_imports_a_name_it_never_uses():
    assert unused_imports(TESTS) == set()


def test_detector_sees_each_form_of_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from .m import unused\n")
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import collections.abc\n"
        "from typing import Callable, Iterable as It\n"
        "from .x import used, spare\n"
        "def f(g: Callable) -> None:\n"
        "    return used(collections.abc.Sized)\n"
    )
    assert unused_imports(tmp_path) == {
        ("m", "os"), ("m", "osp"), ("m", "It"), ("m", "spare"),
    }


def test_no_private_definition_is_orphaned():
    assert orphaned_definitions() == set()


def test_detector_sees_each_form_of_definition(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import _orphan\n__all__ = []\n")
    (tmp_path / "a.py").write_text(
        "_CONST = 1\n"
        "_typed: int = 2\n"
        "_x, _y = 3, 4\n"
        "def _helper():\n"
        "    return _CONST\n"
        "def _orphan():\n"
        "    pass\n"
        "class _Shape:\n"
        "    def _method(self):\n"
        "        pass\n"
        "class _Unused:\n"
        "    pass\n"
        "public = _typed\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "from .a import _helper\n"
        "_helper(a._Shape, a._x)\n"
        "a._y = 5\n"
    )
    assert orphaned_definitions(tmp_path) == {("a", "_orphan"), ("a", "_y"), ("a", "_Unused")}
