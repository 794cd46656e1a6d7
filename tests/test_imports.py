"""No module of the package or of the tests imports a name it never uses.

Deleting code leaves imports behind that nothing reads.  These tests parse
every module except ``__init__.py``, which imports to re-export, and fail
on a name an ``import`` or ``from ... import`` binds that no expression in
the module reads.  ``from __future__`` imports are directives, not names.
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
