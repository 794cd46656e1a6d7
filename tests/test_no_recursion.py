"""No function in the package calls itself.

Formula walks run on ``syntax._walk`` or on their own explicit stack, so
nesting depth never meets the interpreter's recursion limit.  This test
parses every module and fails on a function that calls itself by name, a
method that calls ``self.<its name>(...)``, and a ``__call__`` that calls
``self(...)``.  The recursion left is bounded by construction and listed
below with its bound.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "conceptlogic"

ALLOWED = {
    ("suites", "_random_formula"): "its depth is bounded by max_depth",
}


def _calls_itself(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name):
            if callee.id == fn.name or (callee.id == "self" and fn.name == "__call__"):
                return True
        elif (
            isinstance(callee, ast.Attribute)
            and isinstance(callee.value, ast.Name)
            and callee.value.id == "self"
            and callee.attr == fn.name
        ):
            return True
    return False


def self_recursive_functions(package: Path = PACKAGE) -> set[tuple[str, str]]:
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_itself(node):
                found.add((path.stem, node.name))
    return found


def test_no_function_calls_itself():
    assert self_recursive_functions() - ALLOWED.keys() == set()


def test_detector_sees_each_form_of_self_call(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(x):\n    return f(x)\n"
        "class C:\n"
        "    def g(self):\n        return self.g()\n"
        "    def __call__(self, x):\n        return self(x)\n"
        "def h(x):\n    return [h2(y) for y in x]\n"
    )
    assert self_recursive_functions(tmp_path) == {("m", "f"), ("m", "g"), ("m", "__call__")}
