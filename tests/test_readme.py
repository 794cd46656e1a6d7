"""README.md's quickstart runs against the current API and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_quickstart_runs_from_the_repo_root(monkeypatch):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert out.getvalue() == "('g1', 'g2') ('m1',)\n('g2',) ('m1', 'm2')\nTrue\n"
