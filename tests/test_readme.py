"""The README's python examples run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
PRINTED = re.compile(r'#\s*"(.*)"\s*$', re.MULTILINE)


def test_readme_python_blocks_print_their_comments(monkeypatch):
    # later blocks reuse the names earlier ones import, as a reader would
    monkeypatch.chdir(ROOT)
    blocks = BLOCK.findall((ROOT / "README.md").read_text())
    assert blocks
    namespace: dict = {}
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), namespace)
        assert out.getvalue().splitlines() == PRINTED.findall(block), block
