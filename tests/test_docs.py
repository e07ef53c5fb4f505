"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_every_python_block_of_the_readme_runs():
    assert PYTHON_BLOCKS
    for block in PYTHON_BLOCKS:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
