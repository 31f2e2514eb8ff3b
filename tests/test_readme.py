"""README.md's Python examples run, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_python_examples_run():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 3
    namespace = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
