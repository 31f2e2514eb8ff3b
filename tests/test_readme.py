"""README.md's Python examples run, in order, in one namespace, and its key list is complete."""

import re
from pathlib import Path

from corfuse.cli import _SIMPLE_TYPES

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_python_examples_run():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 3
    namespace = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)


def test_readme_key_list_is_the_settable_keys():
    text = README.read_text(encoding="utf-8")
    (paragraph,) = re.findall(r"^The full key list mirrors .*?\n\n", text,
                              flags=re.DOTALL | re.MULTILINE)
    keys = re.findall(r"`([^`]+)`", paragraph.split(":", 1)[1])
    assert len(keys) == len(set(keys))
    assert set(keys) == {*_SIMPLE_TYPES, "r0.<sensor>"}
