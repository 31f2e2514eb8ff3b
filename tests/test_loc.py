"""tools/loc.py: which lines count as code, and the per-module report."""

import importlib.util
from pathlib import Path

LOC_PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"

# 8 code lines, marked "# code"; every other line is blank, a comment or docstring.
FIXTURE = '''"""Module docstring,
over two lines."""
import math  # code

# a comment-only line
    # an indented comment-only line


class Shape:  # code
    """Class docstring."""

    sides = 0  # code

    def area(self):  # code
        """Method
        docstring."""
        text = """a plain string,  # code
not a docstring"""  # code
        return math.pi  # code


async def run():  # code
    \'\'\'Async docstring.\'\'\'
'''


def load_loc():
    spec = importlib.util.spec_from_file_location("loc", LOC_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_counts_only_code_lines():
    module = load_loc()
    assert FIXTURE.count("# code") == 8
    assert module.code_lines(FIXTURE) == 8


def test_report_lists_each_module_and_the_total(tmp_path, capsys):
    module = load_loc()
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert module.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["1", "a.py", "8", "b.py", "9", "total"]
