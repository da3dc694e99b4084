"""``scripts/loc.py``, the code-line counter: docstrings, comments and blank
lines do not count; code does, a multi-line string in code included."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "loc.py"
spec = importlib.util.spec_from_file_location("loc", SCRIPT)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide code

# a comment line


class C:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        "a bare string statement"
        text = """a string
that is code"""
        return (os.sep,
                text)
'''


def test_counts_code_lines_only():
    # import, class, def, the two-line assignment, the two-line return.
    assert loc.code_lines(SOURCE) == 7


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["7", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "b.py")],
        ["8", "total"],
    ]
