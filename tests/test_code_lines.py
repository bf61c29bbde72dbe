import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Record:
    """One-line class docstring."""

    size = 3


def f(x):
    """Function docstring.

    With a blank line inside.
    """
    text = """a string
    that is not a docstring"""
    return (x +
            math.pi)
'''


def test_counts_code_lines_but_not_blanks_comments_or_docstrings():
    # import, class, size, def, the two string lines, the two return lines.
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["2", "1", "3"]
    assert lines[-1].split()[1] == "total"
