"""tools/src_lines.py counts code lines without docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import sys  # a trailing comment keeps its line


# a comment line
def f(x):
    """One-line docstring."""
    s = """a string that is
    not a docstring"""
    return (x,
            s)


class C:
    """Class docstring."""

    y = 1
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_leaves_out_docstrings_comments_and_blanks():
    # code: import, def, s = (2 lines), return (2 lines), class, y = 1
    assert _tool().count(FIXTURE) == (19, 8)


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert _tool().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        f"{19:>8} {8:>6}  a.py",
        f"{2:>8} {1:>6}  b.py",
        f"{21:>8} {9:>6}  total",
    ]
