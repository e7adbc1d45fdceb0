"""Smoke test of tools/src_lines.py on a module counted by hand."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

# 9 code lines: the import, `X = 1 + \` and `2`, the def, `y = """a` and
# `b"""` (a string that is not a docstring), `return y`, the class and
# `z = 3`. Blank lines, comments and the three docstrings do not count.
MODULE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment
X = 1 + \\
    2


def f():
    """One-line docstring."""
    y = """a
b"""
    return y


class C:
    """Class docstring."""

    z = 3
'''


def test_counts_a_hand_counted_module(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (tmp_path / "small.py").write_text(MODULE)
    assert tool.main(tmp_path) == 9
    assert capsys.readouterr().out.split("\n") == [
        "     9  small.py", "     9  total", ""]
