"""The code-line counter in tools/."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SNIPPET = '''"""A module docstring
over two lines."""
# a comment
import os  # a trailing comment

x = """a string
in an expression"""
y = (1 +
     2)


def f():
    """A docstring."""
    "a string standing as a statement by itself"
    return x
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path, capsys):
    # import, the two lines of x, the two of y, def and return
    tool = _tool()
    assert tool.code_lines(SNIPPET) == 7
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("z = 1\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (f"     7  {tmp_path / 'a.py'}\n"
                                       f"     1  {tmp_path / 'b.py'}\n"
                                       "     8  total\n")
