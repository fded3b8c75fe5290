"""The code-line counter, the command measurer and the line tracer in tools/."""

import importlib.util
import os
import sys
from pathlib import Path

import htype

TOOLS = Path(__file__).resolve().parent.parent / "tools"

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


def _tool(name="code_lines"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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


def test_command_rss_measures_one_fresh_process(monkeypatch, capsys):
    monkeypatch.setenv("PYTHONPATH", str(Path(htype.__file__).resolve().parent.parent))
    tool = _tool("command_rss")
    assert tool.main(["--runs", "1", "table", "--dump", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "command", "runs", "wall_s", "cpu_s", "peak_rss_mb"]
    assert lines[0].split(None, 1)[1] == "htype table --dump --format csv"
    assert lines[1].split(None, 1)[1] == "1, exit codes [0]"
    wall, cpu, rss = (float(line.split()[1]) for line in lines[2:])
    assert wall > 0 and cpu > 0 and rss > 0


LINE_HITS_MODULE = '''"""A throwaway module."""
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import collections


def pick(flag):
    """A docstring."""
    global LAST
    if flag:
        return (1 +
                1)
    return 3


@staticmethod
def never():
    return 4
'''

LINE_HITS_TEST = '''from line_hits_pkg.mod import pick


def test_pick():
    assert pick(True) == 2
'''


def test_line_hits_lists_the_statements_no_test_ran(tmp_path, monkeypatch, capsys):
    # the module's docstrings, global declaration and TYPE_CHECKING import are
    # left out; the rest run at import or in test_pick, but for two lines
    package = tmp_path / "line_hits_pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(LINE_HITS_MODULE)
    (tmp_path / "test_pick.py").write_text(LINE_HITS_TEST)
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in ("line_hits_pkg", "line_hits_pkg.mod", "test_pick"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tool, trace = _tool("line_hits"), sys.gettrace()
    assert sorted(tool.statements(LINE_HITS_MODULE)) == [2, 4, 8, 11, 12, 14, 17, 19]
    assert tool.main(["--package", "line_hits_pkg", "-q", "-p", "no:cacheprovider",
                      "test_pick.py"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == [os.path.join("line_hits_pkg", "mod.py") + ":14: return 3",
                        os.path.join("line_hits_pkg", "mod.py") + ":19: return 4",
                        "2 of 8 statements not run; pytest exit status 0"]
    assert sys.gettrace() is trace
    # a failing run passes pytest's status on
    (tmp_path / "test_pick.py").write_text(LINE_HITS_TEST.replace("== 2", "== 3"))
    for name in ("line_hits_pkg", "line_hits_pkg.mod", "test_pick"):
        sys.modules.pop(name, None)
    assert tool.main(["--package", "line_hits_pkg", "-q", "-p", "no:cacheprovider",
                      "test_pick.py"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "2 of 8 statements not run; pytest exit status 1")
