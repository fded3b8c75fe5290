"""The code-line counter and the command measurer in tools/."""

import importlib.util
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
