"""List the statements of a package that no test runs.

Runs pytest in this process under `sys.settrace` (and `threading.settrace`)
and prints each statement of the package's modules that no test ran, as
`path:line: source`, then a count and pytest's exit status, which is also
the tool's. Docstrings, `global` and `nonlocal` declarations (which run no
code) and the imports under `if TYPE_CHECKING:` are left out. A statement
counts as run when any line of its header was traced: a compound statement
from its first decorator to the line before its body, a simple statement
over all its lines. Code run in a subprocess is not seen.

    python tools/line_hits.py [--package DIR] [PYTEST_ARGS ...]

DIR defaults to `src/htype`; the pytest arguments default to none, so
pytest collects what the repository's configuration names. Only the
standard library and pytest, the runner it drives, are used.

The tracer costs time, and its sets of lines are Python objects that
`tracemalloc` counts. On a 2-core machine (Python 3.11.7), the Tier-1 suite
of 935 tests took 201 s under the tracer against 64 s without, and
`test_prolongation_holds_only_the_rows_the_kernel_keeps[h1(O)]` read a
peak of 1,600,833 B against its 1.6e6 B bound (1,601,977 B in an earlier
trace). Deselect such tests (`--deselect`) for a trace; never loosen
their bounds.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path


def statements(source: str) -> dict[int, range]:
    """The statements of a module that run code, by first line: each the
    range of lines whose trace marks it run."""
    tree = ast.parse(source)
    skipped: set[int] = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
                and isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef))):
            skipped.add(id(body[0]))
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            skipped.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    out = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in skipped
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out[first] = range(first, max(first, last) + 1)
    return out


def run(package: Path, pytest_args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit status and the lines traced in each module under package."""
    import pytest

    root = str(package.resolve()) + os.sep
    hits: dict[Path, set[int]] = {}
    seen: dict[str, set[int] | None] = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            path = os.path.realpath(name)
            seen[name] = hits.setdefault(Path(path), set()) if path.startswith(root) else None
        lines = seen[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    previous = sys.gettrace()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    return int(status), hits


def main(argv: list[str]) -> int:
    package = Path("src/htype")
    if argv[:1] == ["--package"]:
        package, argv = Path(argv[1]), argv[2:]
    status, hits = run(package, argv)
    total = missed = 0
    for path in sorted(package.resolve().rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = hits.get(path, set())
        for first, span in sorted(statements(source).items()):
            total += 1
            if ran.isdisjoint(span):
                missed += 1
                print(f"{os.path.relpath(path)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} of {total} statements not run; pytest exit status {status}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
