"""Count code lines: lines holding a token outside docstrings and comments.

A docstring here is any string literal standing as a statement by itself,
wherever it stands; a token spanning several lines (a multi-line string in
an expression) counts on each of them. Blank lines, comments and the
docstrings count nothing.

    python tools/code_lines.py [PATH ...]

prints the count of each Python file under the paths (default `src/htype`)
and their total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source holding a token outside docstrings and
    comments."""
    docstrings = [((n.lineno, n.col_offset), (n.end_lineno, n.end_col_offset))
                  for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
                  and isinstance(n.value.value, str)]
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(a <= tok.start and tok.end <= b for a, b in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    files = sorted(f for p in map(Path, argv or ["src/htype"])
                   for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
