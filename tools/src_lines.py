"""Count the physical and code lines of each `src/finmeas/*.py` file.

Code lines leave out docstrings, comments and blank lines: a line counts
when it holds a token of a statement other than a docstring.

Usage: python tools/src_lines.py [FILE_OR_DIR ...]   (default: src/finmeas)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(physical lines, code lines) of one Python source text."""
    docs = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(__file__).resolve().parent.parent / "src" / "finmeas"
    files = []
    for arg in args or [str(root)]:
        path = Path(arg)
        files.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    totals = [0, 0]
    print(f"{'physical':>8} {'code':>6}  file")
    for path in files:
        physical, code = count(path.read_text(encoding="utf-8"))
        totals[0] += physical
        totals[1] += code
        print(f"{physical:>8} {code:>6}  {path.name}")
    print(f"{totals[0]:>8} {totals[1]:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
