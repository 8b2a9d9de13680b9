#!/usr/bin/env python3
"""Print the code lines of each module under ROOT (default src/) and their
total: lines that hold a token other than a comment and lie in no docstring
(a string that opens a module, class or function body).  Usage:
python3 scripts/src_lines.py [ROOT]"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, BODIES) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    rows = [(str(p.relative_to(root)), code_lines(p.read_text(encoding="utf-8"))) for p in sorted(root.rglob("*.py"))]
    for name, count in rows:
        print(f"{count:6d}  {name}")
    print(f"{sum(count for _, count in rows):6d}  total")


if __name__ == "__main__":
    main()
