#!/usr/bin/env python3
"""Count the lines of the ``mcastcap`` package, per module and in total.

``raw`` is every line of the file.  ``code`` leaves out blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function).
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mcastcap"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main() -> None:
    total_raw = total_code = 0
    print(f"{'module':<16} {'raw':>5} {'code':>5}")
    for path in sorted(PACKAGE.glob("*.py")):
        raw, code = count(path.read_text(encoding="utf-8"))
        total_raw += raw
        total_code += code
        print(f"{path.stem:<16} {raw:>5} {code:>5}")
    print(f"{'total':<16} {total_raw:>5} {total_code:>5}")


if __name__ == "__main__":
    main()
