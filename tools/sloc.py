"""Code and source lines of the `atlasreg` package.

    python3 tools/sloc.py [SRC_DIR]

Prints the code lines and the source lines of each module under SRC_DIR
(default `src/atlasreg`), and both totals. A code line holds at least one
token that is neither a comment nor part of a docstring, so blank lines,
comment lines and docstring lines are left out; a line that carries code
and a trailing comment counts. A docstring is the string-literal first
statement of a module, class or function. Source lines are all lines of
the file, counted as the bench metadata's `src_atlasreg_lines` counts them.
Exits 1 if a module does not parse.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else ROOT / "src" / "atlasreg"
    total = total_source = 0
    print(f"{'module':<16}{'code':>6}{'source':>8}")
    for path in sorted(src.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        try:
            n = code_lines(source)
        except (SyntaxError, tokenize.TokenError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 1
        n_source = len(source.splitlines())
        total += n
        total_source += n_source
        print(f"{path.name:<16}{n:>6}{n_source:>8}")
    print(f"{'total':<16}{total:>6}{total_source:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
