"""Count the lines of each `src/wavetrace` module: code lines and total lines.

A code line holds a token of a statement: blank lines, comment lines and
docstring lines (the string that opens a module, class or function) are not
code. Run from anywhere, with no arguments:

    python tools/src_lines.py
"""

import ast
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wavetrace"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, total lines) of one module."""
    text = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings), len(text.splitlines())


def main():
    totals = [0, 0]
    print(f"{'module':<16}{'code':>6}{'lines':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        code, lines = count(path)
        totals[0] += code
        totals[1] += lines
        print(f"{path.stem:<16}{code:>6}{lines:>7}")
    print(f"{'total':<16}{totals[0]:>6}{totals[1]:>7}")


if __name__ == "__main__":
    main()
