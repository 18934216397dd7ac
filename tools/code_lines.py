"""Count the lines and code lines of every module under ``src``.

A code line is a line that holds a token outside docstrings and comments:
blank lines, comment-only lines and the lines of a module, class or
function docstring do not count, while every line of any other string
does.  Standard library only (``ast`` and ``tokenize``).

Usage: ``python tools/code_lines.py [SRC]`` (default: ``src`` next to this
directory).  Prints one ``lines code_lines path`` row per module, then the
total.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set:
    """The (row, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(path: Path) -> tuple:
    """(lines, code lines) of one Python source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = docstring_starts(ast.parse(source))
    code = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in SKIPPED or (token.type == tokenize.STRING
                                         and token.start in docstrings):
                continue
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src"
    total_lines = total_code = 0
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path)
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d} {path.relative_to(root)}")
    print(f"{total_lines:6d} {total_code:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
