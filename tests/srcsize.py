"""Count the code lines of `src/`, per module and in total.

A code line is a non-blank line outside docstrings and comments.  A
docstring is the string literal that opens a module, class or function
body; a comment line holds nothing but a comment.  Stdlib only:

    python tests/srcsize.py [root]

prints one line per module of `root/src` (this checkout's by default)
and the total.  The test suite does not collect this file.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree):
    """The line numbers that docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines of the Python source `text`."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT,
                            tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(text)))


def main(root):
    total = 0
    for path in sorted(Path(root, "src").rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6} {path.relative_to(root).as_posix()}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1])
