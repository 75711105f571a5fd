"""Count the code lines and the defaulted parameters of `src/`, per
module and in total.

A code line is a non-blank line outside docstrings and comments.  A
docstring is the string literal that opens a module, class or function
body; a comment line holds nothing but a comment.  A defaulted parameter
is a parameter with a default value, each one an option a caller may
leave out or set: one of a `def` or `lambda`, or a field of a
`@dataclass` class given a value, a parameter of its generated
`__init__` (a `field(...)` only with `default=` or `default_factory=`).
Stdlib only:

    python tests/srcsize.py [root]

prints one line per module of `root/src` (this checkout's by default),
its code lines and its defaulted parameters, and the totals.  The test
suite does not collect this file.
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


def _is_dataclass(decorator):
    """Whether `decorator` is `@dataclass` or `@dataclass(...)`."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def _has_default(value):
    """Whether a dataclass field's `value` gives it a default."""
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"):
        return any(k.arg in ("default", "default_factory")
                   for k in value.keywords)
    return value is not None


def defaulted_parameters(text):
    """The number of defaulted parameters of the Python source `text`."""
    count = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.arguments):
            count += len(node.defaults) + sum(
                d is not None for d in node.kw_defaults)
        elif (isinstance(node, ast.ClassDef)
              and any(map(_is_dataclass, node.decorator_list))):
            count += sum(isinstance(s, ast.AnnAssign) and _has_default(s.value)
                         for s in node.body)
    return count


def main(root):
    lines = options = 0
    print(f"{'lines':>6} {'opts':>6} module")
    for path in sorted(Path(root, "src").rglob("*.py")):
        text = path.read_text()
        count, defaulted = code_lines(text), defaulted_parameters(text)
        lines += count
        options += defaulted
        print(f"{count:6} {defaulted:6} {path.relative_to(root).as_posix()}")
    print(f"{lines:6} {options:6} total")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1])
