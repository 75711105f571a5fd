"""The package imports nothing outside Python's standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "congestsim"


def _absolute_imports(path):
    """(line, top-level name) of each absolute import in `path`."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    outside = [f"{path.name}:{line}: {name}" for path in sources
               for line, name in _absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert outside == []
