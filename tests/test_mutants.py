"""The mutant list of `tests/mutants.py` still fits the code and the tests.

No mutant is run here (`python tests/mutants.py` runs them): each old text
must occur exactly once in `src/`, in its mutant's file, and each test a
mutant names must exist, so a refactor that moves the code or renames a
test has to update the mutant.
"""

import ast
from pathlib import Path

from mutants import MUTANTS, ROOT


def _defined_tests(path):
    """Names of the test functions defined at the top of `path`."""
    tree = ast.parse(path.read_text(), str(path))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def test_each_mutant_edits_text_that_occurs_once_in_src():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text()
               for path in (ROOT / "src").rglob("*.py")}
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 5
    for mutant in MUTANTS:
        assert mutant.old != mutant.new and mutant.origin, mutant.name
        found = {path: text.count(mutant.old)
                 for path, text in sources.items() if mutant.old in text}
        assert found == {mutant.path: 1}, mutant.name


def test_each_test_a_mutant_names_exists():
    for mutant in MUTANTS:
        assert mutant.tests, mutant.name
        for test in mutant.tests:
            path, _, name = test.partition("::")
            assert name.partition("[")[0] in _defined_tests(ROOT / path), \
                f"{mutant.name}: {test}"
