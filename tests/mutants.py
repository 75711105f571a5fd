"""Mutants of `src/` that the test suite must keep killing.

Each entry of `MUTANTS` is one mutation check: the file it edits, the
exact old text (it must occur exactly once in `src/`), the new text, the
test ids that must each fail with it, and the change it comes from (that
commit's subject).  A survivor is mended by a test that kills it, never by
deleting or weakening the mutant.

    python tests/mutants.py [name ...]

copies `src/`, `tests/` and `pyproject.toml` to a temporary directory for
each mutant (every mutant when no name is given), applies it there, runs
its tests in a fresh pytest process (hypothesis seed 0, so a run
repeats) and prints one line per mutant.  It
exits 1 when a mutant survives, that is when one of its tests passes or
its tests cannot be run.  The test suite does not collect this file;
`tests/test_mutants.py` checks the list without running a mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

Mutant = namedtuple("Mutant", "name path old new tests origin")

TOOLKIT = "src/congestsim/toolkit.py"
LEVEL_PASS = "One level pass serves every lower level that is a " \
             "power-of-two multiple of it"
COPY_ORDER = "Send a window's broadcasts in copy order; charge an aborted " \
             "MSSP attempt from its keys"
PRIVATE_LEVELS = "LevelTables keeps its level format to itself: no public " \
                 "adjacency, one window count"
LAZY_LEVELS = "Build a level's adjacency only when a pass reads it, and " \
              "value each drawn source once per inner search"
BFS_LEVELS = "Take uniform-weight levels from one breadth-first table, and " \
             "embed the overlay in integer units"
EARLY_STOP = "Stop each source's level passes at the first level that " \
             "reaches every node, and build congestion keys only for " \
             "attempts that count them"

MUTANTS = [
    Mutant("scaled-one-level-high", TOOLKIT,
           "(g & -g).bit_length() - 1) if g else top",
           "(g & -g).bit_length()) if g else top",
           ["tests/test_toolkit.py::test_a_scaled_pass_equals_its_levels_dijkstra",
            "tests/test_toolkit.py::test_a_level_pass_builds_only_its_base_level"],
           LEVEL_PASS),
    Mutant("jam-window-largest-copy", TOOLKIT,
           "least.setdefault(key, copy)",
           "least[key] = copy",
           ["tests/test_mssp_abort.py::"
            "test_aborted_attempts_match_the_copy_order_reference"],
           COPY_ORDER),
    Mutant("jam-window-edge", TOOLKIT,
           "if key < window * n:",
           "if key <= window * n:",
           ["tests/test_mssp_abort.py::"
            "test_aborted_attempts_match_the_copy_order_reference"],
           COPY_ORDER),
    Mutant("floor-rounded-level", TOOLKIT,
           "rw = -(-c >> level)",
           "rw = max(1, c >> level)",
           ["tests/test_toolkit.py::test_lazy_levels_equal_the_eager_rounding",
            "tests/test_toolkit.py::"
            "test_level_passes_on_mixed_weights_match_dijkstra",
            "tests/test_toolkit.py::test_a_scaled_pass_equals_its_levels_dijkstra",
            "tests/test_mssp_closed_form.py::"
            "test_closed_form_matches_reference_on_random_configs"],
           LAZY_LEVELS),
    Mutant("mssp-takes-foreign-levels", TOOLKIT,
           "    if levels.graph is not network.graph:\n"
           "        raise ValueError(\"levels of another graph than the "
           "network's\")\n",
           "",
           ["tests/test_toolkit.py::"
            "test_mssp_rejects_nonsense_before_it_charges[foreign-tables]"],
           PRIVATE_LEVELS),
    Mutant("mssp-takes-negative-sources", TOOLKIT,
           "sources and 0 <= sources[0] and sources[-1] < network.n",
           "sources and sources[-1] < network.n",
           ["tests/test_toolkit.py::"
            "test_mssp_rejects_nonsense_before_it_charges[negative-source]"],
           PRIVATE_LEVELS),
    Mutant("bfs-base-ignores-the-source", TOOLKIT,
           "if held != s:",
           "if held is None:",
           ["tests/test_toolkit.py::"
            "test_level_passes_on_uniform_graphs_match_dijkstra",
            "tests/test_toolkit.py::test_a_scaled_pass_equals_its_levels_dijkstra"],
           BFS_LEVELS),
    Mutant("level-cap-one-over-the-budget", TOOLKIT,
           "cap = self.budget // c",
           "cap = self.budget // c + 1",
           ["tests/test_toolkit.py::"
            "test_level_passes_on_uniform_graphs_match_dijkstra",
            "tests/test_toolkit.py::test_a_scaled_pass_equals_its_levels_dijkstra"],
           LEVEL_PASS),
    Mutant("keys-walk-stops-early", TOOLKIT,
           "if keys is None and not unreached:",
           "if not unreached:",
           ["tests/test_toolkit.py::"
            "test_level_passes_on_mixed_weights_match_dijkstra",
            "tests/test_mssp_closed_form.py::"
            "test_closed_form_matches_reference_on_random_configs"],
           EARLY_STOP),
]


def _outcomes(output):
    """{test id: "PASSED" | "FAILED" | "ERROR"} from pytest's -rA summary."""
    outcomes = {}
    for line in output.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR") and "::" in rest:
            outcomes[rest.partition(" - ")[0]] = word
    return outcomes


def run(mutant):
    """(killed, note) of one mutant, its tests run on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="congestsim-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = Path(tmp, mutant.path)
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return False, f"old text occurs {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p",
             "no:cacheprovider", "--hypothesis-seed=0", *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True)
    outcomes = _outcomes(done.stdout)
    passed = sorted(test for test, word in outcomes.items()
                    if word == "PASSED")
    if passed:
        return False, "passed: " + ", ".join(passed)
    unrun = [test for test in mutant.tests
             if not any(done_id == test or done_id.startswith(test + "[")
                        for done_id in outcomes)]
    if done.returncode != 1 or unrun:
        return False, (f"pytest exit {done.returncode}, not run: "
                       + ", ".join(unrun))
    return True, f"{len(outcomes)} failed"


def main(names):
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"no such mutant: {', '.join(sorted(unknown))}")
    survivors = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.monotonic()
        killed, note = run(mutant)
        survivors += not killed
        print(f"{'killed' if killed else 'SURVIVED':8} {mutant.name} "
              f"({time.monotonic() - start:.1f} s): {note}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
