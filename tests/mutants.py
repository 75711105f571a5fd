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
ENGINE = "src/congestsim/engine.py"
GRAPHS = "src/congestsim/graphs.py"
GADGETS = "src/congestsim/gadgets.py"
SEARCH = "src/congestsim/search.py"
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
BORN_EMBEDDED = "A skeleton state is born embedded: `embed_overlay` " \
                "returns the one frozen `SkeletonState`, and the " \
                "unembedded state, its guard and in-place re-embedding go"
TREE = "Charge the BFS tree in closed form; no engine run on the " \
       "estimators' path"
PIPELINE = "Charge the broadcast pipeline in closed form"
MSSP = "Compute the superposed multi-source pass in closed form instead of " \
       "simulating every message"
ONE_PATH = "One path for the superposed pass: the closed form computes " \
           "congestion aborts too, and the message-level program moves to " \
           "tests/oracles.py"
CONTRACTION = "One contraction table, read once: check_table2 takes the " \
              "verifier's contraction and handles"
EMBED = "Build the overlay when it is embedded; probes return its integer " \
        "tables"
SCHEDULE_MASKS = "Check the gadget ownership schedule over neighbour bitmasks"
VIEWS = "Gadget verification builds only the graph views it reads: one " \
        "stored edge list, adjacency and weight masks on first read"
ONE_READ = "Congestion keys from one read of each shared level pass, " \
           "counted only where they can jam"
READERS = "A graph is its checked edge list: `WeightedGraph` loses its " \
          "`check_connected` switch, and connectivity is checked where " \
          "graphs are read"
PLANNED = "One level pass, planned once: every level reads c times a base " \
          "pass, and the kernels hand back their settle order"

CONTRACTION_TESTS = [
    "tests/test_graphs.py::"
    "test_contraction_classes_match_unit_subgraph_reachability",
    "tests/test_graphs.py::test_contraction_classes_of_h2_gadgets"]
VIEW_TESTS = [
    "tests/test_graphs.py::test_views_of_a_graph_given_in_both_orientations",
    "tests/test_graphs.py::"
    "test_views_equal_the_eager_build_in_either_orientation"]
MASK_TESTS = [
    "tests/test_graphs.py::test_views_of_a_graph_given_in_both_orientations",
    "tests/test_graphs.py::test_exact_sssp_matches_heap_dijkstra_on_h2_gadgets"]
COMPONENT_TESTS = [
    "tests/test_graphs.py::"
    "test_components_are_sorted_and_ordered_by_least_node"]
READER_TESTS = [
    "tests/test_graphs.py::test_rejects_bad_input",
    "tests/test_graphs.py::"
    "test_components_are_sorted_and_ordered_by_least_node"]
CLEAN_SCHEDULE_TESTS = [
    "tests/test_gadgets.py::test_ownership_validates_at_h4",
    "tests/test_gadgets.py::"
    "test_validate_matches_the_edge_by_edge_reference_on_clean_schedules"]

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
            "test_mssp_rejects_nonsense_before_it_charges[foreign-tables]",
            "tests/test_toolkit.py::"
            "test_embed_overlay_rejects_nonsense_before_it_charges"
            "[foreign-tables]"],
           PRIVATE_LEVELS),
    Mutant("mssp-takes-negative-sources", TOOLKIT,
           "members and 0 <= members[0] and members[-1] < network.n",
           "members and members[-1] < network.n",
           ["tests/test_toolkit.py::"
            "test_mssp_rejects_nonsense_before_it_charges[negative-source]",
            "tests/test_toolkit.py::"
            "test_embed_overlay_rejects_nonsense_before_it_charges"
            "[negative-member]"],
           PRIVATE_LEVELS),
    Mutant("skeleton-takes-no-members", TOOLKIT,
           "if not (members and 0 <= members[0]",
           "if not (0 <= members[0]",
           ["tests/test_toolkit.py::"
            "test_an_empty_skeleton_is_refused_before_anything_is_charged",
            "tests/test_toolkit.py::"
            "test_embed_overlay_rejects_nonsense_before_it_charges"
            "[empty-skeleton]"],
           BORN_EMBEDDED),
    Mutant("bfs-base-ignores-the-source", TOOLKIT,
           "bfs_hops(self.graph.adj, s)",
           "bfs_hops(self.graph.adj, 0)",
           ["tests/test_toolkit.py::"
            "test_level_passes_on_uniform_graphs_match_dijkstra",
            "tests/test_toolkit.py::test_a_scaled_pass_equals_its_levels_dijkstra"],
           BFS_LEVELS),
    Mutant("level-cap-one-over-the-budget", TOOLKIT,
           "bisect_right(order, budget // c,",
           "bisect_right(order, budget // c + 1,",
           ["tests/test_toolkit.py::"
            "test_level_passes_on_uniform_graphs_match_dijkstra",
            "tests/test_toolkit.py::test_a_scaled_pass_equals_its_levels_dijkstra"],
           LEVEL_PASS),
    Mutant("shared-level-cap-strict", TOOLKIT,
           "budget // c, key=dist.__getitem__",
           "budget // c - 1, key=dist.__getitem__",
           ["tests/test_toolkit.py::"
            "test_level_passes_on_uniform_graphs_match_dijkstra",
            "tests/test_toolkit.py::"
            "test_level_passes_on_mixed_weights_match_dijkstra",
            "tests/test_toolkit.py::test_a_scaled_pass_equals_its_levels_dijkstra"],
           ONE_READ),
    Mutant("fill-refills-a-reached-node", TOOLKIT,
           "if units[v] is INFINITE:",
           "if True:",
           ["tests/test_toolkit.py::"
            "test_level_passes_on_mixed_weights_match_dijkstra",
            "tests/test_toolkit.py::"
            "test_units_are_the_lowest_level_that_reaches_a_node"],
           PLANNED),
    Mutant("own-level-on-the-scaled-base", TOOLKIT,
           "else (level, 1)",
           "else (scaled, 1)",
           ["tests/test_toolkit.py::"
            "test_level_passes_on_mixed_weights_match_dijkstra",
            "tests/test_toolkit.py::test_a_scaled_pass_equals_its_levels_dijkstra",
            "tests/test_toolkit.py::test_a_level_pass_builds_only_its_base_level"],
           PLANNED),
    Mutant("walk-reuses-another-base", TOOLKIT,
           "dist, order = passes[base]",
           "dist, order = next(iter(passes.values()))",
           ["tests/test_toolkit.py::"
            "test_level_passes_on_mixed_weights_match_dijkstra",
            "tests/test_toolkit.py::test_a_scaled_pass_equals_its_levels_dijkstra"],
           PLANNED),
    Mutant("dijkstra-settles-stale-entries", GRAPHS,
           "        if d > dist[u]:\n            continue\n"
           "        order.append(u)\n",
           "        order.append(u)\n"
           "        if d > dist[u]:\n            continue\n",
           ["tests/test_graphs.py::test_dijkstra_matches_relaxation_oracle",
            "tests/test_toolkit.py::"
            "test_level_passes_on_mixed_weights_match_dijkstra"],
           PLANNED),
    Mutant("hop-bound-type-unchecked", TOOLKIT,
           "if not (_exact(hops) and hops > 0):",
           "if not hops > 0:",
           [f"tests/test_toolkit.py::"
            f"test_a_hop_bound_must_be_a_positive_int_or_fraction[{case}]"
            for case in ("inf", "float", "str", "bool")],
           PLANNED),
    Mutant("pigeonhole-one-copy-fewer-in-full", TOOLKIT,
           "full = len(sources) - stretch + 1",
           "full = len(sources) - stretch",
           ["tests/test_mssp_pigeonhole.py::"
            "test_forced_jams_match_the_unfiltered_and_the_message_level_count"],
           ONE_READ),
    Mutant("pigeonhole-keeps-keys-owed-thrice", TOOLKIT,
           "if count > 1})",
           "if count > 2})",
           ["tests/test_mssp_pigeonhole.py::"
            "test_forced_jams_match_the_unfiltered_and_the_message_level_count"],
           ONE_READ),
    Mutant("keys-walk-stops-early", TOOLKIT,
           "if keys is None and not unreached:",
           "if not unreached:",
           ["tests/test_toolkit.py::"
            "test_level_passes_on_mixed_weights_match_dijkstra",
            "tests/test_mssp_closed_form.py::"
            "test_closed_form_matches_reference_on_random_configs"],
           EARLY_STOP),
    Mutant("tree-one-round-short", ENGINE,
           "e + 1 if adj[self.leader] else 0",
           "e if adj[self.leader] else 0",
           ["tests/test_tree_closed_form.py::test_star",
            "tests/test_tree_closed_form.py::test_paths",
            "tests/test_engine.py::test_bfs_tree_rounds_match_eccentricity"],
           TREE),
    Mutant("tree-offer-without-its-kind-bit", ENGINE,
           "offer = parent[v], 1 + max(1, h.bit_length())",
           "offer = parent[v], max(1, h.bit_length())",
           ["tests/test_tree_closed_form.py::test_star",
            "tests/test_tree_closed_form.py::"
            "test_the_parent_edge_carries_the_accept_and_an_offer"],
           TREE),
    Mutant("pipeline-one-round-long", ENGINE,
           "k + max(depth) - 1 if k and edges else 0",
           "k + max(depth) if k and edges else 0",
           ["tests/test_pipeline_closed_form.py::test_paths",
            "tests/test_pipeline_closed_form.py::test_families",
            "tests/test_engine.py::test_broadcast_pipeline_path"],
           PIPELINE),
    Mutant("pipeline-unreached-node-stops-early", ENGINE,
           "self.round_clock += self.n + k + 2",
           "self.round_clock += self.n + k + 1",
           ["tests/test_pipeline_closed_form.py::"
            "test_node_the_leader_cannot_reach"],
           PIPELINE),
    Mutant("mssp-without-its-last-window", TOOLKIT,
           "windows = levels.windows + len(sources) * stretch + 1",
           "windows = levels.windows + len(sources) * stretch",
           ["tests/test_mssp_closed_form.py::"
            "test_closed_form_tables_match_reference"],
           ONE_PATH),
    Mutant("mssp-copy-zero-in-no-bits", TOOLKIT,
           "messages += sent\n        bits += sent * max(1, copy.bit_length())"
           "\n    if not counted",
           "messages += sent\n        bits += sent * copy.bit_length()"
           "\n    if not counted",
           ["tests/test_mssp_closed_form.py::"
            "test_closed_form_tables_match_reference"],
           MSSP),
    Mutant("embed-announces-one-edge-per-member", TOOLKIT,
           "d_g + size * k if shortcuts else d_g",
           "d_g + size if shortcuts else d_g",
           ["tests/test_toolkit.py::"
            "test_embedding_is_charged_d_g_plus_one_round_per_announced_edge"],
           EMBED),
    Mutant("overlay-hop-bound-halved", TOOLKIT,
           "Fraction(4 * size, k) if k >= 1 else Fraction(size)",
           "Fraction(2 * size, k) if k >= 1 else Fraction(size)",
           ["tests/test_toolkit.py::"
            "test_overlay_sssp_matches_level_enumeration[2]",
            "tests/test_toolkit.py::test_overlay_sssp_follows_reembedding"],
           EMBED),
    Mutant("contraction-classes-numbered-down", GRAPHS,
           "roots = sorted({find(v) for v in range(g.n)})",
           "roots = sorted({find(v) for v in range(g.n)}, reverse=True)",
           CONTRACTION_TESTS, CONTRACTION),
    Mutant("contraction-keeps-the-heaviest-edge", GRAPHS,
           "if w < best.get(key, INFINITE):",
           "if w > best.get(key, 0):",
           ["tests/test_graphs.py::test_contraction_sandwich",
            "tests/test_graphs.py::"
            "test_contraction_keeps_the_lighter_parallel_edge"], CONTRACTION),
    Mutant("contraction-skips-a-unit-edge", GRAPHS,
           "for u, v, w in g.edges:\n        if w == 1:",
           "for u, v, w in g.edges[1:]:\n        if w == 1:",
           CONTRACTION_TESTS, CONTRACTION),
    Mutant("duplicate-key-of-the-endpoint-sum", GRAPHS,
           "key = u * node_count + v",
           "key = u + v",
           ["tests/test_graphs.py::"
            "test_edges_with_equal_endpoint_sums_are_not_duplicates",
            "tests/test_graphs.py::test_generators_connected"],
           VIEWS),
    Mutant("adj-view-first-end-points-at-itself", GRAPHS,
           "adj[u].append((v, w))",
           "adj[u].append((u, w))",
           VIEW_TESTS, VIEWS),
    Mutant("adj-view-second-end-points-at-itself", GRAPHS,
           "adj[v].append((u, w))",
           "adj[v].append((v, w))",
           VIEW_TESTS, VIEWS),
    Mutant("masks-view-first-end-points-at-itself", GRAPHS,
           "at[w] = at.get(w, 0) | 1 << v",
           "at[w] = at.get(w, 0) | 1 << u",
           MASK_TESTS, VIEWS),
    Mutant("masks-view-second-end-points-at-itself", GRAPHS,
           "at[w] = at.get(w, 0) | 1 << u",
           "at[w] = at.get(w, 0) | 1 << v",
           MASK_TESTS, VIEWS),
    Mutant("components-expand-one-node-per-layer", GRAPHS,
           "for u in _bits(frontier):",
           "for u in _bits(frontier & -frontier):",
           COMPONENT_TESTS, VIEWS),
    Mutant("components-list-nodes-downward", GRAPHS,
           "comps.append(list(_bits(comp)))",
           "comps.append(sorted(_bits(comp), reverse=True))",
           COMPONENT_TESTS, VIEWS),
    Mutant("table2-counts-only-violations", GADGETS,
           "        count += 1\n        if dist[u][v] > bound:\n",
           "        if dist[u][v] > bound:\n            count += 1\n",
           ["tests/test_gadgets.py::test_table2_clean_at_h2"], VIEWS),
    Mutant("table2-count-starts-at-one", GADGETS,
           "count = 0\n    counterexamples = []",
           "count = 1\n    counterexamples = []",
           ["tests/test_gadgets.py::"
            "test_verify_flags_every_table2_row_and_gap_upper"], VIEWS),
    Mutant("schedule-far-side-reads-its-own-party", GADGETS,
           "(bob_prev if owner[a] == ALICE",
           "(alice_prev if owner[a] == ALICE",
           ["tests/test_gadgets.py::test_ownership_validates_at_h4",
            "tests/test_gadgets.py::test_validate_flags_corrupted_schedule"],
           SCHEDULE_MASKS),
    Mutant("schedule-crossings-read-the-current-server", GADGETS,
           "outside = neighbours[a] & ~server_prev",
           "outside = neighbours[a] & ~server",
           CLEAN_SCHEDULE_TESTS, SCHEDULE_MASKS),
    Mutant("schedule-misses-bob-to-alice-hand-offs", GADGETS,
           "_bits(alice & bob_prev | bob & alice_prev)",
           "_bits(bob & alice_prev)",
           ["tests/test_gadgets.py::"
            "test_validate_flags_a_hand_off_from_bob_to_alice"],
           SCHEDULE_MASKS),
    Mutant("schedule-tree-test-inverted", GADGETS,
           "if not tree >> a & 1:",
           "if tree >> a & 1:",
           ["tests/test_gadgets.py::test_validate_flags_corrupted_schedule"],
           SCHEDULE_MASKS),
    Mutant("oracle-takes-a-schedule-of-another-graph", SEARCH,
           "        if schedule.graph not in (None, network.graph):\n"
           "            raise ValueError(\"a schedule measured on another "
           "graph\")\n",
           "",
           ["tests/test_search.py::"
            "test_an_oracle_refuses_a_schedule_measured_on_another_graph",
            "tests/test_search.py::"
            "test_a_lone_node_is_refused_a_schedule_for_another_graph"],
           BORN_EMBEDDED),
    Mutant("path-nodes-at-level-h-minus-one", GADGETS,
           "columns.append((vid, h if kind == \"p\" else name[1], name[2]))",
           "columns.append((vid, h - 1 if kind == \"p\" else name[1], "
           "name[2]))",
           CLEAN_SCHEDULE_TESTS, BORN_EMBEDDED),
    Mutant("make-graph-takes-a-size-below-one", GRAPHS,
           "    if n < 1:\n        raise GraphError(f\"n must be >= 1: {n}\")\n",
           "",
           ["tests/test_cli.py::"
            "test_every_generator_refuses_a_size_below_one_in_one_line"],
           BORN_EMBEDDED),
    Mutant("text-reader-takes-a-disconnected-graph", GRAPHS,
           "return _connected(cls(n, edges))",
           "return cls(n, edges)",
           READER_TESTS + [
               "tests/test_cli.py::"
               "test_a_disconnected_graph_file_is_a_usage_error[text]"],
           READERS),
    Mutant("json-reader-takes-a-disconnected-graph", GRAPHS,
           "return _connected(cls(d[\"node_count\"], d[\"edges\"]))",
           "return cls(d[\"node_count\"], d[\"edges\"])",
           READER_TESTS + [
               "tests/test_cli.py::"
               "test_a_disconnected_graph_file_is_a_usage_error[json]"],
           READERS),
    Mutant("components-miss-the-second-end", GRAPHS,
           "neighbours[v] |= 1 << u",
           "neighbours[v] |= 0",
           ["tests/test_graphs.py::"
            "test_the_readers_check_connectivity_without_keeping_a_view"],
           ONE_READ),
    Mutant("hand-built-schedule-unchecked", SEARCH,
           "        if schedule.graph is None and len(\n"
           "                parts := network.graph.components()) > 1:\n"
           "            raise DisconnectedGraphError(parts)\n",
           "",
           ["tests/test_search.py::"
            "test_a_hand_built_schedule_on_a_disconnected_graph_is_refused"],
           ONE_READ),
    Mutant("edge-shape-unchecked", GRAPHS,
           "            try:\n                u, v, w = edge\n"
           "            except (TypeError, ValueError):",
           "            u, v, w = edge\n"
           "            if False:",
           ["tests/test_graphs.py::"
            "test_an_edge_that_is_not_a_triple_is_one_graph_error",
            "tests/test_cli.py::"
            "test_a_json_edge_that_is_not_a_triple_is_a_usage_error"],
           READERS),
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
