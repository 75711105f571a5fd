"""The closed-form BFS tree against the message-level reference.

`Network.build_bfs_tree` charges the tree from the leader's hop counts
alone.  `oracles.tree_program` runs the tree's per-node programs message
by message on the engine.  Both must agree on the (parent, depth) lists
(or the raised exception's text), the ledger and the round clock.
"""

import random

import pytest

import oracles
from oracles import tree_children
from congestsim.engine import BandwidthExceeded, Network
from congestsim.graphs import (
    WeightedGraph,
    cycle_graph,
    grid_graph,
    random_connected_graph,
    star_graph,
)
from congestsim.search import (
    LowConfidenceResult,
    ParameterSchedule,
    approx_diameter,
    approx_radius,
)

# 1-6 bits per edge and round, and the default ceil(4 log2 n)
BANDWIDTHS = [1, 2, 3, 4, 5, 6, None]


def closed_form(network):
    return network.build_bfs_tree()


def path_graph(p):
    return WeightedGraph(p + 1, [(i, i + 1, 1) for i in range(p)])


def _outcome(build, g, bandwidth_bits=None, clock=0):
    """Tree, ledger and clock of one build on a network whose clock has
    already advanced by `clock` rounds."""
    net = Network(g, bandwidth_bits=bandwidth_bits)
    net.charge("before", clock)
    try:
        result = build(net)
    except BandwidthExceeded as exc:
        result = str(exc)
    return result, net.ledger.to_dict(), net.round_clock


def _check(g, bandwidth_bits=None, clock=0):
    fast = _outcome(closed_form, g, bandwidth_bits, clock)
    reference = _outcome(oracles.tree_program, g, bandwidth_bits, clock)
    assert fast == reference
    return fast


def _tree_phase(ledger):
    return next(p for p in ledger["phases"] if p["name"] == "bfs-tree")


def test_single_node():
    for bits in BANDWIDTHS:
        tree, ledger, clock = _check(WeightedGraph(1, []), bits)
        assert tree == ([None], [0])
        assert tree_children(tree[0]) == [[]]
        assert clock == ledger["rounds"] == ledger["messages"] == 0


def test_star():
    # the leader is the centre: one round of OFFERs, one of ACCEPTs and
    # OFFERs back
    tree, ledger, _ = _check(star_graph(6))
    assert tree == ([None, 0, 0, 0, 0, 0], [0, 1, 1, 1, 1, 1])
    assert tree_children(tree[0]) == [[1, 2, 3, 4, 5], [], [], [], [], []]
    assert _tree_phase(ledger) == {"name": "bfs-tree", "rounds": 2,
                                   "messages": 2 * 5 + 5,
                                   "bits": 5 * 2 + 5 * 2 + 2 * 5}


@pytest.mark.parametrize("p", [1, 4, 16])
def test_paths(p):
    tree, ledger, _ = _check(path_graph(p))
    assert tree[1] == list(range(p + 1))
    assert _tree_phase(ledger)["rounds"] == p + 1


def test_parent_is_the_lowest_id_neighbour_one_hop_nearer():
    # in a 3x3 grid, node 4 is two hops from 0 through both 1 and 3
    tree, _, _ = _check(grid_graph(3, 3))
    parent, depth = tree
    assert parent[4] == 1 and depth[4] == 2
    children = tree_children(parent)
    assert children[1] == [2, 4] and children[3] == [6]


def test_the_parent_edge_carries_the_accept_and_an_offer():
    # node 1's ACCEPT (2 bits) and OFFER of depth 1 (2 bits) share its
    # edge to 0 in round 1; at depth 2 the OFFER takes 3 bits
    assert _check(path_graph(3), 3)[0] == \
        "edge (1, 0) carries 4 bits in round 1 (limit 3)"
    assert _check(path_graph(3), 4)[0] == \
        "edge (2, 1) carries 5 bits in round 2 (limit 4)"
    # the leader's own OFFER is over the limit before anything is sent
    result, ledger, clock = _check(cycle_graph(8), 1)
    assert result == "edge (0, 1) carries 2 bits in round 0 (limit 1)"
    assert (ledger["messages"], clock) == (0, 0)
    # a failure after earlier charges names the network's round, and
    # charges the leader's OFFER and node 1's ACCEPT sent before it
    result, ledger, clock = _check(path_graph(3), 3, clock=5)
    assert result == "edge (1, 0) carries 4 bits in round 6 (limit 3)"
    assert clock == 6 and _tree_phase(ledger)["messages"] == 2


@pytest.mark.parametrize("make", [
    lambda rng: random_connected_graph(rng.randrange(1, 65), rng=rng),
    lambda rng: cycle_graph(rng.randrange(1, 65)),
    lambda rng: grid_graph(rng.randrange(1, 9), rng.randrange(1, 9)),
    lambda rng: star_graph(rng.randrange(1, 65)),
], ids=["random-connected", "cycle", "grid", "star"])
def test_families(make):
    errors = 0
    for seed in range(12):
        rng = random.Random(f"tree:{seed}")
        g = make(rng)
        for bits in BANDWIDTHS:
            result, _, _ = _check(g, bits, clock=rng.randrange(3))
            errors += isinstance(result, str)
    assert errors  # both outcomes were exercised


def test_nodes_the_leader_cannot_reach():
    g = WeightedGraph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1)])
    for bits in BANDWIDTHS:
        _check(g, bits)
    (parent, depth), ledger, _ = _check(g)
    assert parent == [None, 0, 0, None, None, None]
    assert depth == [0, 1, 1, None, None, None]
    assert _tree_phase(ledger)["messages"] == 2 * 3 + 2
    # a leader with no neighbour sends nothing and takes no round
    lone = WeightedGraph(3, [(1, 2, 1)])
    tree, ledger, clock = _check(lone, 1)
    assert tree == ([None] * 3, [0, None, None])
    assert tree_children(tree[0]) == [[], [], []]
    assert clock == ledger["rounds"] == 0


def test_the_tree_is_built_and_charged_once():
    g = random_connected_graph(20, rng=random.Random(5))
    for build in (closed_form, oracles.tree_program):
        net = Network(g)
        tree = build(net)
        ledger, clock = net.ledger.to_dict(), net.round_clock
        assert build(net) is tree and net.build_bfs_tree() is tree
        assert (net.ledger.to_dict(), net.round_clock) == (ledger, clock)


@pytest.mark.parametrize("estimator", [approx_diameter, approx_radius])
def test_closed_form_matches_reference_end_to_end(monkeypatch, estimator):
    for t, g in enumerate([random_connected_graph(16, rng=random.Random(3)),
                           cycle_graph(12), grid_graph(3, 5)]):
        schedule = ParameterSchedule.for_graph(g)

        def run():
            net = Network(g, seed=f"tree:{t}")
            sink = []
            try:
                estimate, trace, _ = estimator(
                    net, schedule, rng=random.Random(t), trace_sink=sink)
            except LowConfidenceResult as low:
                estimate, trace = None, low.trace
            return (estimate, trace, sink, net.ledger.to_dict(),
                    net.round_clock, net.tree)

        fast = run()
        with monkeypatch.context() as m:
            m.setattr(Network, "build_bfs_tree", oracles.tree_program)
            reference = run()
        assert fast == reference, f"graph {t}"
