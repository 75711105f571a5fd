"""The closed-form broadcast pipeline against the message-level reference.

`Network.broadcast_pipeline` charges the pipeline from the BFS tree and
the items alone, and returns nothing.  `oracles.pipeline_program` runs
the same pipeline message by message on the engine, and every node must
receive every item there, in order.  Both must agree on the raised
exception, the ledger and the round clock.
"""

import random

import pytest

import oracles
from congestsim.engine import BandwidthExceeded, MaxRoundsExceeded, Network
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


def closed_form(network, items, phase):
    return network.broadcast_pipeline(items, phase=phase)


def reference_pipeline(network, items, phase="broadcast"):
    """The message-level pipeline, after checking that each node received
    `items`; returns what the closed form does, nothing."""
    received = oracles.pipeline_program(network, items, phase)
    assert received == {v: list(items) for v in range(network.n)}


def path_graph(p):
    return WeightedGraph(p + 1, [(i, i + 1, 1) for i in range(p)])


def _outcome(pipeline, g, calls, bandwidth_bits=None):
    """Results, ledger and clock after `calls`, a list of (items, phase)."""
    net = Network(g, bandwidth_bits=bandwidth_bits)
    results = []
    try:
        for items, phase in calls:
            results.append(pipeline(net, items, phase))
    except (BandwidthExceeded, MaxRoundsExceeded) as exc:
        results.append((type(exc).__name__, str(exc)))
    return results, net.ledger.to_dict(), net.round_clock


def _check(g, calls, bandwidth_bits=None):
    fast = _outcome(closed_form, g, calls, bandwidth_bits)
    reference = _outcome(reference_pipeline, g, calls, bandwidth_bits)
    assert fast == reference
    return fast


def test_single_node():
    lone = WeightedGraph(1, [])
    results, ledger, clock = _check(lone, [([1, 2, 3], "broadcast")])
    assert results == [None] and clock == ledger["rounds"] == 0
    _check(lone, [([], "broadcast")])


def test_no_items():
    results, ledger, _ = _check(path_graph(4), [([], "broadcast")])
    assert results == [None]
    assert ledger["phases"][-1] == {"name": "broadcast", "rounds": 0,
                                    "messages": 0, "bits": 0}


def test_star():
    for items in ([9], [1, 2, 3], [(0, 5), (1, 7)]):
        _check(star_graph(6), [(items, "broadcast")])


@pytest.mark.parametrize("p", [1, 4, 16])
def test_paths(p):
    for k in (1, 4, 16):
        results, ledger, _ = _check(path_graph(p),
                                    [(list(range(k)), "broadcast")])
        # one item per round behind the last, down a tree of height p
        assert ledger["phases"][-1]["rounds"] == k + p - 1
        # each item crosses each of the p tree edges once
        assert results == [None] and ledger["phases"][-1]["messages"] == k * p


@pytest.mark.parametrize("make", [
    lambda rng: random_connected_graph(rng.randrange(2, 30), rng=rng),
    lambda rng: cycle_graph(rng.randrange(3, 30)),
    lambda rng: grid_graph(rng.randrange(1, 6), rng.randrange(2, 6)),
], ids=["random-connected", "cycle", "grid"])
def test_families(make):
    for seed in range(25):
        rng = random.Random(f"pipeline:{seed}")
        g = make(rng)
        k = rng.randrange(0, 12)
        items = [(i, rng.randrange(0, 64)) for i in range(k)]
        _check(g, [(items, "mssp-delays")])


def test_two_pipelines_in_a_row():
    g = random_connected_graph(14, rng=random.Random(4))
    results, ledger, _ = _check(g, [([1, 2, 3], "first"),
                                    ([(0, 9), (1, 4)], "second")])
    assert [p["name"] for p in ledger["phases"]] == ["bfs-tree", "first",
                                                     "second"]


def test_item_wider_than_bandwidth():
    g = cycle_graph(8)
    wide = 2 ** 16
    # before the tree is built, and after a pipeline advanced the clock
    results, _, _ = _check(g, [([1, wide], "broadcast")], bandwidth_bits=8)
    assert results[-1][0] == "BandwidthExceeded"
    results, _, clock = _check(g, [([1, 2], "broadcast"), ([wide], "late")],
                               bandwidth_bits=8)
    assert results[-1] == ("BandwidthExceeded",
                           f"edge ('item',) carries 17 bits in round {clock} "
                           f"(limit 8)")


def test_node_the_leader_cannot_reach():
    # node 3 has no edge: the BFS tree misses it and it never halts
    g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1)])
    results, ledger, clock = _check(g, [([5, 6], "broadcast")])
    assert results[-1] == ("MaxRoundsExceeded", "no halt within 8 rounds")
    assert ledger["phases"][-1]["messages"] == 4
    # with nothing to send every node halts at once
    results, ledger, _ = _check(g, [([], "broadcast")])
    assert results == [None] and ledger["phases"][-1]["messages"] == 0


@pytest.mark.parametrize("estimator", [approx_diameter, approx_radius])
def test_closed_form_matches_reference_end_to_end(monkeypatch, estimator):
    # the estimators broadcast each MSSP attempt's delays this way
    for t in range(2):
        g = random_connected_graph(14 + 6 * t, max_weight=10,
                                   rng=random.Random(t))
        schedule = ParameterSchedule.for_graph(g)

        def run():
            net = Network(g, seed=f"pipeline:{t}")
            sink = []
            try:
                estimate, trace, _ = estimator(
                    net, schedule, rng=random.Random(t), trace_sink=sink)
            except LowConfidenceResult as low:
                estimate, trace = None, low.trace
            return (estimate, trace, sink, net.ledger.to_dict(),
                    net.round_clock)

        fast = run()
        with monkeypatch.context() as m:
            m.setattr(Network, "broadcast_pipeline", reference_pipeline)
            reference = run()
        assert fast == reference, f"graph {t}"
