import random

import pytest

from congestsim.engine import (
    BandwidthExceeded,
    MaxRoundsExceeded,
    Network,
    NodeProgram,
    payload_bits,
)
from congestsim.graphs import (
    WeightedGraph,
    random_connected_graph,
    star_graph,
)

from oracles import bfs_eccentricity


def path_graph(p):
    """p edges, p+1 nodes, unit weights."""
    return WeightedGraph(p + 1, [(i, i + 1, 1) for i in range(p)])


class Flood(NodeProgram):
    """Forward a 1-bit token away from its senders; record arrival round."""

    def __init__(self, node, origin):
        self.node = node
        self.arrived = 0 if node == origin else None
        self.origin = origin
        self.halted = node != origin

    def on_round(self, ctx):
        if self.node == self.origin and ctx.local_round == 0:
            ctx.broadcast(1)
            self.halted = True
            return
        senders = {u for u, _ in ctx.inbox}
        if senders and self.arrived is None:
            self.arrived = ctx.local_round
            for v in ctx.neighbors():
                if v not in senders:
                    ctx.send(v, 1)
        self.halted = True


def flood_network(g, **kw):
    net = Network(g, **kw)
    programs = {v: Flood(v, 0) for v in range(g.n)}
    used = net.run(programs)
    return net, programs, used


def test_flood_path_rounds():
    net, programs, used = flood_network(path_graph(4))
    assert used == 4
    # synchrony: a message sent in round r is readable in round r+1
    assert [programs[v].arrived for v in range(5)] == [0, 1, 2, 3, 4]


def test_bandwidth_violation():
    g = WeightedGraph(2, [(0, 1, 1)])
    net = Network(g)

    class Hog(NodeProgram):
        def on_round(self, ctx):
            ctx.send(1, 0, bits=2 * ctx.network.bandwidth_bits)
            self.halted = True

    with pytest.raises(BandwidthExceeded):
        net.run({0: Hog()})


def test_bandwidth_accumulates_per_edge_per_round():
    g = WeightedGraph(2, [(0, 1, 1)])
    net = Network(g)
    b = net.bandwidth_bits

    class TwoHalves(NodeProgram):
        def on_round(self, ctx):
            ctx.send(1, 0, bits=b // 2 + 1)
            ctx.send(1, 0, bits=b // 2 + 1)
            self.halted = True

    with pytest.raises(BandwidthExceeded):
        net.run({0: TwoHalves()})


def test_fragmented_word():
    g = WeightedGraph(2, [(0, 1, 1)])
    net = Network(g)
    b = net.bandwidth_bits

    class Wide(NodeProgram):
        def on_round(self, ctx):
            ctx.send_word(1, 7, bits=3 * b)
            self.halted = True

    class Sink(NodeProgram):
        got = None
        halted = True

        def on_round(self, ctx):
            self.got = (ctx.local_round, ctx.inbox)

    sink = Sink()
    net.run({0: Wide(), 1: sink})
    assert net.ledger.messages == 3
    assert net.ledger.bits == 3 * b
    assert sink.got == (3, [(0, 7)])


def test_ledger_bits_match_observed():
    g = random_connected_graph(10, rng=random.Random(5))
    net, programs, _ = flood_network(g)
    # every node broadcasts exactly once; each message is the 1-bit token,
    # except forwarded copies skip the edges it arrived on
    observed = len(g.adj[0])
    for v in range(1, g.n):
        senders = sum(1 for u, _ in g.adj[v]
                      if programs[u].arrived is not None
                      and programs[u].arrived + 1 == programs[v].arrived)
        observed += len(g.adj[v]) - senders
    assert net.ledger.bits == net.ledger.messages == observed


def test_nested_phase_takes_its_own_charge():
    net = Network(path_graph(2))
    with net.ledger.phase("outer"):
        net.charge_rounds(3)
        net.charge_rounds(5, phase="inner")
        with net.ledger.phase("innermost"):
            net.ledger.add_messages(2, 7)
        net.charge_rounds(1)
    net.charge_rounds(4)  # outside every phase
    phases = [(p.name, p.rounds, p.messages, p.bits)
              for p in net.ledger.phases]
    assert phases == [("outer", 4, 0, 0), ("inner", 5, 0, 0),
                      ("innermost", 0, 2, 7)]
    assert (net.ledger.rounds, net.round_clock) == (13, 13)


def test_exact_rounds_charges_whole_budget():
    net = Network(path_graph(4))
    programs = {v: Flood(v, 0) for v in range(5)}
    used = net.run(programs, exact_rounds=12)
    assert used == 12
    assert net.ledger.rounds == 12


def test_max_rounds_exceeded():
    class Restless(NodeProgram):
        def on_round(self, ctx):
            ctx.wake_at(ctx.round + 1)

    net = Network(WeightedGraph(2, [(0, 1, 1)]))
    with pytest.raises(MaxRoundsExceeded):
        net.run({0: Restless()}, max_rounds=10)


def test_payload_bits():
    assert payload_bits(0) == 1
    assert payload_bits(5) == 3
    assert payload_bits((3, 4)) == 5
    assert payload_bits(True) == 1
    with pytest.raises(TypeError):
        payload_bits(object())


def test_bfs_tree_rounds_match_eccentricity():
    for seed in range(5):
        g = random_connected_graph(16, rng=random.Random(seed))
        net = Network(g)
        parent, children, depth = net.build_bfs_tree()
        ecc = bfs_eccentricity(g.unit_weights(), 0)
        assert max(d for d in depth) == ecc
        assert parent[0] is None and depth[0] == 0
        for v in range(1, g.n):
            assert depth[v] == depth[parent[v]] + 1
        phase = next(p for p in net.ledger.phases if p.name == "bfs-tree")
        assert ecc - 1 <= phase.rounds <= ecc + 1


def _phase_rounds(net, name):
    return sum(p.rounds for p in net.ledger.phases if p.name == name)


def test_broadcast_pipeline_star():
    net = Network(star_graph(6))
    got = net.broadcast_pipeline([9])
    assert all(got[v] == [9] for v in range(6))
    assert _phase_rounds(net, "broadcast") <= 1 + 1 + 2


def test_broadcast_pipeline_path():
    for p in (1, 4, 16):
        for k in (1, 4, 16):
            net = Network(path_graph(p))
            items = list(range(k))
            got = net.broadcast_pipeline(items)
            assert all(got[v] == items for v in range(p + 1))
            assert _phase_rounds(net, "broadcast") <= p + k + 2


def test_broadcast_pipeline_empty():
    net = Network(path_graph(3))
    net.build_bfs_tree()
    before = net.ledger.rounds
    net.broadcast_pipeline([])
    assert net.ledger.rounds == before


def test_broadcast_pipeline_rejects_wide_item():
    net = Network(path_graph(3))
    with pytest.raises(BandwidthExceeded):
        net.broadcast_pipeline([2 ** (2 * net.bandwidth_bits)])


def test_convergecast():
    g = random_connected_graph(12, rng=random.Random(9))
    net = Network(g)
    assert net.convergecast_extremum([5] * g.n) == 5
    assert net.convergecast_extremum(list(range(g.n))) == g.n - 1
    rng = random.Random(42)
    values = [rng.randrange(1000) for _ in range(g.n)]
    assert net.convergecast_extremum(values, mode="max") == max(values)
    assert net.convergecast_extremum(values, mode="min") == min(values)


def test_skeleton_sampling():
    g = random_connected_graph(16, rng=random.Random(2))
    net = Network(g, seed=11)
    for s in net.sample_skeleton_sets(g.n, 5):
        assert s == set(range(g.n))
    sets = net.sample_skeleton_sets(1, 10 ** 4)
    mean = sum(len(s) for s in sets) / 10 ** 4
    sigma = (1 * (1 - 1 / g.n)) ** 0.5 / 100  # binomial, 10^4 samples
    assert abs(mean - 1) <= 3 * sigma
    # same seed, same call sequence => identical sets
    runs = [Network(g, seed=3).sample_skeleton_sets(2, 50) for _ in range(2)]
    assert runs[0] == runs[1]
    with pytest.raises(ValueError):
        net.sample_skeleton_sets(0, 1)


def test_determinism():
    g = random_connected_graph(14, rng=random.Random(4))
    ledgers = []
    for _ in range(2):
        net, programs, _ = flood_network(g, seed=7)
        net.build_bfs_tree()
        net.broadcast_pipeline([1, 2, 3])
        ledgers.append(net.ledger.to_json())
    assert ledgers[0] == ledgers[1]
