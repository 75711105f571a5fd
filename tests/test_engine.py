import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestsim.engine import (
    BandwidthExceeded,
    MaxRoundsExceeded,
    Network,
    NodeProgram,
    Phase,
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
    used = net.run(programs, "flood")
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
        net.run({0: Hog()}, "hog")


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
        net.run({0: TwoHalves()}, "halves")


class Scripted(NodeProgram):
    """Send a fixed script: round -> [(neighbor or None for all, bits)]."""

    halted = True  # pending wakes and deliveries keep the run going

    def __init__(self, script, arrivals):
        self.script = script
        self.arrivals = arrivals

    def on_round(self, ctx):
        r = ctx.local_round
        for sender, payload in ctx.inbox:
            self.arrivals.append((sender, ctx.node, payload, r))
        for i, (v, bits) in enumerate(self.script.get(r, ())):
            if v is None:
                ctx.broadcast((r, i), bits=bits)
            else:
                ctx.send(v, (r, i), bits=bits)
        later = [t for t in self.script if t > r]
        if later:
            ctx.wake_at(ctx.round - r + min(later))


def plain_model(g, scripts, bandwidth):
    """The sends a run makes, in engine order, up to the first violation.

    Returns (sends, violation) with sends a list of (u, v, payload, bits,
    round) and violation None or the (edge, round, bits) it must report.
    """
    sends, load = [], {}
    for r in sorted({t for script in scripts.values() for t in script}):
        for u in sorted(scripts):
            for i, (target, bits) in enumerate(scripts[u].get(r, ())):
                targets = [v for v, _ in g.adj[u]] if target is None else [target]
                for v in targets:
                    load[u, v, r] = load.get((u, v, r), 0) + bits
                    if bits > bandwidth:
                        return sends, ((u, v), r, bits)
                    if load[u, v, r] > bandwidth:
                        return sends, ((u, v), r, load[u, v, r])
                    sends.append((u, v, (r, i), bits, r))
    return sends, None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bandwidth_and_ledger_match_plain_model(data):
    n = data.draw(st.integers(2, 6))
    g = random_connected_graph(n, rng=random.Random(data.draw(st.integers(0, 999))))
    bandwidth = data.draw(st.integers(1, 6))
    width = st.integers(1, bandwidth + 1)
    scripts = {}
    for u in range(n):
        send = st.tuples(st.sampled_from([None] + [v for v, _ in g.adj[u]]), width)
        scripts[u] = data.draw(st.dictionaries(
            st.integers(0, 5), st.lists(send, max_size=3), max_size=3))
    budget = data.draw(st.sampled_from([None, 6, 9]))
    # a run takes at most one bound: a cap below, at or past the run's
    # last round, or 0, only without a budget
    cap = None if budget is not None else data.draw(
        st.none() | st.integers(0, 8))
    bound = {"exact_rounds": budget} if cap is None else {"max_rounds": cap}
    net = Network(g, bandwidth_bits=bandwidth)
    arrivals = []
    programs = {u: Scripted(scripts[u], arrivals) for u in range(n)}
    sends, violation = plain_model(g, scripts, bandwidth)
    # the last round the run has work in: the violation's, else the last
    # that holds a wake or a delivery
    stop = violation[1] if violation is not None else max(
        [t for script in scripts.values() for t in script]
        + [r + 1 for *_, r in sends], default=0)
    if cap is not None and cap <= stop:
        # a cap of 0 runs no round, and every program starts halted with
        # nothing pending; a cap that does not reach past `stop` fails
        early = [(u, v, p, bits, r) for u, v, p, bits, r in sends if r < cap]
        if cap == 0:
            assert net.run(programs, "scripted", max_rounds=0) == 0
        else:
            with pytest.raises(MaxRoundsExceeded):
                net.run(programs, "scripted", max_rounds=cap)
        assert [(p.name, p.rounds, p.messages, p.bits)
                for p in net.ledger.phases] == [
            ("scripted", 0, len(early), sum(bits for *_, bits, _ in early))]
        assert net.ledger.rounds == 0 and net.round_clock == cap
        assert sorted(arrivals) == sorted((u, v, p, r + 1)
                                          for u, v, p, _, r in early
                                          if r + 1 < cap)
        return
    # otherwise a cap changes nothing
    if violation is not None:
        with pytest.raises(BandwidthExceeded) as exc:
            net.run(programs, "scripted", **bound)
        assert (exc.value.edge, exc.value.round_no, exc.value.bits,
                exc.value.limit) == violation + (bandwidth,)
        # one phase: what was sent before the violating send, 0 rounds,
        # and the clock stopped in the violation's round
        [phase] = net.ledger.phases
        assert (phase.rounds, phase.messages, phase.bits) == (
            0, len(sends), sum(bits for *_, bits, _ in sends))
        assert (net.ledger.rounds, net.ledger.messages, net.ledger.bits) == (
            0, phase.messages, phase.bits)
        assert net.round_clock == violation[1]
        return
    used = net.run(programs, "scripted", **bound)
    last = max((r for *_, r in sends), default=None)
    expected = budget if budget is not None else (0 if last is None else last + 1)
    assert used == net.ledger.rounds == expected
    assert net.ledger.messages == len(sends)
    assert net.ledger.bits == sum(bits for *_, bits, _ in sends)
    assert [(p.name, p.rounds, p.messages, p.bits) for p in net.ledger.phases] \
        == [("scripted", used, net.ledger.messages, net.ledger.bits)]
    # a message sent in round r is read in round r + 1, if the run gets there
    end = budget if budget is not None else expected + 1
    assert sorted(arrivals) == sorted((u, v, p, r + 1) for u, v, p, _, r in sends
                                      if r + 1 < end)


def test_budget_tail_is_not_read_by_the_next_run():
    # node 0 sends in the last round of its budget; that message is due
    # after the run and must not reach the next run's programs
    net = Network(path_graph(1))
    arrivals = []
    net.run({0: Scripted({1: [(1, 1)]}, arrivals)}, "first", exact_rounds=2)
    net.run({1: Scripted({}, arrivals)}, "second", exact_rounds=2)
    assert net.ledger.messages == 1 and arrivals == []


def test_bandwidth_must_be_positive():
    g = WeightedGraph(2, [(0, 1, 1)])
    for bits in (0, -5):
        with pytest.raises(ValueError, match="bandwidth"):
            Network(g, bandwidth_bits=bits)
    assert Network(g, bandwidth_bits=1).bandwidth_bits == 1


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


def test_charge_appends_one_complete_phase_per_call():
    net = Network(path_graph(2))
    net.charge("a", 3)
    assert net.round_clock == 3
    net.charge("b", 5, messages=2, bits=7)
    assert net.round_clock == 8
    net.charge("a", 0, messages=4, bits=9)  # messages do not move the clock
    assert net.round_clock == 8
    phases = [(p.name, p.rounds, p.messages, p.bits)
              for p in net.ledger.phases]
    assert phases == [("a", 3, 0, 0), ("b", 5, 2, 7), ("a", 0, 4, 9)]
    assert (net.ledger.rounds, net.ledger.messages, net.ledger.bits) == (
        8, 6, 16)


_phases = st.builds(Phase, st.sampled_from(["a", "b", "c"]),
                    st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))


@settings(max_examples=100, deadline=None)
@given(st.lists(_phases, min_size=1, max_size=5), st.integers(0, 5),
       st.integers(0, 9))
def test_charge_block_is_charge_repeated(block, times, before):
    # one call charges what `times` passes of `charge` over the block do,
    # after some earlier charges, and appends the block's own objects
    nets = [Network(path_graph(2)) for _ in range(2)]
    for net in nets:
        net.charge("earlier", before, before, before)
    nets[0].charge_block(block, times)
    for _ in range(times):
        for p in block:
            nets[1].charge(p.name, p.rounds, p.messages, p.bits)
    assert nets[0].ledger.to_dict() == nets[1].ledger.to_dict()
    assert nets[0].round_clock == nets[1].round_clock
    assert all(a is b for a, b in zip(nets[0].ledger.phases[1:],
                                      block * times))


def test_charge_block_times_zero_or_negative():
    block = [Phase("a", 3, 1, 2), Phase("b", 4)]
    net = Network(path_graph(2))
    net.charge("earlier", 5, 6, 7)
    before = net.ledger.to_dict(), net.round_clock
    net.charge_block(block, 0)
    assert (net.ledger.to_dict(), net.round_clock) == before
    with pytest.raises(ValueError):
        net.charge_block(block, -1)
    assert (net.ledger.to_dict(), net.round_clock) == before


def test_phase_is_frozen():
    # one Phase object may stand for many charges in the ledger
    phase = Phase("a", 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        phase.rounds = 4


def test_exact_rounds_charges_whole_budget():
    net = Network(path_graph(4))
    programs = {v: Flood(v, 0) for v in range(5)}
    used = net.run(programs, "flood", exact_rounds=12)
    assert used == 12
    assert net.ledger.rounds == 12


def test_max_rounds_exceeded():
    class Restless(NodeProgram):
        def on_round(self, ctx):
            ctx.wake_at(ctx.round + 1)

    net = Network(WeightedGraph(2, [(0, 1, 1)]))
    with pytest.raises(MaxRoundsExceeded):
        net.run({0: Restless()}, "restless", max_rounds=10)


def test_a_run_without_a_bound_that_cannot_halt_is_a_deadlock():
    class Idle(NodeProgram):  # never halts, never sends, never wakes
        def on_round(self, ctx):
            pass

    net = Network(path_graph(3))
    with pytest.raises(MaxRoundsExceeded, match="^deadlock: "):
        net.run({v: Idle() for v in range(4)}, "idle")
    assert net.ledger.phases == [Phase("idle", 0, 0, 0)]
    assert net.round_clock == 1


def test_a_run_takes_at_most_one_bound():
    class Counted(NodeProgram):
        calls = 0

        def on_round(self, ctx):
            Counted.calls += 1
            ctx.send(1, 1)
            self.halted = True

    net = Network(WeightedGraph(2, [(0, 1, 1)]))
    for cap, budget in ((3, 10), (10, 3), (0, 0)):
        with pytest.raises(ValueError, match="not both"):
            net.run({0: Counted()}, "both", max_rounds=cap,
                    exact_rounds=budget)
    assert Counted.calls == 0 and net.round_clock == 0
    assert net.ledger.to_dict() == Network(net.graph).ledger.to_dict()


@pytest.mark.parametrize("bound", ["max_rounds", "exact_rounds"])
def test_a_negative_bound_is_refused(bound):
    # an exact run of -3 rounds returned -3 and moved the clock back to -3
    class Counted(NodeProgram):
        calls = 0

        def on_round(self, ctx):
            Counted.calls += 1
            self.halted = True

    net = Network(WeightedGraph(2, [(0, 1, 1)]))
    for value in (-1, -3):
        with pytest.raises(ValueError, match="bound"):
            net.run({0: Counted()}, "negative", **{bound: value})
    assert Counted.calls == 0 and net.round_clock == 0
    assert net.ledger.to_dict() == Network(net.graph).ledger.to_dict()


def test_a_negative_charge_is_refused():
    # charge("x", -5, -1, -2) moved the clock back to -5; no phase, and so
    # no block either, holds a negative cost
    net = Network(WeightedGraph(2, [(0, 1, 1)]))
    for cost in ((-5, 0, 0), (0, -1, 0), (0, 0, -2), (-5, -1, -2)):
        with pytest.raises(ValueError, match=">= 0"):
            net.charge("x", *cost)
        with pytest.raises(ValueError, match=">= 0"):
            Phase("x", *cost)
    assert net.round_clock == 0
    assert net.ledger.to_dict() == Network(net.graph).ledger.to_dict()
    net.charge("x", 0)
    assert net.ledger.phases == [Phase("x", 0)]


def test_wake_must_name_a_later_round():
    class Now(NodeProgram):
        def on_round(self, ctx):
            ctx.wake_at(ctx.round)

    net = Network(WeightedGraph(2, [(0, 1, 1)]))
    with pytest.raises(ValueError, match="later round"):
        net.run({0: Now()}, "now", max_rounds=10)


def test_payload_bits():
    assert payload_bits(0) == 1
    assert payload_bits(5) == 3
    assert payload_bits((3, 4)) == 5
    assert payload_bits(True) == 1
    with pytest.raises(TypeError):
        payload_bits(object())
    # no default size for text: a caller names its bits
    with pytest.raises(TypeError, match="bits="):
        payload_bits("ab")


def test_bfs_tree_rounds_match_eccentricity():
    for seed in range(5):
        g = random_connected_graph(16, rng=random.Random(seed))
        net = Network(g)
        parent, depth = net.build_bfs_tree()
        ecc = bfs_eccentricity(g.unit_weights(), 0)
        assert max(d for d in depth) == ecc
        assert parent[0] is None and depth[0] == 0
        for v in range(1, g.n):
            assert depth[v] == depth[parent[v]] + 1
        phase = next(p for p in net.ledger.phases if p.name == "bfs-tree")
        assert phase.rounds == ecc + 1


def _phase_rounds(net, name):
    return sum(p.rounds for p in net.ledger.phases if p.name == name)


def _phase(net, name):
    (phase,) = [p for p in net.ledger.phases if p.name == name]
    return phase


def test_broadcast_pipeline_star():
    # every item crosses each of the 5 tree edges once: every node learns it
    net = Network(star_graph(6))
    assert net.broadcast_pipeline([9]) is None
    assert _phase(net, "broadcast") == Phase("broadcast", 1, 5,
                                             5 * payload_bits(9))
    assert _phase_rounds(net, "broadcast") <= 1 + 1 + 2


def test_broadcast_pipeline_path():
    for p in (1, 4, 16):
        for k in (1, 4, 16):
            net = Network(path_graph(p))
            items = list(range(k))
            assert net.broadcast_pipeline(items) is None
            assert _phase(net, "broadcast") == Phase(
                "broadcast", k + p - 1, k * p,
                p * sum(map(payload_bits, items)))
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
