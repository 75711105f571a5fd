import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from congestsim.engine import Network, Phase
from congestsim.graphs import (
    INFINITE,
    GraphError,
    WeightedGraph,
    cycle_graph,
    diameter,
    dijkstra,
    exact_sssp,
    grid_graph,
    random_connected_graph,
    star_graph,
)
from congestsim.search import ParameterSchedule, approx_diameter
from congestsim.toolkit import (
    CongestionFailure,
    LevelTables,
    approx_eccentricity,
    bounded_hop_mssp,
    build_skeleton_state,
    default_eps,
    embed_overlay,
    hop_budget,
    scale_levels,
    sssp_on_overlay,
    SkeletonState,
)

from oracles import (
    approx_distance,
    bounded_distance_sssp,
    bounded_hop_sssp,
    complete_overlay_distances,
    eager_levels,
    edge_weight,
    exact_bounded_hop,
    keyed_passes,
    min_over_levels,
    rounded_weight,
    shortcut_reference,
)


def path_graph(p):
    return WeightedGraph(p + 1, [(i, i + 1, 1) for i in range(p)])


def in_unit(table, unit):
    """An integer table's distances: each finite entry times `unit`."""
    return [x if x is INFINITE else x * unit for x in table]


def unit_diameter(g):
    """The hop diameter the overlay stages charge by."""
    return diameter(g.unit_weights())


def overlay_weight(state, u, v):
    """The embedded overlay's weight u-v, an integer in the hop tables'
    unit, read from its graph; INFINITE where it has no edge."""
    try:
        return edge_weight(state.overlay_levels.graph,
                           state.members.index(u), state.members.index(v))
    except GraphError:
        return INFINITE


def overlay_pairs(members):
    """Each pair (u, v), u < v, of the sorted `members`."""
    return [(u, v) for i, u in enumerate(members) for v in members[i + 1:]]


# --- parameters ----------------------------------------------------------


def test_default_eps():
    assert default_eps(4) == Fraction(1, 2)
    assert default_eps(16) == Fraction(1, 4)
    assert default_eps(2 ** 20) == Fraction(1, 16)  # floored


def test_hop_budget_and_levels():
    assert hop_budget(4, Fraction(1, 2)) == 20
    assert hop_budget(1, Fraction(1, 1)) == 3
    # smallest i with 2^i >= 2*n*W/eps
    assert scale_levels(16, 10, Fraction(1, 4)) == 11  # 2^11 >= 1280
    assert scale_levels(2, 1, Fraction(1, 1)) == 2


def smallest_level(target):
    """The definition of `scale_levels`: the smallest i >= 0 with
    2^i >= target."""
    i = 0
    while 2 ** i < target:
        i += 1
    return i


@pytest.mark.parametrize("n, max_weight, eps, level", [
    (0, 5, Fraction(1, 2), 0),                # target 0
    (1, Fraction(1, 4), Fraction(1), 0),      # 1/2
    (1, Fraction(1, 2), Fraction(1), 0),      # 1
    (1, 1, Fraction(1), 1),                   # 2
    (16, 8, Fraction(1, 2), 9),               # 512 = 2^9
    (16, 8, Fraction(1, 4), 10),              # 1024 = 2^10
    (16, Fraction(513, 64), Fraction(1, 4), 11),  # 1026
    (3, Fraction(7, 3), Fraction(2, 9), 6),   # 63
    (2, Fraction(1, 3), Fraction(3, 4), 1),   # 16/9
])
def test_scale_levels_is_the_smallest_level_reaching_the_target(
        n, max_weight, eps, level):
    assert smallest_level(2 * n * Fraction(max_weight) / eps) == level
    assert scale_levels(n, max_weight, eps) == level


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 300),
       st.fractions(min_value=0, max_value=1000, max_denominator=50),
       st.fractions(min_value=Fraction(1, 100), max_value=1,
                    max_denominator=100))
def test_scale_levels_matches_its_definition(n, max_weight, eps):
    assert scale_levels(n, max_weight, eps) == smallest_level(
        2 * n * max_weight / eps)


def _hops():
    """int and Fraction hop bounds, and an overlay's 4|S|/k."""
    return st.one_of(
        st.integers(1, 64),
        st.fractions(min_value=Fraction(1, 8), max_value=64,
                     max_denominator=12).filter(lambda h: h > 0),
        st.builds(lambda size, k: Fraction(4 * size, k),
                  st.integers(1, 12), st.integers(1, 12)))


@settings(max_examples=300, deadline=None)
@given(hops=_hops(),
       eps=st.one_of(st.just(1), st.fractions(
           min_value=0, max_value=1, max_denominator=64).filter(
               lambda e: e > 0)),
       unit=st.one_of(st.integers(1, 5), st.fractions(
           min_value=Fraction(1, 200), max_value=5,
           max_denominator=200).filter(lambda u: u > 0)),
       n=st.integers(1, 8), max_weight=st.integers(1, 1000),
       seed=st.integers(0, 99))
def test_integer_setup_equals_the_fraction_definitions(hops, eps, unit, n,
                                                       max_weight, seed):
    # the definitions in Fraction arithmetic, which the constructor and
    # hop_budget / scale_levels compute from integer ratios
    rng = random.Random(seed)
    g = WeightedGraph(n, [(u, v, rng.randint(1, max_weight))
                          for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5])
    budget = math.floor((1 + 2 / Fraction(eps)) * Fraction(hops))
    assert hop_budget(hops, eps) == budget
    for weight in (max_weight, g.max_weight * unit):
        target = 2 * g.n * Fraction(weight) / eps
        assert scale_levels(g.n, weight, eps) == max(
            0, math.ceil(target) - 1).bit_length()
    levels = LevelTables(g, hops, eps, unit)
    table_unit = eps / (2 * Fraction(hops))
    assert levels.unit == table_unit and levels.budget == budget
    target = 2 * g.n * Fraction(g.max_weight * unit) / eps
    assert len(levels) == max(0, math.ceil(target) - 1).bit_length() + 1
    assert levels.windows == len(levels) * (budget + 1)
    # level 0 keeps each edge's weight rounded up in the tables' unit
    level_0 = eager_levels(g, hops, eps, unit)[0]
    ceils = {(u, v): w for u, nbrs in enumerate(level_0) for v, w in nbrs}
    for u, v, w in g.edges:
        assert ceils[u, v] == ceils[v, u] == math.ceil(w * unit / table_unit)


def test_rounded_weight():
    # ceil(2*4*5 / ((1/2) * 2^3)) = ceil(40/4) = 10
    assert rounded_weight(5, 4, Fraction(1, 2), 3) == 10
    # clamps to >= 1 at coarse levels
    assert rounded_weight(1, 1, Fraction(1, 1), 10) == 1
    # integer fast path agrees with the Fraction path
    for w in (1, 7, 10):
        for level in range(6):
            expect = rounded_weight(Fraction(w), Fraction(3),
                                    Fraction(1, 3), level)
            assert rounded_weight(w, 3, Fraction(1, 3), level) == expect


# --- bounded-distance pass -----------------------------------------------


def test_bounded_distance_path():
    net = Network(path_graph(3))
    dist = bounded_distance_sssp(net, 0, 2)
    assert dist == [0, 1, 2, INFINITE]


def test_bounded_distance_zero_budget():
    g = random_connected_graph(8, rng=random.Random(0))
    net = Network(g)
    dist = bounded_distance_sssp(net, 3, 0)
    assert dist == [INFINITE] * 3 + [0] + [INFINITE] * 4


def test_bounded_distance_full_budget_is_exact():
    for seed in range(5):
        g = random_connected_graph(16, rng=random.Random(seed))
        net = Network(g)
        budget = g.max_weight * g.n
        assert bounded_distance_sssp(net, 0, budget) == exact_sssp(g, 0)


def test_bounded_distance_exact_round_count():
    for seed in range(5):
        g = random_connected_graph(12, rng=random.Random(seed))
        for budget in (0, 3, 17):
            net = Network(g)
            before = net.round_clock
            bounded_distance_sssp(net, seed % g.n, budget)
            assert net.round_clock - before == budget + 1
            assert net.ledger.rounds == budget + 1


# --- bounded-hop pass ----------------------------------------------------


def assert_hop_sandwich(g, s, table, hops, eps):
    exact = exact_sssp(g, s)
    bounded = exact_bounded_hop(g, s, hops)
    for v in range(g.n):
        if table[v] is not INFINITE:
            assert exact[v] <= table[v]
        if bounded[v] is not INFINITE:
            assert table[v] <= (1 + eps) * bounded[v]


def test_bounded_hop_triangle():
    g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 3)])
    eps = Fraction(1, 2)
    table = bounded_hop_sssp(Network(g), 0, 1, eps)
    assert 2 <= table[2] <= (1 + eps) * 3


@pytest.mark.parametrize("hops, eps", [(3, Fraction(1, 2)),
                                       (Fraction(7, 2), Fraction(1, 4)),
                                       (1, Fraction(1, 3))],
                         ids=["hops3", "hops7_2", "hops1"])
def test_bounded_hop_matches_level_enumeration(hops, eps):
    g = random_connected_graph(8, max_weight=6, rng=random.Random(1))
    table = bounded_hop_sssp(Network(g), 0, hops, eps)
    budget = hop_budget(hops, eps)
    # independent recomputation: Dijkstra per level on the rounded weights
    best = [INFINITE] * g.n
    for level in range(scale_levels(g.n, g.max_weight, eps) + 1):
        rg = WeightedGraph(g.n, [(u, v, rounded_weight(w, hops, eps, level))
                                 for u, v, w in g.edges])
        d = exact_sssp(rg, 0)
        scale = eps * 2 ** level / (2 * Fraction(hops))
        for v in range(g.n):
            if d[v] <= budget and d[v] * scale < best[v]:
                best[v] = d[v] * scale
    assert table == best


def test_bounded_hop_sandwich_full_hops():
    for seed in range(8):
        g = random_connected_graph(4 + seed, rng=random.Random(seed))
        eps = default_eps(g.n)
        table = bounded_hop_sssp(Network(g), 0, max(1, g.n - 1), eps)
        exact = exact_sssp(g, 0)
        for v in range(g.n):
            assert exact[v] <= table[v] <= (1 + eps) * exact[v]


def test_bounded_hop_pulse_fits_small_bandwidth():
    # B is 4 bits here, narrower than a node id plus a distance; the round
    # a pulse arrives in carries the distance, so one bit suffices
    g = WeightedGraph(2, [(0, 1, 1)])
    net = Network(g)
    eps = Fraction(1, 8)
    table = bounded_hop_sssp(net, 0, 2, eps)
    assert_hop_sandwich(g, 0, table, 2, eps)
    assert net.ledger.bits == net.ledger.messages > 0


def test_bounded_hop_round_count():
    g = random_connected_graph(10, rng=random.Random(3))
    hops, eps = 2, Fraction(1, 2)
    net = Network(g)
    bounded_hop_sssp(net, 0, hops, eps)
    levels = scale_levels(g.n, g.max_weight, eps) + 1
    assert net.ledger.rounds == levels * (hop_budget(hops, eps) + 1)


def test_bounded_hop_rejects_bad_args():
    net = Network(path_graph(2))
    with pytest.raises(ValueError):
        bounded_hop_sssp(net, 0, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        bounded_hop_sssp(net, 0, 2, Fraction(3, 2))


@pytest.mark.parametrize("hops, eps", [
    (0, Fraction(1, 2)), (-1, Fraction(1, 2)),
    (2, Fraction(3, 2)), (2, Fraction(0)), (2, Fraction(-1, 2)),
])
def test_mssp_rejects_bad_args(hops, eps):
    net = Network(path_graph(2))
    with pytest.raises(ValueError) as mssp_error:
        bounded_hop_mssp(net, [0, 1], LevelTables(net.graph, hops, eps))
    with pytest.raises(ValueError) as sssp_error:
        bounded_hop_sssp(net, 0, hops, eps)
    assert str(mssp_error.value) == str(sssp_error.value)
    assert net.ledger.rounds == 0


def test_mssp_rejects_negative_retries():
    net = Network(path_graph(5))
    with pytest.raises(ValueError, match="retries"):
        bounded_hop_mssp(net, [0, 3], LevelTables(net.graph, 3, Fraction(1, 2)),
                         retries=-1)
    assert net.ledger.rounds == 0 and net.ledger.phases == []


@pytest.mark.parametrize("tables_of, sources, match", [
    (random_connected_graph(20, rng=random.Random(1)), [0, 15],
     "another graph"),
    (None, [-1], "in 0..7"),
    (None, [99], "in 0..7"),
], ids=["foreign-tables", "negative-source", "source-past-n"])
def test_mssp_rejects_nonsense_before_it_charges(tables_of, sources, match):
    # on the 8-cycle: the tables of a 20-node graph, a negative source and
    # a source past the last node are refused before any round is charged
    net = Network(cycle_graph(8), seed=1)
    levels = LevelTables(tables_of or net.graph, 8, Fraction(1, 3))
    with pytest.raises(ValueError, match=match):
        bounded_hop_mssp(net, sources, levels)
    assert net.ledger.rounds == net.round_clock == 0
    assert net.ledger.phases == [] and net.tree is None


# --- multi-source pass ---------------------------------------------------


def test_mssp_single_source_equals_sssp():
    for seed in range(4):
        g = random_connected_graph(10, rng=random.Random(seed))
        eps = default_eps(g.n)
        single = bounded_hop_sssp(Network(g, seed=seed), 2, 3, eps)
        levels = LevelTables(g, 3, eps)
        multi = bounded_hop_mssp(Network(g, seed=seed), [2], levels)
        assert {s: in_unit(t, levels.unit) for s, t in multi.items()} \
            == {2: single}


def test_mssp_sandwich():
    for seed in range(4):
        g = random_connected_graph(12, rng=random.Random(40 + seed))
        eps = default_eps(g.n)
        sources = [0, 3, 7, 11]
        levels = LevelTables(g, 4, eps)
        tables = bounded_hop_mssp(Network(g, seed=seed), sources, levels)
        assert sorted(tables) == sources
        for s in sources:
            assert_hop_sandwich(g, s, in_unit(tables[s], levels.unit), 4, eps)


def test_mssp_deterministic():
    g = random_connected_graph(12, rng=random.Random(8))
    eps = default_eps(g.n)
    runs = [bounded_hop_mssp(Network(g, seed=5), [0, 5, 9],
                             LevelTables(g, 4, eps))
            for _ in range(2)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("seed", [49, 56])
def test_aborted_mssp_attempt_is_charged_to_its_phase(seed):
    # criterion-5 configurations whose only attempt congests
    g = random_connected_graph(16, max_weight=10, rng=random.Random(seed))
    net = Network(g, seed=seed)
    with pytest.raises(CongestionFailure):
        bounded_hop_mssp(net, list(range(16)),
                         LevelTables(g, 16, Fraction(1, 4)), retries=0)
    assert sum(p.rounds for p in net.ledger.phases) == net.ledger.rounds
    assert net.ledger.phases[-1].name == "mssp"
    assert net.ledger.phases[-1].rounds > net.ledger.rounds / 2


def _mssp_sequence(g, calls, hops, eps, shared):
    """Outcome, ledger and clock after each call, all on one Network."""
    net = Network(g, seed="sequence")
    shared_levels = LevelTables(g, hops, eps)
    outcomes = []
    for sources, retries in calls:
        levels = shared_levels if shared else LevelTables(g, hops, eps)
        try:
            result = bounded_hop_mssp(net, sources, levels, retries=retries)
        except CongestionFailure as failure:
            result = ("CongestionFailure", str(failure))
        outcomes.append((result, net.ledger.to_dict(), net.round_clock))
    return outcomes


def test_shared_level_tables_are_invisible():
    # the same calls give the same tables or exception text, ledger and
    # clock whether they share one LevelTables or each build their own
    raised = succeeded = 0
    for seed in (49, 56, 3, 11):
        g = random_connected_graph(16, max_weight=10, rng=random.Random(seed))
        every = list(range(16))
        calls = [(every, 0), ([0, 5, 9], 3), (every, 1), ([2, 5], 0),
                 (every[::2], 0), (every, 0), ([0, 5, 9], 3)]
        for hops, eps in ((16, Fraction(1, 4)),
                          (Fraction(5, 2), Fraction(1, 2))):
            shared = _mssp_sequence(g, calls, hops, eps, shared=True)
            assert shared == _mssp_sequence(g, calls, hops, eps, shared=False)
            for result, _, _ in shared:
                raised += isinstance(result, tuple)
                succeeded += isinstance(result, dict)
    assert raised and succeeded


# --- level passes: breadth-first on uniform levels ----------------------


def _reference_passes(g, eager, budget, s):
    """(keys, sent, units, per-level distances) of s, from one Dijkstra per
    level of `eager`, the graph's `eager_levels`."""
    span = budget + 1
    degree = [len(nbrs) for nbrs in g.adj]
    keys, sent, per_level = [], 0, []
    for level, adj in enumerate(eager):
        dist = dijkstra(adj, s, budget)[0]
        per_level.append(dist)
        for v, d in enumerate(dist):
            if d is not INFINITE:
                keys.append((level * span + d) * g.n + v)
                sent += degree[v]
    units = [min_over_levels(dists) for dists in zip(*per_level)]
    return keys, sent, units, per_level


def _uniform_graph(kind, n, rng):
    if kind == "cycle":
        return cycle_graph(n)
    if kind == "star":
        return star_graph(n)
    if kind == "grid":
        return grid_graph(max(1, n // 3), 3)
    g = random_connected_graph(n, rng=rng)  # then every weight 7
    return WeightedGraph(n, [(u, v, 7) for u, v, _ in g.edges])


def _fraction_graph(n, rng):
    """(graph, weight_unit) like an overlay's: integer weights counting a
    rational unit, the graph possibly disconnected."""
    unit = Fraction(rng.randint(1, 3), rng.randint(1, 64))
    edges = [(u, v, rng.randint(2, 40))
             for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    return WeightedGraph(n, edges), unit


def _check_level_passes(g, hops, eps, weight_unit=1):
    levels = LevelTables(g, hops, eps, weight_unit)
    eager = eager_levels(g, hops, eps, weight_unit)
    assert len(levels) == len(eager)
    for level, adj in enumerate(eager):
        weights = {w for nbrs in adj for _, w in nbrs}
        if len(weights) == 1:
            assert levels.common[level] == weights.pop()
        elif weights:
            assert levels.common[level] is None
        else:  # no edges: every pass is {s: 0}
            assert levels.common[level] is not None
    # each source starts with `keys` on one table and with `source` on the
    # other, so a first walk builds its keys and its tables at once or
    # one after the other
    keys_first = LevelTables(g, hops, eps, weight_unit)
    source_first = LevelTables(g, hops, eps, weight_unit)
    for s in range(g.n):
        keys, sent, units, per_level = _reference_passes(g, eager,
                                                         levels.budget, s)
        # a level's keys come in base-distance order: compare them sorted
        keys = sorted(keys)
        assert sorted(keys_first.keys(s)) == keys
        assert tuple(keys_first.source(s)) == (sent, units)
        assert tuple(source_first.source(s)) == (sent, units)
        assert sorted(source_first.keys(s)) == keys
        assert keyed_passes(levels, s) == per_level
        assert tuple(levels.source(s)) == (sent, units)
        assert sorted(levels.keys(s)) == keys
    return levels


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["cycle", "grid", "star", "weight-7"]),
       n=st.integers(1, 16), seed=st.integers(0, 99),
       hops=st.integers(1, 32).map(lambda x: Fraction(x, 2)),
       eps=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 4)]))
# a small explicit case fails at once, with no shrinking, when the
# breadth-first base ignores the source or a level keeps a distance over
# the budget
@example(kind="cycle", n=4, seed=0, hops=Fraction(1, 2), eps=Fraction(1))
def test_level_passes_on_uniform_graphs_match_dijkstra(kind, n, seed, hops,
                                                       eps):
    g = _uniform_graph(kind, n, random.Random(seed))
    levels = _check_level_passes(g, hops, eps)
    assert None not in levels.common  # the breadth-first path ran throughout


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 14), seed=st.integers(0, 99),
       max_weight=st.sampled_from([2, 3, 10, 50]),
       hops=st.integers(1, 28).map(lambda x: Fraction(x, 2)),
       eps=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 4)]))
# fails at once when a keys walk stops at the first level reaching every node
@example(n=2, seed=0, max_weight=2, hops=Fraction(1, 2), eps=Fraction(1))
def test_level_passes_on_mixed_weights_match_dijkstra(n, seed, max_weight,
                                                      hops, eps):
    g = random_connected_graph(n, max_weight=max_weight,
                               rng=random.Random(seed))
    _check_level_passes(g, hops, eps)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), seed=st.integers(0, 99), k=st.integers(1, 4),
       eps=st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(1, 4)]))
def test_level_passes_on_fraction_overlays_match_dijkstra(n, seed, k, eps):
    g, unit = _fraction_graph(n, random.Random(seed))
    _check_level_passes(g, Fraction(4 * n, k), eps, unit)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["mixed", "cycle", "grid", "weight-7",
                             "fraction"]),
       n=st.integers(1, 14), seed=st.integers(0, 99),
       hops=st.integers(1, 28).map(lambda x: Fraction(x, 2)),
       eps=st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(1, 4)]))
def test_units_are_the_lowest_level_that_reaches_a_node(kind, n, seed, hops,
                                                        eps):
    # LevelTables keeps the lowest finite level's d << level; that is the
    # minimum over the levels, since d << level never falls as the level
    # rises while d stays within the budget
    rng = random.Random(seed)
    unit = 1
    if kind == "mixed":
        g = random_connected_graph(n, max_weight=rng.choice([3, 10, 1000]),
                                   rng=rng)
    elif kind == "fraction":
        g, unit = _fraction_graph(n, rng)
    else:
        g = _uniform_graph(kind, n, rng)
    levels = LevelTables(g, hops, eps, unit)
    for s in range(g.n):
        per_level = keyed_passes(LevelTables(g, hops, eps, unit), s)
        assert levels.source(s).units == [
            min_over_levels(dists) for dists in zip(*per_level)]
        for dists in zip(*per_level):
            reached = [d << level for level, d in enumerate(dists)
                       if d is not INFINITE]
            assert reached == sorted(reached)


def test_level_passes_on_a_disconnected_overlay_and_one_node():
    # weights 7/2, 5/2 and 3 as integers counting halves
    half = Fraction(1, 2)
    two_parts = WeightedGraph(5, [(0, 1, 7), (1, 2, 5), (3, 4, 6)])
    levels = _check_level_passes(two_parts, Fraction(5, 2), half, half)
    assert levels.source(0).units[3:] == [INFINITE, INFINITE]
    uniform = WeightedGraph(4, [(0, 1, 5), (2, 3, 5)])
    assert None not in _check_level_passes(uniform, 2, half, half).common
    lone = _check_level_passes(WeightedGraph(1, []), 1, Fraction(1, 2))
    assert lone.source(0).units == [0]


def _levels_built(monkeypatch):
    """{table: levels read by its private builder}, which are the levels
    each `LevelTables` built: a level is built on its first read."""
    built = {}
    read = LevelTables._level

    def recording_read(self, level):
        built.setdefault(self, set()).add(level)
        return read(self, level)

    monkeypatch.setattr(LevelTables, "_level", recording_read)
    return built


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["mixed", "cycle", "grid", "weight-7",
                             "fraction"]),
       n=st.integers(1, 12), seed=st.integers(0, 99),
       hops=st.integers(1, 28).map(lambda x: Fraction(x, 2)),
       eps=st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(1, 4)]),
       data=st.data())
def test_lazy_levels_equal_the_eager_rounding(kind, n, seed, hops, eps, data):
    rng = random.Random(seed)
    unit = 1
    if kind == "mixed":
        g = random_connected_graph(n, max_weight=rng.choice([3, 10, 1000]),
                                   rng=rng)
    elif kind == "fraction":
        g, unit = _fraction_graph(n, rng)
    else:
        g = _uniform_graph(kind, n, rng)
    eager = eager_levels(g, hops, eps, unit)
    levels = LevelTables(g, hops, eps, unit)
    assert len(levels) == len(eager)
    # read in any order, and again once built: the builder keeps a level
    order = data.draw(st.permutations(range(len(eager))))
    built = {}
    for level in order + order:
        adj = levels._level(level)
        assert adj == eager[level]
        assert built.setdefault(level, adj) is adj


class _DijkstraTables(LevelTables):
    """A `LevelTables` whose every level's pass, the one its walks read,
    is a Dijkstra on its level of `eager_levels`: each level is its own
    base, with c 1."""

    def __init__(self, g, hops, eps, weight_unit=1):
        super().__init__(g, hops, eps, weight_unit)
        self.eager = eager_levels(g, hops, eps, weight_unit)
        self._plan = [(level, 1) for level in range(len(self))]

    def _read_base(self, s, base):
        return dijkstra(self.eager[base], s, self.budget)


def _scaled_case(kind, n, shift, rng):
    """(graph, weight_unit) of one kind, its weights shifted left by
    `shift`, so every one is a multiple of 2^shift."""
    unit = 1
    if kind == "unit":
        g = random_connected_graph(n, rng=rng).unit_weights()
    elif kind == "fraction":
        g, unit = _fraction_graph(n, rng)
    else:
        g = random_connected_graph(n, max_weight=rng.choice([3, 10, 1000]),
                                   rng=rng)
    return WeightedGraph(n, [(u, v, w << shift) for u, v, w in g.edges]), unit


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["random", "unit", "fraction"]),
       n=st.integers(1, 10), seed=st.integers(0, 99), shift=st.integers(0, 6),
       hops=st.one_of(st.integers(1, 40),
                      st.integers(0, 6).map(lambda k: 2 ** k),
                      st.integers(0, 40).map(lambda x: x + Fraction(1, 2))),
       eps=st.integers(1, 8).map(lambda k: Fraction(1, k)), data=st.data())
@example(kind="random", n=6, seed=1, shift=0, hops=Fraction(3, 2),
         eps=Fraction(1, 3), data=None)  # scaled 0
@example(kind="random", n=6, seed=1, shift=6, hops=64,
         eps=Fraction(1, 8), data=None)  # scaled is the top level
def test_a_scaled_pass_equals_its_levels_dijkstra(kind, n, seed, shift, hops,
                                                  eps, data):
    # every rounded weight of a level below `scaled` is 2^(scaled - level)
    # times level scaled's, so its pass is level scaled's, shifted
    g, unit = _scaled_case(kind, n, shift, random.Random(seed))
    levels = LevelTables(g, hops, eps, unit)
    eager = eager_levels(g, hops, eps, unit)
    assert 0 <= levels.scaled < len(eager)
    assert all(w % 2 ** levels.scaled == 0
               for nbrs in eager[0] for _, w in nbrs)
    # any order of the sources: a walk reads no other source's pass
    order = list(range(g.n))
    if data is not None:
        order = data.draw(st.permutations(order))
    for s in order:
        assert keyed_passes(levels, s) == [
            dijkstra(adj, s, levels.budget)[0] for adj in eager]
    reference = _DijkstraTables(g, hops, eps, unit)
    for s in range(g.n):
        keys = sorted(reference.keys(s))
        assert LevelTables(g, hops, eps, unit).source(s) == reference.source(s)
        assert sorted(LevelTables(g, hops, eps, unit).keys(s)) == keys
        assert levels.source(s) == reference.source(s)
        assert sorted(levels.keys(s)) == keys


def test_a_level_pass_builds_only_its_base_level(monkeypatch):
    # a non-uniform level's pass is c times level max(level, scaled)'s, c
    # 2^(scaled - level) below scaled and 1 above; a uniform level's is
    # its c times the hop counts, and builds no level
    built = _levels_built(monkeypatch)
    mixed = random_connected_graph(12, max_weight=10, rng=random.Random(3))
    kinds = set()
    for g in (mixed, cycle_graph(8)):
        scaled = LevelTables(g, 4, Fraction(1, 4)).scaled
        assert scaled == 5  # every rounded-up weight is w * 2*4 / (1/4)
        for level, c in enumerate(LevelTables(g, 4, Fraction(1, 4)).common):
            levels = LevelTables(g, 4, Fraction(1, 4))
            base, factor = levels._plan[level]
            assert (base, factor) == (
                (None, c) if c is not None else
                (scaled, 2 ** (scaled - level)) if level <= scaled else
                (level, 1))
            levels._read_base(0, base)
            levels._read_base(5, base)
            assert built.pop(levels, set()) == (
                {max(level, scaled)} if c is None else set())
            kinds.add((c is None, c is None and level < scaled))
    assert kinds == {(False, False), (True, False), (True, True)}


def test_overlay_tables_build_no_level_above_their_walks(monkeypatch):
    # a walk stops at the first level that reaches every node, and a
    # uniform level takes a breadth-first search, so an overlay's levels
    # above the highest its walks read are never built
    built = _levels_built(monkeypatch)
    walked = {}  # table -> levels its walks read
    init = LevelTables.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        walked[self] = _recorded_passes(self)

    monkeypatch.setattr(LevelTables, "__init__", recording_init)
    g = random_connected_graph(32, max_weight=10, rng=random.Random("7:0"))
    net = Network(g, seed="7:0")
    approx_diameter(net, ParameterSchedule.for_graph(g),
                    rng=random.Random("7:0"))
    overlays = [(table, set(read)) for table, read in walked.items()
                if table.graph is not g and read]
    assert len(overlays) > 1
    skipped = 0
    for table, read in overlays:
        levels = built.get(table, set())
        # a non-uniform level below `scaled` reads level scaled
        assert levels <= {max(level, table.scaled) for level in read
                          if table.common[level] is None}
        assert all(table.common[level] is None for level in levels)
        assert max(levels, default=-1) <= max(max(read), table.scaled)
        skipped += len(table) - len(levels)
    assert skipped > 0


def test_eps_and_weight_unit_must_be_a_positive_int_or_fraction():
    # a unit of 0 divided by zero, and a negative one rounded the weights
    # below 0, so the level passes never ended; a float eps made the
    # tables' unit a float, which only an overlay's embedding or
    # approx_eccentricity tripped over
    g = cycle_graph(3)
    for unit in (0, -1, Fraction(-1, 2), 0.5, True, "1"):
        with pytest.raises(ValueError, match="weight unit"):
            LevelTables(g, 2, Fraction(1, 2), weight_unit=unit)
    for eps in (0.5, True, Fraction(3, 2), 0):
        with pytest.raises(ValueError, match="eps"):
            LevelTables(g, 2, eps)
    for unit in (1, 3, Fraction(1, 7)):
        levels = LevelTables(g, 2, Fraction(1, 2), weight_unit=unit)
        assert levels.source(0).units[0] == 0
    assert LevelTables(g, 2, 1).unit == Fraction(1, 4)


@pytest.mark.parametrize("hops", [float("inf"), float("nan"), 2.0, "3", True],
                         ids=["inf", "nan", "float", "str", "bool"])
def test_a_hop_bound_must_be_a_positive_int_or_fraction(hops):
    # a hand-built schedule's infinite hop bound raised OverflowError in
    # the budget, NaN an unrelated ValueError and "3" a TypeError, and
    # True was taken as 1; each is refused before anything is charged
    g = cycle_graph(4)
    with pytest.raises(ValueError, match="hop bound"):
        LevelTables(g, hops, Fraction(1, 2))
    schedule = ParameterSchedule(n=4, unweighted_diameter=2,
                                 eps=Fraction(1, 2), r=2, hops=hops, k=1)
    net = Network(g, seed=1)
    with pytest.raises(ValueError, match="hop bound"):
        approx_diameter(net, schedule, rng=random.Random(1))
    assert net.ledger.rounds == 0 and net.ledger.phases == []


class _RecordedPlan(list):
    """A `LevelTables._plan` that records each level read from it."""

    def __init__(self, plan):
        super().__init__(plan)
        self.taken = []

    def __getitem__(self, level):
        self.taken.append(level)
        return super().__getitem__(level)


def _recorded_passes(levels):
    """The levels of every pass the `levels` object takes from here on: a
    walk reads each level's (base, c) from the plan."""
    levels._plan = _RecordedPlan(levels._plan)
    return levels._plan.taken


def _levels_source_takes(levels, s):
    """The levels whose pass `levels.source(s)` takes, in order."""
    taken = _recorded_passes(levels)
    levels.source(s)
    levels._plan = list(levels._plan)
    return taken


def test_source_stops_at_the_first_level_that_reaches_every_node():
    # reached sets are nested across levels, so the levels above the first
    # that reaches every node add nothing but their messages, and the
    # levels below first[s] reach s alone
    g = random_connected_graph(12, max_weight=10, rng=random.Random(2))
    reference = LevelTables(g, 3, Fraction(1, 4))
    stops, firsts = set(), set()
    for s in range(g.n):
        stop = next(level for level, dist in enumerate(
            keyed_passes(reference, s)) if INFINITE not in dist)
        assert stop < len(reference) - 1
        stops.add(stop)
        first = reference.first[s]
        firsts.add(first)
        levels = LevelTables(g, 3, Fraction(1, 4))
        assert _levels_source_takes(levels, s) == list(range(first, stop + 1))
        assert levels.source(s) == reference.source(s)
    assert len(stops) > 1 and len(firsts) > 1
    # a node no level reaches: every level from first[s] is taken
    half = Fraction(1, 2)
    two_parts = WeightedGraph(5, [(0, 1, 7), (1, 2, 5), (3, 4, 6)])
    for s in range(two_parts.n):
        levels = LevelTables(two_parts, Fraction(5, 2), half, half)
        assert _levels_source_takes(levels, s) == list(
            range(levels.first[s], len(levels)))


def _skip_cases():
    """(graph, hops, eps, weight_unit) for the level-skip test."""
    rng = random.Random(11)
    for n, seed in ((9, 1), (14, 4)):
        yield (random_connected_graph(n, max_weight=10,
                                      rng=random.Random(seed)),
               3, Fraction(1, 4), 1)
    yield cycle_graph(10), 2, Fraction(1, 2), 1
    yield grid_graph(3, 4), 4, Fraction(1, 3), 1
    for n, unit in ((4, Fraction(1, 5)), (6, Fraction(2, 7))):
        # overlay-like: weights 25-60 counting `unit`, so each node's
        # lightest edge first fits the budget at level 2 or above
        edges = [(u, v, rng.randint(25, 60)) for u in range(n)
                 for v in range(u + 1, n) if rng.random() < 0.7]
        yield WeightedGraph(n, edges), Fraction(4 * n, 2), Fraction(1, 3), unit
    # node 3 has no edge
    yield (WeightedGraph(5, [(0, 1, 3), (1, 2, 5), (2, 4, 2)]), 2,
           Fraction(1, 2), 1)
    # a budget of floor(3 * 1/4) = 0 reaches no neighbour at any level
    yield random_connected_graph(6, rng=random.Random(2)), Fraction(1, 4), 1, 1


def test_walks_start_at_each_sources_first_reachable_level():
    firsts = []
    for g, hops, eps, unit in _skip_cases():
        eager = eager_levels(g, hops, eps, unit)
        for s in range(g.n):
            keys, sent, units, per_level = _reference_passes(
                g, eager, hop_budget(hops, eps), s)
            first = next((level for level, dist in enumerate(per_level)
                          if dist.count(INFINITE) < g.n - 1), None)
            # every level below the first reaches s alone
            assert all(dist[s] == 0 and dist.count(INFINITE) == g.n - 1
                       for dist in per_level[:first])
            for order in ("source", "keys"):
                levels = LevelTables(g, hops, eps, unit)
                assert levels.first[s] == first
                taken = _recorded_passes(levels)
                if order == "keys":
                    assert sorted(levels.keys(s)) == sorted(keys)
                assert tuple(levels.source(s)) == (sent, units)
                assert sorted(levels.keys(s)) == sorted(keys)
                if first is None:  # no level reaches past s: no pass
                    assert taken == []
                else:
                    assert min(taken) == first
            firsts.append(first)
    assert None in firsts and max(f for f in firsts if f is not None) >= 2
    lone = LevelTables(WeightedGraph(1, []), 1, Fraction(1, 2))
    taken = _recorded_passes(lone)
    assert lone.first == [None] and lone.source(0).units == [0]
    assert list(lone.keys(0)) == [level * (lone.budget + 1)
                                  for level in range(len(lone))]
    assert taken == []


def _mssp_keys_built(monkeypatch, net, sources, levels, retries):
    """{s: [each array levels.keys(s) returned]} and the attempts one
    `bounded_hop_mssp` call makes."""
    returned = {}
    keys = LevelTables.keys

    def recording_keys(self, s):
        table = keys(self, s)
        returned.setdefault(s, []).append(table)
        return table

    monkeypatch.setattr(LevelTables, "keys", recording_keys)
    try:
        bounded_hop_mssp(net, sources, levels, retries=retries)
    except CongestionFailure:
        pass
    attempts = sum(p.name == "mssp-delays" for p in net.ledger.phases)
    return returned, attempts


def test_congestion_keys_are_built_once_per_source_and_only_when_counted(
        monkeypatch):
    g = random_connected_graph(16, max_weight=10, rng=random.Random(49))
    stretch = 4  # ceil(log2 16): no more copies than this are counted
    levels = LevelTables(g, 16, Fraction(1, 4))
    few = [0, 5, 9, 12]
    returned, attempts = _mssp_keys_built(
        monkeypatch, Network(g, seed=49), few, levels, 3)
    assert returned == {} and attempts == 1
    kept = {s: levels.source(s) for s in few}
    sources = list(range(16))
    assert len(sources) > stretch
    # the first attempt congests (as in
    # test_aborted_mssp_attempt_is_charged_to_its_phase), so two are made
    returned, attempts = _mssp_keys_built(
        monkeypatch, Network(g, seed=49), sources, levels, 1)
    assert attempts == 2
    assert sorted(returned) == sources
    for s in sources:
        built = returned[s]
        assert len(built) == attempts
        assert all(table is built[0] for table in built)
    # building keys leaves the tables handed out before in place
    assert all(levels.source(s) is kept[s] for s in few)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["cycle", "grid", "weight-7", "mixed"]),
       n=st.integers(2, 14), seed=st.integers(0, 99),
       hops=st.integers(1, 28).map(lambda x: Fraction(x, 2)),
       k=st.integers(0, 5), data=st.data())
def test_shortcut_in_integer_units_equals_the_fraction_reference(
        kind, n, seed, hops, k, data):
    rng = random.Random(seed)
    g = (random_connected_graph(n, rng=rng) if kind == "mixed"
         else _uniform_graph(kind, n, rng))
    members = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
    net = Network(g, seed=seed)
    levels = LevelTables(g, hops, default_eps(g.n))
    try:
        build_skeleton_state(net, members, levels)
    except CongestionFailure:
        reject()
    unit = levels.unit
    reference = shortcut_reference(
        members, k, lambda u: in_unit(levels.source(u).units, unit))
    state = embed_overlay(net, members, levels, k, unit_diameter(g))
    # each pair's overlay weight is its shortcut, else its hop entry
    for u, v in overlay_pairs(members):
        w = overlay_weight(state, u, v)
        assert w is INFINITE or type(w) is int
        assert in_unit([w], unit) == [reference.get(
            (u, v), in_unit(state.levels.source(u).units, unit)[v])]


# --- overlay stages ------------------------------------------------------


def pipeline_state(g, members, hops, k, seed=0):
    net = Network(g, seed=seed)
    levels = LevelTables(g, hops, default_eps(g.n))
    members = build_skeleton_state(net, members, levels)
    return net, embed_overlay(net, members, levels, k, unit_diameter(g))


def test_embed_full_shortcutting():
    g = random_connected_graph(12, rng=random.Random(2))
    members = [0, 2, 4, 6, 8]
    net, state = pipeline_state(g, members, g.n, len(members) - 1)
    oracle = complete_overlay_distances(
        members, lambda u, v: state.levels.source(u).units[v])
    for u in members:
        for v in members:
            if u != v:
                assert overlay_weight(state, u, v) == oracle[(u, v)]


def test_embed_no_shortcuts():
    g = random_connected_graph(10, rng=random.Random(3))
    net, state = pipeline_state(g, [1, 4, 7], 4, 0)
    # no shortcut: every overlay weight is the hop entry
    for u, v in overlay_pairs([1, 4, 7]):
        assert overlay_weight(state, u, v) == state.levels.source(u).units[v]


def test_embed_matches_sequential_oracle():
    for seed in range(5):
        g = random_connected_graph(14, rng=random.Random(60 + seed))
        members = sorted(random.Random(seed).sample(range(g.n), 6))
        net, state = pipeline_state(g, members, g.n, 2, seed=seed)
        oracle = complete_overlay_distances(
            members, lambda u, v: state.levels.source(u).units[v])
        for u, v in overlay_pairs(members):
            assert overlay_weight(state, u, v) >= oracle[(u, v)]
        # equality on each node's k nearest (distance, id)-ordered targets
        for s in members:
            ranked = sorted((oracle[(s, v)], v) for v in members if v != s)
            for d, v in ranked[:2]:
                assert overlay_weight(state, s, v) == d


def test_overlay_sssp_singleton():
    g = path_graph(4)
    net, state = pipeline_state(g, [2], 4, 1)
    assert sssp_on_overlay(state, 2) == [0]


def test_overlay_sssp_large_k_close_to_exact():
    g = random_connected_graph(12, rng=random.Random(4))
    members = [0, 3, 5, 8, 11]
    net, state = pipeline_state(g, members, g.n, len(members))
    unit = state.levels.unit
    exact = complete_overlay_distances(
        members, lambda u, v: overlay_weight(state, u, v) * unit)
    eps = state.levels.eps
    for s in members:
        table = in_unit(sssp_on_overlay(state, s),
                        state.overlay_levels.unit)
        for v, x in zip(members, table):
            assert exact[(s, v)] <= x <= (1 + eps) * exact[(s, v)]


def test_overlay_sssp_rejects_foreign_source():
    g = path_graph(4)
    net, state = pipeline_state(g, [0, 2], 4, 1)
    with pytest.raises(ValueError):
        sssp_on_overlay(state, 3)


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_overlay_sssp_matches_level_enumeration(k):
    g = random_connected_graph(14, rng=random.Random(6))
    members = [1, 4, 7, 10, 13]
    net, state = pipeline_state(g, members, 6, k)
    eps = state.levels.eps
    hop_bound = Fraction(4 * len(members), k) if k else len(members)
    budget = hop_budget(hop_bound, eps)
    # independent recomputation: exact Dijkstra per level on a graph of the
    # rounded overlay weights, nodes renumbered 0..|S|-1
    edges = [(i, j, overlay_weight(state, u, v) * state.levels.unit)
             for i, u in enumerate(members)
             for j, v in enumerate(members) if i < j]
    top = scale_levels(len(members), max(w for _, _, w in edges), eps)
    cut = 0
    for i, s in enumerate(members):
        best = {u: INFINITE for u in members}
        for level in range(top + 1):
            rg = WeightedGraph(len(members), [
                (a, b, rounded_weight(w, hop_bound, eps, level))
                for a, b, w in edges])
            d = exact_sssp(rg, i)
            scale = eps * 2 ** level / (2 * hop_bound)
            for j, u in enumerate(members):
                cut += d[j] > budget
                if d[j] <= budget and d[j] * scale < best[u]:
                    best[u] = d[j] * scale
        table = sssp_on_overlay(state, s)
        assert in_unit(table, state.overlay_levels.unit) == \
            [best[u] for u in members]
    assert cut  # the distance budget cut some level short


def test_an_empty_skeleton_is_refused_before_anything_is_charged():
    g = random_connected_graph(8, rng=random.Random(4))
    net, levels = Network(g), LevelTables(g, 4, default_eps(g.n))
    # both stages check their members with one helper, so one message
    for stage in (lambda: build_skeleton_state(net, [], levels),
                  lambda: embed_overlay(net, [], levels, 2, unit_diameter(g))):
        with pytest.raises(ValueError, match="a skeleton must be nonempty"):
            stage()
        assert (net.ledger.phases, net.ledger.rounds, net.round_clock) == \
            ([], 0, 0)


@pytest.mark.parametrize("tables_of, members, match", [
    (random_connected_graph(20, rng=random.Random(1)), [0, 15],
     "another graph"),
    (None, [-1, 2], "in 0..7"),
    (None, [], "nonempty"),
], ids=["foreign-tables", "negative-member", "empty-skeleton"])
def test_embed_overlay_rejects_nonsense_before_it_charges(tables_of, members,
                                                          match):
    # on the 8-cycle: the tables of a 20-node graph, a negative member and
    # an empty skeleton are refused before any round is charged
    net = Network(cycle_graph(8), seed=1)
    levels = LevelTables(tables_of or net.graph, 8, Fraction(1, 3))
    with pytest.raises(ValueError, match=match):
        embed_overlay(net, members, levels, 1, 4)
    assert net.ledger.rounds == net.round_clock == 0
    assert net.ledger.phases == [] and net.tree is None


def test_embed_overlay_takes_a_skeletons_distinct_members():
    # a repeated member is one member, not a second overlay node at 0
    net = Network(cycle_graph(8), seed=1)
    levels = LevelTables(net.graph, 8, Fraction(1, 3))
    state = embed_overlay(net, [5, 2, 2], levels, 1, 4)
    assert state.members == [2, 5] and state.overlay_levels.graph.n == 2
    once = embed_overlay(net, [2, 5], levels, 1, 4)
    assert state.overlay_levels.graph.edges == once.overlay_levels.graph.edges


def test_embedding_is_charged_d_g_plus_one_round_per_announced_edge():
    # each of |S| members announces its k cheapest overlay edges, one per
    # round, after a d_g-round broadcast; no announcement without shortcuts
    g = random_connected_graph(14, rng=random.Random(6))
    d_g = unit_diameter(g)
    for members, k, rounds in (([1, 4, 7, 10, 13], 2, d_g + 10),
                               ([1, 4, 7, 10, 13], 1, d_g + 5),
                               ([1, 4, 7, 10, 13], 0, d_g),
                               ([1, 4, 7, 10, 13], -1, d_g),
                               ([4], 3, d_g)):
        net = Network(g)
        embed_overlay(net, members, LevelTables(g, 6, default_eps(g.n)), k,
                      d_g)
        assert net.ledger.phases == [Phase("embed", rounds)]
        assert net.round_clock == rounds


def test_embedding_builds_the_overlay_at_k_zero_too():
    # k <= 0 embeds no shortcuts, and the overlay's hop bound is |S|
    g = random_connected_graph(14, rng=random.Random(6))
    members = [1, 4, 7, 10, 13]
    for k in (0, -1):
        _, state = pipeline_state(g, members, 6, k)
        for u, v in overlay_pairs(members):
            assert overlay_weight(state, u, v) == \
                state.levels.source(u).units[v]
        assert state.overlay_levels.hops == len(members)


def test_overlay_probe_is_the_overlay_level_tables_own():
    # one copy of each probe table: the overlay LevelTables' integer list
    g = random_connected_graph(14, max_weight=10, rng=random.Random(6))
    members = [1, 4, 7, 10, 13]
    net, state = pipeline_state(g, members, 6, 2)
    for i, s in enumerate(members):
        table = sssp_on_overlay(state, s)
        assert table is state.overlay_levels.source(i).units
        assert table[i] == 0 and len(table) == len(members)
        assert all(x is INFINITE or type(x) is int for x in table)
    fields = {f.name for f in dataclasses.fields(SkeletonState)}
    assert not fields & {"overlay_tables", "k"}


@pytest.mark.parametrize("k", [0, 2])
def test_overlay_graph_holds_the_overlay_weights_as_ints(k):
    # one copy of the overlay's weights: its LevelTables' graph, integers
    # in the hop tables' unit, which the overlay takes as its weight unit
    g = random_connected_graph(14, max_weight=10, rng=random.Random(6))
    members = [1, 4, 7, 10, 13]
    net, state = pipeline_state(g, members, 6, k)
    unit = state.levels.unit
    # the overlay weights by the Fraction reference: shortcut, else hop entry
    shortcut = shortcut_reference(
        members, k, lambda u: in_unit(state.levels.source(u).units, unit))
    expected = {(u, v): shortcut.get(
                    (u, v), in_unit(state.levels.source(u).units, unit)[v])
                for u, v in overlay_pairs(members)}
    overlay = state.overlay_levels
    assert overlay.graph.edges
    for i, j, w in overlay.graph.edges:
        assert type(w) is int
        assert w * unit == expected[members[i], members[j]]
    assert len(overlay.graph.edges) == sum(
        w is not INFINITE for w in expected.values())


def test_overlay_levels_span_the_skeleton_only():
    # the overlay is a graph on the |S| skeleton nodes, not on all n
    g = random_connected_graph(14, rng=random.Random(6))
    members = [1, 4, 7, 10, 13]
    for k in (0, 2):
        net, state = pipeline_state(g, members, 6, k)
        sssp_on_overlay(state, members[0])
        overlay = state.overlay_levels
        assert len(overlay) > 1 and overlay.graph.n == len(members)
        eager = eager_levels(overlay.graph, overlay.hops, overlay.eps,
                             state.levels.unit)
        passes = keyed_passes(overlay, 0)
        assert passes == [dijkstra(adj, 0, overlay.budget)[0]
                          for adj in eager]
        assert all(len(dist) == len(members) for dist in passes)


def test_skeleton_hop_tables_are_the_level_tables_own():
    # one copy of each hop table: the state reads them from its
    # LevelTables, and the multi-source pass hands out the LevelTables'
    # integer lists themselves, in increasing source
    g = random_connected_graph(12, max_weight=10, rng=random.Random(3))
    levels = LevelTables(g, 4, default_eps(g.n))
    members, net = [0, 3, 7, 11], Network(g, seed=1)
    assert build_skeleton_state(net, [11, 3, 0, 7, 3], levels) == members
    state = embed_overlay(net, members, levels, 2, unit_diameter(g))
    tables = bounded_hop_mssp(Network(g, seed=2), members, levels)
    assert list(tables) == members and state.levels is levels
    for u in members:
        assert tables[u] is levels.source(u).units
        assert all(x is INFINITE or type(x) is int for x in tables[u])
    fields = {f.name for f in dataclasses.fields(SkeletonState)}
    assert not fields & {"hop_tables", "hops", "eps"}


# --- combination ---------------------------------------------------------


def full_pipeline(g, seed=0):
    """(state, {s: s's probe table}) of a full skeleton."""
    members = list(range(g.n))
    net, state = pipeline_state(g, members, max(1, g.n - 1),
                                max(1, g.n // 2), seed=seed)
    return state, {s: sssp_on_overlay(state, s)
                   for s in members}


def restrict(state, tables, sub):
    """A state on the members `sub` of `state`, sharing its overlay, and
    the members' probe tables cut down to `sub`."""
    restricted = SkeletonState(members=sub, levels=state.levels,
                               overlay_levels=state.overlay_levels)
    return restricted, {s: [tables[s][state.members.index(u)] for u in sub]
                        for s in sub}


def test_approx_distance_self_is_zero():
    g = random_connected_graph(8, rng=random.Random(5))
    state, tables = full_pipeline(g)
    for s in range(g.n):
        assert approx_distance(state, tables[s], s) == 0


def test_approx_distance_full_skeleton_sandwich():
    for n, seed in ((8, 0), (10, 1), (12, 2)):
        g = random_connected_graph(n, rng=random.Random(seed))
        state, tables = full_pipeline(g, seed=seed)
        slack = (1 + state.levels.eps) ** 2
        for s in range(g.n):
            exact = exact_sssp(g, s)
            for v in range(g.n):
                assert exact[v] <= approx_distance(state, tables[s], v) \
                    <= slack * exact[v]


def test_approx_distance_monotone_in_skeleton():
    g = random_connected_graph(10, rng=random.Random(9))
    state, tables = full_pipeline(g)
    sub = [0, 2, 5, 8]
    restricted, cut = restrict(state, tables, sub)
    for s in sub:
        for v in range(g.n):
            assert approx_distance(state, tables[s], v) \
                <= approx_distance(restricted, cut[s], v)


def test_approx_eccentricity():
    g = star_graph(6)
    state, tables = full_pipeline(g)
    slack = (1 + state.levels.eps) ** 2
    assert 1 <= approx_eccentricity(state, [tables[0]])[0] <= slack
    for s in range(g.n):
        e = max(exact_sssp(g, s))
        assert e <= approx_eccentricity(state, [tables[s]])[0] <= slack * e


def test_approx_eccentricity_single_node():
    g = WeightedGraph(1, [])
    net, levels = Network(g), LevelTables(g, 1, Fraction(1, 2))
    state = embed_overlay(net, build_skeleton_state(net, [0], levels),
                          levels, 1, 0)
    assert approx_eccentricity(state, [[0]]) == [0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eccentricity_in_integer_units_is_the_approx_distance_max(data):
    n = data.draw(st.integers(1, 12))
    rng = random.Random(data.draw(st.integers(0, 99)))
    g = random_connected_graph(n, max_weight=data.draw(st.integers(1, 10)),
                               rng=rng) if n > 1 else WeightedGraph(1, [])
    # half-integer and small hop bounds leave far nodes INFINITE
    hops = Fraction(data.draw(st.integers(1, 2 * n)), 2)
    eps = Fraction(1, data.draw(st.integers(1, 4)))
    members = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    net = Network(g, seed=data.draw(st.integers(0, 3)))
    levels = LevelTables(g, hops, eps)
    try:
        build_skeleton_state(net, members, levels)
    except CongestionFailure:
        reject()
    d_g = unit_diameter(g)
    for k in sorted(data.draw(st.sets(st.integers(0, len(members) + 1),
                                      min_size=1, max_size=3))):
        state = embed_overlay(net, members, levels, k, d_g)
        tables = [sssp_on_overlay(state, s) for s in members]
        for table in tables:
            assert approx_eccentricity(state, [table]) == [max(
                approx_distance(state, table, v) for v in range(n))]
        # all of the state's probe tables in one call, in their order
        assert approx_eccentricity(state, tables) == [
            max(approx_distance(state, table, v) for v in range(n))
            for table in tables]
        assert approx_eccentricity(state, []) == []


def test_eccentricity_of_a_state_built_by_hand():
    # member subsets of a pipeline's LevelTables, with and without probes
    g = random_connected_graph(10, rng=random.Random(9))
    state, tables = full_pipeline(g)
    sub = [0, 2, 5, 8]
    restricted, cut = restrict(state, tables, sub)
    for s in sub:
        assert approx_eccentricity(restricted, [cut[s]]) == [max(
            approx_distance(restricted, cut[s], v) for v in range(g.n))]
    single = embed_overlay(Network(g), [3], state.levels, 1, unit_diameter(g))
    assert approx_eccentricity(single, [[0]]) == \
        [max(state.levels.source(3).units) * state.levels.unit]


def test_eccentricity_in_integer_units_keeps_infinite_and_missing_tables():
    # budget floor(3 * 1/2) = 1: one hop from each skeleton node
    g = path_graph(4)
    net, levels = Network(g), LevelTables(g, Fraction(1, 2), Fraction(1))
    state = embed_overlay(net, build_skeleton_state(net, [0, 2], levels),
                          levels, 1, unit_diameter(g))
    with pytest.raises(ValueError, match="not in skeleton"):
        sssp_on_overlay(state, 1)
    table = sssp_on_overlay(state, 0)
    assert approx_distance(state, table, 4) is INFINITE
    assert approx_eccentricity(state, [table]) == [INFINITE]
    assert approx_eccentricity(state, [table])[0] is INFINITE


def test_overlay_sssp_follows_reembedding():
    # a second embedding of one skeleton's tables is a new state that reads
    # its own overlay; the first state, its overlay and its probes are left
    # as they were, and no field of either can be reassigned
    g = random_connected_graph(12, max_weight=10, rng=random.Random(8))
    net, members = Network(g), [1, 4, 6, 9]
    d_g = unit_diameter(g)
    levels = LevelTables(g, 6, Fraction(1, 5))
    build_skeleton_state(net, members, levels)
    first = embed_overlay(net, members, levels, 1, d_g)
    overlay = first.overlay_levels
    before = [list(sssp_on_overlay(first, s)) for s in members]
    values = approx_eccentricity(first, before)
    second = embed_overlay(net, members, levels, 2, d_g)
    assert second is not first and first.overlay_levels is overlay
    assert second.overlay_levels is not overlay
    assert second.overlay_levels.hops == Fraction(4 * len(members), 2)
    assert first.overlay_levels.hops == Fraction(4 * len(members), 1)
    # the second state reads as one embedded only once, on fresh tables
    fresh_net, fresh_levels = Network(g), LevelTables(g, 6, Fraction(1, 5))
    build_skeleton_state(fresh_net, members, fresh_levels)
    fresh = embed_overlay(fresh_net, members, fresh_levels, 2, d_g)
    assert [sssp_on_overlay(second, s) for s in members] == \
        [sssp_on_overlay(fresh, s) for s in members] != before
    assert [sssp_on_overlay(first, s) for s in members] == before
    assert approx_eccentricity(first, before) == values
    for name in ("members", "levels", "overlay_levels"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(first, name, getattr(second, name))
    assert first.overlay_levels is overlay


def test_eccentricity_rows_follow_reembedding():
    # each state scales the hop rows to its own overlay's unit: k = 1 and
    # k = 2 give the overlay units 1/160 and 1/80 against the hop tables'
    # 1/60, so the rows' scale L/60 is 8 and 4
    g = random_connected_graph(12, max_weight=10, rng=random.Random(8))
    net, members = Network(g), [1, 4, 6, 9]
    d_g = unit_diameter(g)
    levels = LevelTables(g, 6, Fraction(1, 5))
    build_skeleton_state(net, members, levels)
    states = [embed_overlay(net, members, levels, k, d_g) for k in (1, 2)]
    scales = []
    for state in states:
        for s in members:
            table = sssp_on_overlay(state, s)
            assert approx_eccentricity(state, [table]) == [max(
                approx_distance(state, table, v) for v in range(g.n))]
        hop_unit, probe_unit = levels.unit, state.overlay_levels.unit
        denom = math.lcm(hop_unit.denominator, probe_unit.denominator)
        scales.append(hop_unit.numerator * denom // hop_unit.denominator)
    assert scales == [8, 4]


def test_reembedding_drops_the_previous_overlays_probes():
    # the k = 1 probe of 0 reads 83/3 and stays so after the k = 6
    # embedding, whose own probe of 0 reads 28
    g = random_connected_graph(6, max_weight=20, rng=random.Random(2))
    levels = LevelTables(g, 1, Fraction(1, 3))
    net = Network(g)
    members = build_skeleton_state(net, list(range(6)), levels)
    first = embed_overlay(net, members, levels, 1, unit_diameter(g))
    table = sssp_on_overlay(first, 0)
    assert approx_eccentricity(first, [table]) == [Fraction(83, 3)]
    second = embed_overlay(net, members, levels, 6, unit_diameter(g))
    assert sssp_on_overlay(second, 0) is not table
    assert approx_eccentricity(second, [sssp_on_overlay(second, 0)]) == [28]
    assert approx_eccentricity(first, [table]) == [Fraction(83, 3)]
