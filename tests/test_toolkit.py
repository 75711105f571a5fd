import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from congestsim.engine import Network
from congestsim.graphs import (
    INFINITE,
    WeightedGraph,
    exact_bounded_hop,
    exact_sssp,
    random_connected_graph,
    star_graph,
)
from congestsim.toolkit import (
    CongestionFailure,
    LevelTables,
    approx_distance,
    approx_eccentricity,
    bounded_distance_sssp,
    bounded_hop_mssp,
    bounded_hop_sssp,
    build_skeleton_state,
    default_eps,
    embed_overlay,
    hop_budget,
    rounded_weight,
    scale_levels,
    sssp_on_overlay,
    SkeletonState,
    MissingTableError,
)

from oracles import complete_overlay_distances


def path_graph(p):
    return WeightedGraph(p + 1, [(i, i + 1, 1) for i in range(p)])


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
        bounded_hop_mssp(net, [0, 1], hops, eps)
    with pytest.raises(ValueError) as sssp_error:
        bounded_hop_sssp(net, 0, hops, eps)
    assert str(mssp_error.value) == str(sssp_error.value)
    assert net.ledger.rounds == 0


def test_mssp_rejects_negative_retries():
    net = Network(path_graph(5))
    with pytest.raises(ValueError, match="retries"):
        bounded_hop_mssp(net, [0, 3], 3, Fraction(1, 2), retries=-1)
    assert net.ledger.rounds == 0 and net.ledger.phases == []


# --- multi-source pass ---------------------------------------------------


def test_mssp_single_source_equals_sssp():
    for seed in range(4):
        g = random_connected_graph(10, rng=random.Random(seed))
        eps = default_eps(g.n)
        single = bounded_hop_sssp(Network(g, seed=seed), 2, 3, eps)
        multi = bounded_hop_mssp(Network(g, seed=seed), [2], 3, eps)
        assert multi == {2: single}


def test_mssp_sandwich():
    for seed in range(4):
        g = random_connected_graph(12, rng=random.Random(40 + seed))
        eps = default_eps(g.n)
        sources = [0, 3, 7, 11]
        tables = bounded_hop_mssp(Network(g, seed=seed), sources, 4, eps)
        assert sorted(tables) == sources
        for s in sources:
            assert_hop_sandwich(g, s, tables[s], 4, eps)


def test_mssp_deterministic():
    g = random_connected_graph(12, rng=random.Random(8))
    eps = default_eps(g.n)
    runs = [bounded_hop_mssp(Network(g, seed=5), [0, 5, 9], 4, eps)
            for _ in range(2)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("seed", [49, 56])
def test_aborted_mssp_attempt_is_charged_to_its_phase(seed):
    # criterion-5 configurations whose only attempt congests
    g = random_connected_graph(16, max_weight=10, rng=random.Random(seed))
    net = Network(g, seed=seed)
    with pytest.raises(CongestionFailure):
        bounded_hop_mssp(net, list(range(16)), 16, Fraction(1, 4), retries=0)
    assert sum(p.rounds for p in net.ledger.phases) == net.ledger.rounds
    assert net.ledger.phases[-1].name == "mssp"
    assert net.ledger.phases[-1].rounds > net.ledger.rounds / 2


def _mssp_sequence(g, calls, hops, eps, shared):
    """Outcome, ledger and clock after each call, all on one Network."""
    net = Network(g, seed="sequence")
    levels = LevelTables(g, hops, eps) if shared else None
    outcomes = []
    for sources, retries in calls:
        try:
            result = bounded_hop_mssp(net, sources, hops, eps, retries=retries,
                                      levels=levels)
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


# --- overlay stages ------------------------------------------------------


def pipeline_state(g, members, hops, k, seed=0):
    net = Network(g, seed=seed)
    eps = default_eps(g.n)
    state = build_skeleton_state(net, 0, members, hops, eps)
    embed_overlay(net, state, k)
    return net, state


def test_embed_full_shortcutting():
    g = random_connected_graph(12, rng=random.Random(2))
    members = [0, 2, 4, 6, 8]
    net, state = pipeline_state(g, members, g.n, len(members) - 1)
    oracle = complete_overlay_distances(members, state.base_weight)
    for u in members:
        for v in members:
            if u != v:
                assert state.overlay_weight(u, v) == oracle[(u, v)]


def test_embed_no_shortcuts():
    g = random_connected_graph(10, rng=random.Random(3))
    net, state = pipeline_state(g, [1, 4, 7], 4, 0)
    assert state.shortcut == {}
    assert state.overlay_weight(1, 4) == state.base_weight(1, 4)


def test_embed_matches_sequential_oracle():
    for seed in range(5):
        g = random_connected_graph(14, rng=random.Random(60 + seed))
        members = sorted(random.Random(seed).sample(range(g.n), 6))
        net, state = pipeline_state(g, members, g.n, 2, seed=seed)
        oracle = complete_overlay_distances(members, state.base_weight)
        for (u, v), w in state.shortcut.items():
            assert w >= oracle[(u, v)]
        # equality on each node's k nearest (distance, id)-ordered targets
        for s in members:
            ranked = sorted((oracle[(s, v)], v) for v in members if v != s)
            for d, v in ranked[:2]:
                key = (min(s, v), max(s, v))
                assert state.shortcut.get(key, d) == d


def test_overlay_sssp_singleton():
    g = path_graph(4)
    net, state = pipeline_state(g, [2], 4, 1)
    assert sssp_on_overlay(net, state, 2) == {2: 0}


def test_overlay_sssp_large_k_close_to_exact():
    g = random_connected_graph(12, rng=random.Random(4))
    members = [0, 3, 5, 8, 11]
    net, state = pipeline_state(g, members, g.n, len(members))
    exact = complete_overlay_distances(members, state.overlay_weight)
    eps = state.eps
    for s in members:
        table = sssp_on_overlay(net, state, s)
        for v in members:
            assert exact[(s, v)] <= table[v] <= (1 + eps) * exact[(s, v)]


def test_overlay_sssp_rejects_foreign_source():
    g = path_graph(4)
    net, state = pipeline_state(g, [0, 2], 4, 1)
    with pytest.raises(ValueError):
        sssp_on_overlay(net, state, 3)


def test_overlay_probe_cost_constant():
    # every probe of one skeleton charges exactly the same round count
    g = random_connected_graph(14, rng=random.Random(6))
    members = [1, 4, 7, 10, 13]
    net, state = pipeline_state(g, members, 6, 2)
    costs = []
    for s in members:
        before = net.ledger.rounds
        sssp_on_overlay(net, state, s)
        costs.append(net.ledger.rounds - before)
    assert len(set(costs)) == 1


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_overlay_sssp_matches_level_enumeration(k):
    g = random_connected_graph(14, rng=random.Random(6))
    members = [1, 4, 7, 10, 13]
    net, state = pipeline_state(g, members, 6, k)
    eps = state.eps
    hop_bound = Fraction(4 * len(members), k) if k else len(members)
    budget = hop_budget(hop_bound, eps)
    # independent recomputation: exact Dijkstra per level on a graph of the
    # rounded overlay weights, nodes renumbered 0..|S|-1
    edges = [(i, j, state.overlay_weight(u, v))
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
        assert sssp_on_overlay(net, state, s) == best
    assert cut  # the distance budget cut some level short


def test_overlay_sssp_follows_reembedding():
    # the rounded overlay is kept on the state across probes; embedding
    # again with another k must rebuild it
    g = random_connected_graph(14, rng=random.Random(6))
    members = [1, 4, 7, 10, 13]
    net, state = pipeline_state(g, members, 6, 1)
    sssp_on_overlay(net, state, members[0])
    embed_overlay(net, state, 4)
    fresh_net, fresh = pipeline_state(g, members, 6, 4)
    assert [sssp_on_overlay(net, state, s) for s in members] == \
        [sssp_on_overlay(fresh_net, fresh, s) for s in members]


def test_overlay_sssp_of_a_state_never_embedded_is_k_zero():
    g = random_connected_graph(14, rng=random.Random(6))
    members = [1, 4, 7, 10, 13]
    net = Network(g)
    state = build_skeleton_state(net, 0, members, 6, default_eps(g.n))
    _, embedded = pipeline_state(g, members, 6, 0)
    assert state.hop_tables == embedded.hop_tables
    assert [sssp_on_overlay(net, state, s) for s in members] == \
        [sssp_on_overlay(net, embedded, s) for s in members]


def test_overlay_levels_span_the_skeleton_only():
    # the overlay is a graph on the |S| skeleton nodes, not on all n
    g = random_connected_graph(14, rng=random.Random(6))
    members = [1, 4, 7, 10, 13]
    for k in (0, 2):
        net, state = pipeline_state(g, members, 6, k)
        sssp_on_overlay(net, state, members[0])
        assert len(state.overlay_levels) > 1
        assert all(len(adj) == len(members) for adj in state.overlay_levels)


# --- combination ---------------------------------------------------------


def full_pipeline(g, seed=0):
    members = list(range(g.n))
    net, state = pipeline_state(g, members, max(1, g.n - 1),
                                max(1, g.n // 2), seed=seed)
    for s in members:
        sssp_on_overlay(net, state, s)
    return net, state


def test_approx_distance_self_is_zero():
    g = random_connected_graph(8, rng=random.Random(5))
    net, state = full_pipeline(g)
    for s in range(g.n):
        assert approx_distance(state, s, s) == 0


def test_approx_distance_full_skeleton_sandwich():
    for n, seed in ((8, 0), (10, 1), (12, 2)):
        g = random_connected_graph(n, rng=random.Random(seed))
        net, state = full_pipeline(g, seed=seed)
        slack = (1 + state.eps) ** 2
        for s in range(g.n):
            exact = exact_sssp(g, s)
            for v in range(g.n):
                assert exact[v] <= approx_distance(state, s, v) \
                    <= slack * exact[v]


def test_approx_distance_monotone_in_skeleton():
    g = random_connected_graph(10, rng=random.Random(9))
    net, state = full_pipeline(g)
    sub = [0, 2, 5, 8]
    restricted = SkeletonState(
        index=1, members=sub, hops=state.hops, eps=state.eps, k=state.k,
        hop_tables={u: state.hop_tables[u] for u in sub},
        overlay_tables={s: {u: state.overlay_tables[s][u] for u in sub}
                        for s in sub})
    for s in sub:
        for v in range(g.n):
            assert approx_distance(state, s, v) \
                <= approx_distance(restricted, s, v)


def test_approx_distance_missing_table():
    g = path_graph(3)
    net, state = pipeline_state(g, [0, 2], 3, 1)
    with pytest.raises(MissingTableError):
        approx_distance(state, 0, 1)


def test_approx_eccentricity():
    g = star_graph(6)
    net, state = full_pipeline(g)
    slack = (1 + state.eps) ** 2
    assert 1 <= approx_eccentricity(state, 0) <= slack
    for s in range(g.n):
        e = max(exact_sssp(g, s))
        assert e <= approx_eccentricity(state, s) <= slack * e


def test_approx_eccentricity_single_node():
    g = WeightedGraph(1, [])
    net = Network(g)
    state = build_skeleton_state(net, 0, [0], 1, Fraction(1, 2))
    assert approx_eccentricity(state, 0) == 0


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
    try:
        state = build_skeleton_state(net, 0, members, hops, eps)
    except CongestionFailure:
        reject()
    for k in sorted(data.draw(st.sets(st.integers(0, len(members) + 1),
                                      min_size=1, max_size=3))):
        embed_overlay(net, state, k)
        for s in members:
            sssp_on_overlay(net, state, s)
            assert approx_eccentricity(state, s) == max(
                approx_distance(state, s, v) for v in range(n))
    outside = [v for v in range(n) if v not in members]
    if outside:
        with pytest.raises(MissingTableError):
            approx_eccentricity(state, outside[0])


def test_eccentricity_of_a_state_built_by_hand():
    # no LevelTables: the same sums over its Fraction tables
    g = random_connected_graph(10, rng=random.Random(9))
    net, state = full_pipeline(g)
    sub = [0, 2, 5, 8]
    hop_tables = {u: state.hop_tables[u] for u in sub}
    restricted = SkeletonState(
        index=1, members=sub, hops=state.hops, eps=state.eps, k=state.k,
        hop_tables=hop_tables,
        overlay_tables={s: {u: state.overlay_tables[s][u] for u in sub}
                        for s in sub})
    for s in sub:
        assert approx_eccentricity(restricted, s) == max(
            approx_distance(restricted, s, v) for v in range(g.n))
    single = SkeletonState(index=2, members=[3], hops=state.hops,
                           eps=state.eps, hop_tables={3: state.hop_tables[3]})
    assert approx_eccentricity(single, 3) == max(state.hop_tables[3])
    unprobed = SkeletonState(index=3, members=sub, hops=state.hops,
                             eps=state.eps, hop_tables=hop_tables)
    with pytest.raises(MissingTableError, match="no overlay table"):
        approx_eccentricity(unprobed, 0)


def test_eccentricity_in_integer_units_keeps_infinite_and_missing_tables():
    # budget floor(3 * 1/2) = 1: one hop from each skeleton node
    net = Network(path_graph(4))
    state = build_skeleton_state(net, 0, [0, 2], Fraction(1, 2), Fraction(1))
    embed_overlay(net, state, 1)
    with pytest.raises(MissingTableError):
        approx_eccentricity(state, 0)  # no overlay table yet
    with pytest.raises(MissingTableError):
        approx_eccentricity(state, 1)  # not a skeleton node
    sssp_on_overlay(net, state, 0)
    assert approx_distance(state, 0, 4) is INFINITE
    assert approx_eccentricity(state, 0) is INFINITE
