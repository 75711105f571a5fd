import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestsim.engine import Network
from congestsim.graphs import (
    WeightedGraph,
    cycle_graph,
    diameter,
    radius,
    random_connected_graph,
    star_graph,
)
from congestsim.search import (
    DEFAULT_DELTA,
    LowConfidenceResult,
    ParameterSchedule,
    SEARCH_COST_CONSTANT,
    amplified_max_search,
    approx_diameter,
    approx_radius,
    evaluate_f_i,
    reference_search,
    search_budget,
)
from congestsim.toolkit import CongestionFailure


# The ledger's phase names; perfbench/workloads.py keys its records on them.
ESTIMATOR_PHASES = {"bfs-tree", "mssp-delays", "mssp", "embed", "setup",
                    "overlay-sssp", "eval", "lockstep"}


# --- parameter schedule --------------------------------------------------


def test_schedule_known_values():
    sch = ParameterSchedule.for_graph(star_graph(9))
    assert (sch.n, sch.unweighted_diameter) == (9, 2)
    assert (sch.r, sch.hops, sch.k) == (3, 9, 2)
    assert sch.eps == Fraction(1, 4)
    sch = ParameterSchedule.for_graph(cycle_graph(16))
    assert (sch.r, sch.hops, sch.k) == (2, 16, 3)
    assert sch.to_dict()["eps"] == "1/4"


def test_schedule_clamps():
    sch = ParameterSchedule.for_graph(WeightedGraph(2, [(0, 1, 9)]))
    assert 1 <= sch.r <= 2
    assert 1 <= sch.hops <= 2
    assert sch.k == 1
    lone = ParameterSchedule.for_graph(WeightedGraph(1, []))
    assert (lone.unweighted_diameter, lone.r, lone.hops, lone.k) == (0, 1, 1, 1)
    floored = ParameterSchedule.for_graph(cycle_graph(16), eps_floor=0.5)
    assert floored.eps == Fraction(1, 2)


def test_schedule_formulas():
    for seed in range(5):
        g = random_connected_graph(20 + seed, rng=random.Random(seed))
        sch = ParameterSchedule.for_graph(g)
        d = sch.unweighted_diameter
        assert sch.r == min(g.n, max(1, math.ceil(g.n ** 0.4 * d ** -0.2)))
        assert sch.hops == min(g.n, max(1, math.ceil(
            g.n * math.log2(g.n) / sch.r)))
        assert sch.k == math.ceil(math.sqrt(d))


# --- amplified search ----------------------------------------------------


def test_search_budget():
    assert search_budget(1, Fraction(1, 2)) == math.ceil(2 * math.log(2))
    assert search_budget(Fraction(1, 64), Fraction(1, 8)) == 267
    with pytest.raises(ValueError):
        search_budget(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        search_budget(1, 1)


def test_constant_function_runs_the_full_budget():
    trace = amplified_max_search(
        list(range(10)), lambda x: (7, 3), rho=1, delta=Fraction(1, 12),
        rng=random.Random(0))
    assert trace.evaluations == search_budget(1, Fraction(1, 12))
    assert trace.value == 7
    assert trace.charged_rounds == trace.setup_rounds + trace.evaluations * 3


def test_needle_in_64():
    # single marked element, rho=1/64, delta=1/8: empirical success >= 7/8
    # and every trace within the global evaluation-count bound
    bound = SEARCH_COST_CONSTANT * math.sqrt(64 * math.log(8))
    successes = 0
    for seed in range(500):
        trace = amplified_max_search(
            list(range(64)), lambda x: (int(x == 17), 5),
            rho=Fraction(1, 64), delta=Fraction(1, 8), rng=random.Random(seed))
        successes += trace.value == 1
        assert trace.evaluations <= bound
        assert trace.charged_rounds == trace.setup_rounds + \
            trace.evaluations * trace.eval_rounds
    assert successes >= 500 * 7 / 8


def test_linear_good_fraction():
    # Theta(r) good indices out of n: success rate >= 1 - delta empirically
    n, r, delta = 64, 8, Fraction(1, 12)
    good = set(range(0, n, n // r))
    successes = 0
    for seed in range(300):
        trace = amplified_max_search(
            list(range(n)), lambda x: (int(x in good), 1),
            rho=Fraction(r, n), delta=delta, rng=random.Random(seed))
        successes += trace.value == 1
    assert successes >= (1 - delta) * 300


def test_search_argument_validation():
    with pytest.raises(ValueError):
        amplified_max_search([], lambda x: (0, 0), rho=1,
                             delta=Fraction(1, 2), rng=random.Random(0))
    with pytest.raises(ValueError):
        amplified_max_search([1], lambda x: (0, 0), rho=1,
                             delta=Fraction(1, 2), rng=random.Random(0),
                             mode="median")


def test_all_degenerate_probes():
    with pytest.raises(LowConfidenceResult) as exc:
        amplified_max_search([1, 2], lambda x: (None, 4), rho=1,
                             delta=Fraction(1, 2), rng=random.Random(0))
    assert exc.value.trace.evaluations >= 1


def test_min_mode():
    values = {i: (i * 7) % 23 for i in range(23)}
    trace = amplified_max_search(
        list(range(23)), lambda x: (values[x], 1), rho=Fraction(1, 23),
        delta=Fraction(1, 100), rng=random.Random(1), mode="min")
    assert trace.value == min(values.values())


def test_reference_search():
    values = {i: (i * 13) % 31 for i in range(31)}
    found, best = reference_search(list(range(31)),
                                   lambda x: (values[x], 1))
    assert best == max(values.values()) and values[found] == best
    # upper-bounds every stochastic trace
    for seed in range(20):
        trace = amplified_max_search(
            list(range(31)), lambda x: (values[x], 1), rho=Fraction(1, 31),
            delta=Fraction(1, 4), rng=random.Random(seed))
        assert trace.value <= best


# --- f(i) evaluation -----------------------------------------------------


def test_evaluate_singleton_skeleton():
    g = random_connected_graph(10, rng=random.Random(3))
    net = Network(g, seed=3)
    sch = ParameterSchedule.for_graph(g)
    sink = []
    value, rounds = evaluate_f_i(net, 0, [4], sch, trace_sink=sink)
    assert len(sink) == 1 and sink[0].evaluations == 1
    assert sink[0].charged_rounds == rounds
    e = max(__import__("congestsim").exact_sssp(g, 4))
    assert e <= value <= (1 + sch.eps) ** 2 * e


def test_evaluate_full_skeleton_hits_diameter():
    g = random_connected_graph(12, rng=random.Random(6))
    net = Network(g, seed=6)
    sch = ParameterSchedule.for_graph(g)
    sch.hops = g.n  # deterministic regime
    sink = []
    value, rounds = evaluate_f_i(net, 0, list(range(g.n)), sch,
                                 trace_sink=sink)
    d = diameter(g)
    assert d <= value <= (1 + sch.eps) ** 2 * d
    trace = sink[0]
    assert trace.charged_rounds == trace.setup_rounds + \
        trace.evaluations * trace.eval_rounds == rounds


def test_evaluate_charges_ledger():
    g = random_connected_graph(10, rng=random.Random(7))
    net = Network(g, seed=7)
    net.build_bfs_tree()
    sch = ParameterSchedule.for_graph(g)
    before = net.ledger.rounds
    _, rounds = evaluate_f_i(net, 0, [0, 3, 6], sch)
    assert net.ledger.rounds - before == rounds


def test_evaluate_cache_recharges_identically():
    g = random_connected_graph(10, rng=random.Random(8))
    net = Network(g, seed=8)
    sch = ParameterSchedule.for_graph(g)
    cache = {}
    v1, r1 = evaluate_f_i(net, 0, [1, 4, 8], sch, cache=cache)
    v2, r2 = evaluate_f_i(net, 0, [1, 4, 8], sch, cache=cache)
    assert v1 == v2
    # same tables, maybe different inner sampling: setup cost identical
    assert ("init", 0) in cache


def test_evaluate_memo_replays_what_computing_charged():
    # two evaluations of one index, memo kept across them or not: the same
    # phases are charged and the clock ends in the same round; only
    # mssp-delays bits may differ, because a re-run draws fresh delays and
    # the pipeline sizes items by bit length
    g = random_connected_graph(12, rng=random.Random(0))
    sch = ParameterSchedule.for_graph(g)
    runs = []
    for cache in ({}, None):
        net = Network(g, seed=0)
        net.build_bfs_tree()
        mark = len(net.ledger.phases)
        rounds = [evaluate_f_i(net, 0, [1, 4, 8, 10], sch, cache=cache)[1]
                  for _ in range(2)]
        phases = net.ledger.phases[mark:]
        assert "bfs-tree" not in {p.name for p in phases}
        runs.append((rounds, [(p.name, p.rounds, p.messages) for p in phases],
                     [p.bits for p in phases if p.name != "mssp-delays"],
                     net.round_clock))
    assert runs[0] == runs[1]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_evaluate_memo_is_invisible_to_the_ledger(data):
    # the property behind the example above, over graphs, skeletons, hop
    # bounds and indices.  Without the memo, the second evaluation draws
    # fresh delays; an example whose second evaluation then ends its MSSP
    # attempts differently from its first (another count, abort round or
    # message count, or a CongestionFailure) is exempt
    n = data.draw(st.integers(2, 12))
    rng = random.Random(data.draw(st.integers(0, 99)))
    g = random_connected_graph(n, max_weight=data.draw(st.integers(1, 10)),
                               rng=rng)
    sch = dataclasses.replace(ParameterSchedule.for_graph(g),
                              hops=data.draw(st.integers(1, n)))
    members = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    index = data.draw(st.integers(0, 3))
    seed = data.draw(st.integers(0, 3))
    runs = []
    for cache in ({}, None):
        net = Network(g, seed=seed)
        net.build_bfs_tree()
        mark = len(net.ledger.phases)
        rounds, attempts = [], []
        for _ in range(2):
            start = len(net.ledger.phases)
            try:
                rounds.append(
                    evaluate_f_i(net, index, members, sch, cache=cache)[1])
            except CongestionFailure as failure:
                rounds.append(str(failure))
                attempts.append(None)
                break
            attempts.append([(p.rounds, p.messages)
                             for p in net.ledger.phases[start:]
                             if p.name == "mssp"])
        phases = net.ledger.phases[mark:]
        runs.append((rounds, [(p.name, p.rounds, p.messages) for p in phases],
                     [p.bits for p in phases if p.name != "mssp-delays"],
                     net.round_clock))
    # `attempts` is the memo-off run's (the loop's last), per evaluation
    if attempts == [attempts[0]] * 2 or attempts == [None]:
        assert runs[0] == runs[1]


def test_round_clock_is_the_ledger_round_count():
    # open-ended runs end in their last charged round, and a memo hit
    # advances the clock by the rounds it replays
    g = random_connected_graph(12, rng=random.Random(0))
    net = Network(g, seed=0)
    net.build_bfs_tree()
    assert net.round_clock == net.ledger.rounds
    net.broadcast_pipeline([1, 2, 3])
    assert net.round_clock == net.ledger.rounds
    net.convergecast_extremum(list(range(g.n)))
    assert net.round_clock == net.ledger.rounds
    for run in (approx_diameter, approx_radius):
        for seed in range(3):
            net = Network(g, seed=seed)
            run(net, rng=random.Random(seed))
            assert net.round_clock == net.ledger.rounds


def test_evaluate_empty_skeleton():
    g = random_connected_graph(8, rng=random.Random(9))
    net = Network(g, seed=9)
    sch = ParameterSchedule.for_graph(g)
    assert evaluate_f_i(net, 0, [], sch) == (None, 0)


# --- end-to-end estimators -----------------------------------------------


def test_single_edge_estimates():
    g = WeightedGraph(2, [(0, 1, 9)])
    for run in (approx_diameter, approx_radius):
        net = Network(g, seed=1)
        estimate, trace, ledger = run(net)
        eps = ParameterSchedule.for_graph(g).eps
        assert 9 <= estimate <= (1 + eps) ** 2 * 9
        assert ledger.rounds == trace.charged_rounds


def test_cycle_diameter():
    g = cycle_graph(16)
    eps = ParameterSchedule.for_graph(g).eps
    for seed in range(3):
        net = Network(g, seed=seed)
        estimate, _, _ = approx_diameter(net, rng=random.Random(seed))
        assert 8 <= estimate <= (1 + eps) ** 2 * 8


def test_star_radius():
    g = star_graph(8)
    eps = ParameterSchedule.for_graph(g).eps
    for seed in range(3):
        net = Network(g, seed=seed)
        estimate, _, _ = approx_radius(net, rng=random.Random(seed))
        assert 1 <= estimate <= (1 + eps) ** 2


def test_random_graph_estimates():
    for seed in range(3):
        g = random_connected_graph(14, rng=random.Random(20 + seed))
        d, r = diameter(g), radius(g)
        eps = ParameterSchedule.for_graph(g).eps
        slack = (1 + eps) ** 2
        net = Network(g, seed=seed)
        est, _, _ = approx_diameter(net, rng=random.Random(seed))
        assert d <= est <= slack * d
        net = Network(g, seed=seed)
        est, _, _ = approx_radius(net, rng=random.Random(seed))
        assert r <= est <= slack * r


@pytest.mark.parametrize("run", [approx_diameter, approx_radius])
def test_ledger_is_the_lockstep_account(run):
    for seed in range(3):
        g = random_connected_graph(14, rng=random.Random(40 + seed))
        net = Network(g, seed=seed)
        _, trace, ledger = run(net, rng=random.Random(seed))
        names = [p.name for p in ledger.phases]
        # the tree is the outer search's T0: built first, never replayed
        assert names.count("bfs-tree") == 1 and names[0] == "bfs-tree"
        assert trace.setup_rounds == ledger.phases[0].rounds
        assert names[-1] == "lockstep"
        assert set(names) == ESTIMATOR_PHASES
        assert ledger.rounds == trace.charged_rounds == sum(
            p.rounds for p in ledger.phases)


@pytest.mark.parametrize("g", [
    random_connected_graph(48, rng=random.Random(0)),
    random_connected_graph(48, rng=random.Random(1)),
    cycle_graph(48),
], ids=["random-0", "random-1", "cycle"])
def test_estimators_with_hops_below_n(g):
    # r = 12 makes the base tables hop-bounded: hops = 23 < n = 48
    sch = ParameterSchedule.for_graph(g)
    sch = dataclasses.replace(
        sch, r=12, hops=min(g.n, math.ceil(g.n * math.log2(g.n) / 12)))
    assert sch.hops == 23
    slack = (1 + sch.eps) ** 2
    for run, exact in ((approx_diameter, diameter(g)),
                       (approx_radius, radius(g))):
        estimate, _, _ = run(Network(g, seed=5), sch, rng=random.Random(5))
        assert exact <= estimate <= slack * exact


def test_estimator_determinism():
    g = random_connected_graph(12, rng=random.Random(30))
    results = []
    for _ in range(2):
        net = Network(g, seed=17)
        estimate, trace, ledger = approx_diameter(net,
                                                  rng=random.Random(17))
        results.append((estimate, trace.evaluations, ledger.to_json()))
    assert results[0] == results[1]
