"""Acceptance gate: the ten headline checks, one pass/fail line each.

Criteria 3 and 4 share a single 50-graph end-to-end experiment (module
fixture) so the cost-model check runs over exactly the traces the
approximation check produced.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from congestsim.cli import EXIT_OK, main as cli_main
from congestsim.engine import Network
from congestsim.gadgets import (
    build_gadget,
    ownership_schedule,
    validate_schedule,
    verify_reduction,
)
from congestsim.graphs import (
    diameter,
    exact_sssp,
    hop_diameter,
    radius,
    random_connected_graph,
)
from congestsim.search import (
    LowConfidenceResult,
    ParameterSchedule,
    approx_diameter,
    approx_radius,
)
from congestsim.toolkit import (
    CongestionFailure,
    LevelTables,
    bounded_hop_mssp,
    build_skeleton_state,
    default_eps,
    embed_overlay,
    sssp_on_overlay,
)

from oracles import (
    SEARCH_COST_CONSTANT,
    approx_distance,
    bounded_distance_sssp,
    bounded_hop_sssp,
    exact_bounded_hop,
)


@pytest.fixture
def announce(capsys):
    def _announce(num, name, ok):
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    return _announce


def test_criterion_01_bounded_hop_sandwich(announce):
    start = time.monotonic()
    ok = True
    for t in range(100):
        rng = random.Random(t)
        n = rng.randrange(4, 17)
        g = random_connected_graph(n, max_weight=10, rng=rng)
        hops = rng.randrange(1, n + 1)
        eps = default_eps(n)
        s = rng.randrange(n)
        table = bounded_hop_sssp(Network(g, seed=t), s, hops, eps)
        exact = exact_sssp(g, s)
        bounded = exact_bounded_hop(g, s, hops)
        for v in range(n):
            if table[v] != float("inf") and not exact[v] <= table[v]:
                ok = False
            if bounded[v] != float("inf") and not table[v] <= (1 + eps) * bounded[v]:
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    announce(1, "bounded-hop sandwich (100 graphs, n<=16)", ok)
    assert ok, f"sandwich violated or too slow ({elapsed:.1f}s)"


def test_criterion_02_pipeline_sandwich(announce):
    ok = True
    for n, seed in ((8, 0), (12, 1), (16, 2)):
        g = random_connected_graph(n, max_weight=10, rng=random.Random(seed))
        net = Network(g, seed=seed)
        eps = default_eps(n)
        levels = LevelTables(g, n, eps)
        members = build_skeleton_state(net, range(n), levels)
        d_g = diameter(g.unit_weights())
        state = embed_overlay(net, members, levels, max(1, n // 3), d_g)
        slack = (1 + eps) ** 2
        for s in members:
            sssp_on_overlay(state, s)
            exact = exact_sssp(g, s)
            for v in range(n):
                d = approx_distance(
                    state, state.overlay_levels.source(s).units, v)
                if not exact[v] <= d <= slack * exact[v]:
                    ok = False
    announce(2, "full-skeleton pipeline sandwich (S=V, l>=n)", ok)
    assert ok


@pytest.fixture(scope="module")
def end_to_end():
    runs = []
    traces = []
    start = time.monotonic()
    rng = random.Random(20260823)
    for t in range(50):
        n = rng.randrange(12, 49)
        g = random_connected_graph(n, max_weight=10,
                                   rng=random.Random(1000 + t))
        schedule = ParameterSchedule.for_graph(g)
        slack = (1 + schedule.eps) ** 2
        for fn, oracle in ((approx_diameter, diameter),
                           (approx_radius, radius)):
            net = Network(g, seed=f"acc3:{t}")
            sink = []
            try:
                estimate, _, _ = fn(net, schedule,
                                    rng=random.Random(f"{t}:{fn.__name__}"),
                                    trace_sink=sink)
            except LowConfidenceResult:
                estimate = None
            true_value = oracle(g)
            success = (estimate is not None
                       and true_value <= estimate <= slack * true_value)
            runs.append(success)
            traces.extend(sink)
    return runs, traces, time.monotonic() - start


def test_criterion_03_end_to_end_approximation(announce, end_to_end):
    runs, _, elapsed = end_to_end
    rate = sum(runs) / len(runs)
    ok = rate >= 0.9 and elapsed < 600
    announce(3, f"end-to-end approximation (rate {rate:.2f}, "
                f"{elapsed:.0f}s)", ok)
    assert ok


def test_criterion_04_cost_model(announce, end_to_end):
    _, traces, _ = end_to_end
    ok = len(traces) > 0
    for trace in traces:
        if trace.charged_rounds != (trace.setup_rounds
                                    + trace.evaluations * trace.eval_rounds):
            ok = False
        good = {c for c, v in trace.probes if v is not None
                and (v >= trace.value if trace.mode == "max"
                     else v <= trace.value)}
        rho_measured = Fraction(max(1, len(good)), trace.candidate_count)
        bound = SEARCH_COST_CONSTANT * math.sqrt(
            math.log(1 / trace.delta) / rho_measured)
        if trace.evaluations > bound:
            ok = False
    announce(4, f"cost-model fidelity ({len(traces)} traces)", ok)
    assert ok


def test_criterion_05_round_exactness_and_failure_rate(announce):
    ok = True
    # distance-bounded pass: exactly budget+1 engine rounds, 20 instances
    for t in range(20):
        rng = random.Random(t)
        g = random_connected_graph(rng.randrange(4, 17), rng=rng)
        budget = rng.randrange(0, 40)
        net = Network(g, seed=t)
        before = net.round_clock
        bounded_distance_sssp(net, rng.randrange(g.n), budget)
        if net.round_clock - before != budget + 1:
            ok = False
    # superposed multi-source pass: first-attempt failures <= 5% of 200
    failures = 0
    for seed in range(200):
        g = random_connected_graph(16, max_weight=10,
                                   rng=random.Random(seed))
        net = Network(g, seed=seed)
        try:
            bounded_hop_mssp(net, list(range(16)),
                             LevelTables(g, 16, Fraction(1, 4)), retries=0)
        except CongestionFailure:
            failures += 1
    ok = ok and failures <= 10
    announce(5, f"round exactness + congestion rate {failures}/200", ok)
    assert ok


def test_criterion_06_shortcut_hop_diameter(announce):
    ok = True
    for t in range(50):
        rng = random.Random(t)
        n = rng.randrange(8, 25)
        g = random_connected_graph(n, rng=rng)
        size = rng.randrange(3, min(9, n))
        members = sorted(rng.sample(range(n), size))
        k = rng.randrange(1, 4)
        net = Network(g, seed=t)
        levels = LevelTables(g, n, default_eps(n))
        build_skeleton_state(net, members, levels)
        state = embed_overlay(net, members, levels, k,
                              diameter(g.unit_weights()))
        if not hop_diameter(state.overlay_levels.graph) < Fraction(4 * size, k):
            ok = False
    announce(6, "shortcut overlay hop diameter < 4|S|/k (50 instances)", ok)
    assert ok


def test_criterion_07_gadget_gap(announce):
    start = time.monotonic()
    ok = True

    def passes(inst):
        return verify_reduction(inst)["pass"]

    blocked = [1] * 16
    blocked[0] = blocked[1] = 0
    for variant in ("diameter", "radius"):
        if not passes(build_gadget(2, variant=variant)):
            ok = False
        if not passes(build_gadget(2, x=tuple(blocked), variant=variant)):
            ok = False
        for t in range(200):
            rng = random.Random(f"{variant}:{t}")
            x = tuple(rng.randint(0, 1) for _ in range(16))
            y = tuple(rng.randint(0, 1) for _ in range(16))
            if not passes(build_gadget(2, x=x, y=y, variant=variant)):
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    announce(7, f"gadget gap lemma (404 instances, {elapsed:.0f}s)", ok)
    assert ok


def test_criterion_08_table2(announce):
    ok = True
    for h in (2, 4):
        size = 2 ** (3 * h // 2) * 2 ** (3 * h // 2 - h)
        rng = random.Random(h)
        for x, y in (((1,) * size, (1,) * size),
                     (tuple(rng.randint(0, 1) for _ in range(size)),
                      tuple(rng.randint(0, 1) for _ in range(size)))):
            report = verify_reduction(build_gadget(h, x=x, y=y))
            fails = [c for c in report["counterexamples"]
                     if c["check"].startswith("table2-")]
            if report["table2_rows"] == 0 or fails:
                ok = False
    announce(8, "contracted-graph distance table (h=2,4)", ok)
    assert ok


def test_criterion_09_ownership_schedule(announce):
    start = time.monotonic()
    inst = build_gadget(6)
    top = 2 ** 6 // 2 - 1
    full = ownership_schedule(inst, top)
    crossings, violations = validate_schedule(full)
    ok = violations == [] and all(c <= 2 * inst.h for c in crossings)
    # schedules nest: the round-r owners are identical for every T >= r,
    # so validating the longest schedule covers every shorter prefix
    for t in range(top + 1):
        if ownership_schedule(inst, t).owners != full.owners[:t + 1]:
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    announce(9, f"ownership schedule, h=6, all T<32 ({elapsed:.0f}s)", ok)
    assert ok


def test_criterion_10_determinism(announce, tmp_path, capsys):
    commands = [
        ["approx", "diameter", "--gen", "random-connected", "--n", "14",
         "--trials", "2", "--seed", "41"],
        ["gadget", "verify", "--h", "2", "--input-seed", "8"],
        ["oracle", "--gen", "cycle", "--n", "10"],
    ]
    ok = True
    for c, args in enumerate(commands):
        outputs = []
        for rerun in range(2):
            path = tmp_path / f"{c}-{rerun}.json"
            if cli_main(args + ["--out", str(path)]) != EXIT_OK:
                ok = False
            outputs.append(path.read_bytes())
        if outputs[0] != outputs[1]:
            ok = False
    # library level: identical seeds reproduce the verification report
    reports = [json.dumps(verify_reduction(build_gadget(2)), sort_keys=True)
               for _ in range(2)]
    ok = ok and reports[0] == reports[1]
    announce(10, "byte-identical reports on identical seeds", ok)
    assert ok
