"""The benchmark's workloads: inputs, oracle values, one operation, its check.

Each workload is a closed loop: one caller runs one operation at a time on
a single thread.  Inputs come only from the workload seed.  An operation
calls congestsim through module attributes looked up at call time
(``cs.search.approx_diameter``), so wrappers installed by ``spans.py`` see
every call.  ``execute`` is the timed part; ``summarize`` turns its outputs
into a record of exact values and checks them against the oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

MAX_WEIGHT = 10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str        # "approx" or "gadget"
    ops: int         # operations in one pass over the inputs
    shapes: tuple    # cycled per operation: (generator, n, quantity) or variant
    h: int = 0       # gadget height


WORKLOADS = {
    # Message-heavy: the engine's per-message path does most of the work;
    # drives the "max" mode of the search.
    "approx-dense": Workload(
        "approx-dense", "approx", 24,
        (("random-connected", 32, "diameter"),)),
    # Large hop diameter, few messages: the engine spends its time on wakes
    # and fast-forwarding, and the overlay stages weigh more; "min" mode.
    "approx-sparse": Workload(
        "approx-sparse", "approx", 50,
        (("cycle", 32, "radius"), ("grid", 36, "radius"))),
    # Exact Dijkstra and the gadget verifiers only; no engine, toolkit or
    # search.
    "gadget-verify": Workload(
        "gadget-verify", "gadget", 24, ("diameter", "radius"), h=4),
}


@dataclass
class ApproxInput:
    seed: str
    generator: str
    n: int
    quantity: str
    graph: object
    true: int


@dataclass
class GadgetInput:
    seed: str
    h: int
    variant: str
    x: tuple
    y: tuple
    F: int
    T: int


def make_inputs(cs, workload, seed):
    """Inputs and oracle values of one pass, a function of `seed` only."""
    if workload.kind == "approx":
        return [_approx_input(cs, workload, seed, i) for i in range(workload.ops)]
    return [_gadget_input(cs, workload, seed, i) for i in range(workload.ops)]


def _approx_input(cs, workload, seed, i):
    generator, n, quantity = workload.shapes[i % len(workload.shapes)]
    # Same per-trial seeding as `congestsim approx --seed <seed>`, trial i.
    trial_seed = f"{seed}:{i}"
    graph = cs.graphs.make_graph(generator, n, max_weight=MAX_WEIGHT,
                                 rng=random.Random(trial_seed))
    oracle = cs.graphs.diameter if quantity == "diameter" else cs.graphs.radius
    return ApproxInput(trial_seed, generator, n, quantity, graph, oracle(graph))


def _gadget_input(cs, workload, seed, i):
    variant = workload.shapes[i % len(workload.shapes)]
    h = workload.h
    rows, cols = 2 ** (3 * h // 2), 2 ** (3 * h // 2 - h)
    trial_seed = f"{seed}:{i}"
    rng = random.Random(trial_seed)
    x = [rng.randrange(2) for _ in range(rows * cols)]
    y = [rng.randrange(2) for _ in range(rows * cols)]
    # Uniform bits almost always give F = 0 and F' = 1; plant or clear
    # common ones so that both sides of the gap lemma are exercised.
    want = rng.randrange(2)
    if variant == "diameter":
        oracle = cs.gadgets.eval_F
        if want:
            for r in range(rows):
                row = range(r * cols, (r + 1) * cols)
                if not any(x[k] and y[k] for k in row):
                    k = r * cols + rng.randrange(cols)
                    x[k] = y[k] = 1
        else:
            r = rng.randrange(rows)
            for c in range(cols):
                y[r * cols + c] &= 1 - x[r * cols + c]
    else:
        oracle = cs.gadgets.eval_F_prime
        if want:
            k = rng.randrange(rows * cols)
            x[k] = y[k] = 1
        else:
            y = [b & (1 - a) for a, b in zip(x, y)]
    F = oracle(x, y, rows, cols)
    if F != want:
        raise AssertionError(f"gadget input {trial_seed}: F = {F}, wanted {want}")
    return GadgetInput(trial_seed, h, variant, tuple(x), tuple(y), F,
                       2 ** h // 2 - 1)


def execute(cs, inp):
    """The timed operation; returns its raw outputs."""
    if isinstance(inp, ApproxInput):
        schedule = cs.search.ParameterSchedule.for_graph(inp.graph)
        network = cs.engine.Network(inp.graph, seed=inp.seed)
        run = (cs.search.approx_diameter if inp.quantity == "diameter"
               else cs.search.approx_radius)
        sink = []
        try:
            estimate, trace, _ = run(network, schedule,
                                     rng=random.Random(inp.seed),
                                     trace_sink=sink)
            error = None
        except (cs.search.LowConfidenceResult,
                cs.toolkit.CongestionFailure) as exc:
            estimate, trace, error = None, None, type(exc).__name__
        return schedule, network, estimate, trace, sink, error
    inst = cs.gadgets.build_gadget(inp.h, inp.x, inp.y, variant=inp.variant)
    report = cs.gadgets.verify_reduction(inst)
    schedule = cs.gadgets.ownership_schedule(inst, inp.T)
    crossings, violations = cs.gadgets.validate_schedule(schedule)
    return report, schedule, crossings, violations


def summarize(inp, raw):
    """Exact record of one operation; record["ok"] is its output check."""
    if isinstance(inp, ApproxInput):
        return _approx_record(inp, *raw)
    return _gadget_record(inp, *raw)


def _approx_record(inp, schedule, network, estimate, trace, sink, error):
    ledger = network.ledger
    phase_rounds = {}
    for phase in ledger.phases:
        phase_rounds[phase.name] = phase_rounds.get(phase.name, 0) + phase.rounds
    slack = (1 + schedule.eps) ** 2
    ok = (error is None and estimate is not None
          and inp.true <= estimate <= slack * inp.true)
    return {
        "ok": ok,
        "error": error,
        "estimate": None if estimate is None else Fraction(estimate),
        "ratio": None if estimate is None else Fraction(estimate) / inp.true,
        "charged_rounds": trace.charged_rounds if trace is not None else 0,
        "evaluations": trace.evaluations if trace is not None else 0,
        "inner_probes": sum(t.evaluations for t in sink if t is not trace),
        "ledger_rounds": ledger.rounds,
        "messages": ledger.messages,
        "bits": ledger.bits,
        "phase_rounds": phase_rounds,
        "mssp_attempts": sum(1 for p in ledger.phases
                             if p.name == "mssp-delays"),
    }


def _gadget_record(inp, report, schedule, crossings, violations):
    ok = (report["pass"] and report["F"] == inp.F and not violations
          and max(crossings, default=0) <= 2 * inp.h)
    return {
        "ok": ok,
        "F": report["F"],
        "counterexamples": len(report["counterexamples"]),
        "table2_rows": report["table2_rows"],
        "D_or_R_exact": report["D_or_R_exact"],
        "contracted_exact": report["contracted_exact"],
        "schedule_rounds": schedule.rounds,
        "crossings": tuple(crossings),
        "violations": len(violations),
    }
