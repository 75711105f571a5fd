"""The closed-form superposed pass against the message-level reference.

`bounded_hop_mssp` evaluates every attempt, congested or not, with
`_superposed_closed_form`.  Patching the helper with
`oracles.superposed_program` runs every attempt message by message on the
engine instead, the reference.  Both must agree on the tables (or the
raised exception), the ledger and the round clock, and every table a
successful reference attempt settles must be its source's
`levels.source(s).units`, the tables `bounded_hop_mssp` returns.
"""

import math
import random
from fractions import Fraction

import pytest

import oracles
from congestsim import toolkit
from congestsim.engine import Network
from congestsim.graphs import random_connected_graph
from congestsim.search import (
    LowConfidenceResult,
    ParameterSchedule,
    approx_diameter,
    approx_radius,
)
from congestsim.toolkit import CongestionFailure, LevelTables, bounded_hop_mssp


def _mssp_outcome(g, seed, sources, hops, eps, retries):
    net = Network(g, seed=seed)
    try:
        result = bounded_hop_mssp(net, sources, LevelTables(g, hops, eps),
                                  retries=retries)
    except CongestionFailure as failure:
        result = ("CongestionFailure", str(failure))
    return result, net.ledger.to_dict(), net.round_clock


def _reference_attempt(levels, sources, delays, stretch):
    """The reference's cost and outcome of one attempt, after checking its
    tables against `levels` when it succeeds."""
    *outcome, best = oracles.superposed_program(levels, sources, delays,
                                                stretch)
    if best is not None:
        assert best == [levels.source(s).units for s in sources]
    return tuple(outcome)


def _compare(monkeypatch, run):
    """(closed-form outcome, reference outcome, which attempts congested)."""
    congested = []
    closed_form = toolkit._superposed_closed_form

    def recording(*args):
        outcome = closed_form(*args)
        congested.append(outcome[3] is not None)
        return outcome

    with monkeypatch.context() as m:
        m.setattr(toolkit, "_superposed_closed_form", recording)
        fast = run()
    with monkeypatch.context() as m:
        m.setattr(toolkit, "_superposed_closed_form", _reference_attempt)
        reference = run()
    return fast, reference, congested


def test_closed_form_matches_reference_on_criterion_05_configs(monkeypatch):
    # the 200 configurations of acceptance criterion 5
    congested = []
    for seed in range(200):
        g = random_connected_graph(16, max_weight=10, rng=random.Random(seed))
        fast, reference, seen = _compare(monkeypatch, lambda: _mssp_outcome(
            g, seed, list(range(16)), 16, Fraction(1, 4), retries=0))
        assert fast == reference, f"seed {seed}"
        congested += seen
    # both outcomes were exercised: attempts that congest and ones that do not
    assert any(congested) and not all(congested)


def test_closed_form_matches_reference_on_random_configs(monkeypatch):
    congested = []
    for seed in range(200):
        rng = random.Random(f"mssp-closed-form:{seed}")
        n = rng.randrange(4, 41)
        g = random_connected_graph(n, max_weight=rng.choice([1, 3, 10, 50]),
                                   rng=rng)
        sources = rng.sample(range(n), rng.randrange(1, n + 1))
        hops = rng.randrange(1, n + 1)
        if seed % 5 == 0:
            hops = Fraction(2 * hops + 1, 2)
        eps = Fraction(1, rng.randrange(1, 9))
        retries = rng.randrange(0, 3)
        fast, reference, seen = _compare(monkeypatch, lambda: _mssp_outcome(
            g, seed, sources, hops, eps, retries=retries))
        assert fast == reference, (
            f"seed {seed}: n={n} |S|={len(sources)} hops={hops} eps={eps}")
        congested += seen
    assert any(congested) and not all(congested)


def test_closed_form_tables_match_reference():
    # bounded_hop_mssp returns its sources' `levels.source(s).units` tables
    # and the closed form only the cost of an attempt, so the tables of the
    # message-level program are compared with them here, attempt by attempt
    outcomes = set()
    for seed in range(100):
        rng = random.Random(f"mssp-tables:{seed}")
        n = rng.randrange(2, 25)
        g = random_connected_graph(n, max_weight=rng.choice([1, 3, 10, 50]),
                                   rng=rng)
        sources = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        levels = LevelTables(g, rng.randrange(1, n + 1),
                             Fraction(1, rng.randrange(1, 9)))
        stretch = max(2, math.ceil(math.log2(n)))
        delays = [rng.randint(0, len(sources) * stretch) for _ in sources]
        args = (levels, sources, delays, stretch)
        fast = toolkit._superposed_closed_form(*args)
        reference = oracles.superposed_program(*args)
        assert fast[:3] == reference[:3], f"seed {seed}"
        assert str(fast[3]) == str(reference[3]), f"seed {seed}"
        # the reference settles tables exactly when it does not abort
        assert reference[4] == (None if reference[3] else [
            levels.source(s).units for s in sources]), f"seed {seed}"
        outcomes.add(fast[3] is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("estimator", [approx_diameter, approx_radius])
def test_closed_form_matches_reference_end_to_end(monkeypatch, estimator):
    for t in range(3):
        g = random_connected_graph(16 + 6 * t, max_weight=10,
                                   rng=random.Random(t))
        schedule = ParameterSchedule.for_graph(g)

        def run():
            net = Network(g, seed=f"closed-form:{t}")
            sink = []
            try:
                estimate, trace, _ = estimator(
                    net, schedule, rng=random.Random(t), trace_sink=sink)
            except LowConfidenceResult as low:
                estimate, trace = None, low.trace
            return (estimate, trace, sink, net.ledger.to_dict(),
                    net.round_clock)

        fast, reference, _ = _compare(monkeypatch, run)
        assert fast == reference, f"graph {t}"
