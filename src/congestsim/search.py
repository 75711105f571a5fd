"""Randomized extremum search over skeleton indices and sources.

The diameter/radius estimators sample n random skeleton sets, define
f(i) = extremum over skeleton sources s of the approximate eccentricity
computed through skeleton i's tables, and search for the extremum of f
by amplified random sampling — the classical, cost-accounted stand-in
for quantum maximum finding.

Charged rounds of a search are T0 + evaluations * T, where T0 is the
one-time setup and T the per-evaluation round cost (constant across
probes: the real protocol runs every probe in lockstep).  The estimators
charge the ledger exactly that: the BFS tree is the outer search's T0,
and the rounds by which the lockstep account exceeds the phases actually
run go to a final `lockstep` phase.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import Phase
from .graphs import INFINITE, diameter
from .toolkit import (
    LevelTables,
    build_skeleton_state,
    default_eps,
    embed_overlay,
    sssp_on_overlay,
    approx_eccentricity,
)

# Budget of an amplified search with success density rho is
# ceil(2 * ln(1/delta) / rho) evaluations; SEARCH_COST_CONSTANT is the
# single global constant C with evaluations <= C * sqrt(log(1/delta) /
# rho_measured) for every configuration this package exercises.
SEARCH_COST_CONSTANT = 60

DEFAULT_DELTA = Fraction(1, 12)


class LowConfidenceResult(RuntimeError):
    """Every probe of the search hit an empty/degenerate candidate."""

    def __init__(self, trace):
        self.trace = trace
        super().__init__("search produced no usable value")


@dataclass
class ParameterSchedule:
    """The n- and diameter-driven knobs of one estimator run."""

    n: int
    unweighted_diameter: int
    eps: Fraction
    r: int          # expected skeleton size
    hops: int       # hop bound of the base distance tables
    k: int          # shortcut degree of the overlay

    @classmethod
    def for_graph(cls, g, eps_floor=None):
        n = g.n
        d = diameter(g.unit_weights())
        eps = default_eps(n)
        if eps_floor is not None:
            floor = Fraction(eps_floor).limit_denominator(10 ** 6)
            if eps < floor:
                eps = floor
        r = min(n, max(1, math.ceil(n ** 0.4 * max(1, d) ** -0.2)))
        hops = min(n, max(1, math.ceil(n * math.log2(max(2, n)) / r)))
        k = max(1, math.ceil(math.sqrt(d)))
        return cls(n=n, unweighted_diameter=d, eps=eps, r=r, hops=hops, k=k)

    def to_dict(self):
        return {
            "n": self.n,
            "unweighted_diameter": self.unweighted_diameter,
            "eps": f"{self.eps.numerator}/{self.eps.denominator}",
            "r": self.r,
            "hops": self.hops,
            "k": self.k,
        }


@dataclass
class SearchTrace:
    """Record of one amplified search run."""

    mode: str = "max"
    rho: object = 1          # configured success density
    delta: object = DEFAULT_DELTA
    candidate_count: int = 0
    evaluations: int = 0
    setup_rounds: int = 0
    eval_rounds: int = 0     # worst single-evaluation cost observed
    charged_rounds: int = 0  # setup + evaluations * eval_rounds
    found: object = None
    value: object = None
    probes: list = field(default_factory=list)  # (candidate, value) sampled


def search_budget(rho, delta):
    """Evaluations of one amplified search: ceil(2 ln(1/delta) / rho)."""
    if not (0 < rho <= 1):
        raise ValueError(f"need 0 < rho <= 1: {rho}")
    if not (0 < delta < 1):
        raise ValueError(f"need 0 < delta < 1: {delta}")
    return max(1, math.ceil(2 * math.log(1 / delta) / rho))


def amplified_max_search(candidates, evaluate, rho, delta, rng, mode="max",
                         setup_rounds=0):
    """Evaluate search_budget(rho, delta) random candidates, keep the best.

    `evaluate(x)` returns (value, rounds); value None marks a degenerate
    probe that contributes cost but no value.  Raises LowConfidenceResult
    when every probe was degenerate.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min': {mode!r}")
    if not candidates:
        raise ValueError("no candidates to search over")
    budget = search_budget(rho, delta)
    trace = SearchTrace(mode=mode, rho=rho, delta=delta,
                        candidate_count=len(candidates),
                        setup_rounds=setup_rounds)
    better = (lambda a, b: a > b) if mode == "max" else (lambda a, b: a < b)
    for _ in range(budget):
        x = rng.choice(candidates)
        value, rounds = evaluate(x)
        trace.evaluations += 1
        trace.probes.append((x, value))
        if rounds > trace.eval_rounds:
            trace.eval_rounds = rounds
        if value is not None and (trace.value is None
                                  or better(value, trace.value)):
            trace.value = value
            trace.found = x
    trace.charged_rounds = trace.setup_rounds + trace.evaluations * trace.eval_rounds
    if trace.value is None:
        raise LowConfidenceResult(trace)
    return trace


def reference_search(candidates, evaluate, mode="max"):
    """Deterministic debug mode: evaluate every candidate, return the extremum.

    Upper-bounds (max) / lower-bounds (min) every stochastic trace's value.
    """
    best_x, best_v = None, None
    better = (lambda a, b: a > b) if mode == "max" else (lambda a, b: a < b)
    for x in candidates:
        value, _ = evaluate(x)
        if value is not None and (best_v is None or better(value, best_v)):
            best_x, best_v = x, value
    return best_x, best_v


def _memoized(network, memo, key, compute):
    """(compute(), rounds charged), computing once per key.

    A repeat returns the first result and replays the phases the first run
    appended to the ledger, with their names, rounds, messages and bits,
    and advances the round clock by the rounds it replays, so a memo hit
    costs what computing did and the clock stays the ledger's round count.
    """
    ledger = network.ledger
    mark = ledger.rounds
    if key not in memo:
        first = len(ledger.phases)
        memo[key] = compute(), ledger.phases[first:]
    else:
        for p in memo[key][1]:
            ledger.phases.append(Phase(p.name, p.rounds, p.messages, p.bits))
            ledger.rounds += p.rounds
            ledger.messages += p.messages
            ledger.bits += p.bits
        network.round_clock += ledger.rounds - mark
    return memo[key][0], ledger.rounds - mark


def evaluate_f_i(network, index, members, schedule, delta=DEFAULT_DELTA,
                 mode="max", trace_sink=None, cache=None):
    """f(i): extremum over skeleton sources s of the approximate
    eccentricity through skeleton i, with its full communication cost.

    Returns (value, rounds); value None when the skeleton is empty.
    Rounds = initialization (multi-source tables + overlay embedding,
    charged once) + inner amplified search over sources, each probe
    paying: collect the skeleton, announce s, overlay distances, local
    combine + convergecast.

    `cache` memoizes the tables and the probes across calls (None: within
    this call only); a repeat replays the phases its first run charged.
    It also holds the `LevelTables` every skeleton's tables are read from.
    """
    members = sorted(members)
    if not members:
        return None, 0
    d_g = network.unweighted_diameter()
    memo = {} if cache is None else cache

    def init():
        # one LevelTables per (hops, eps) serves every skeleton of the memo
        levels = ("levels", schedule.hops, schedule.eps)
        if levels not in memo:
            memo[levels] = LevelTables(network.graph, schedule.hops,
                                       schedule.eps)
        state = build_skeleton_state(network, index, members, schedule.hops,
                                     schedule.eps, memo[levels])
        return embed_overlay(network, state, schedule.k)

    state, init_rounds = _memoized(network, memo, ("init", index), init)

    if len(members) == 1:
        s = members[0]
        value = approx_eccentricity(state, s)
        extra = 2 * d_g + 1  # announce s + convergecast the eccentricity
        network.charge_rounds(extra, phase="eval")
        if trace_sink is not None:
            trace_sink.append(SearchTrace(
                mode=mode, rho=1, delta=delta, candidate_count=1,
                evaluations=1, setup_rounds=init_rounds, eval_rounds=extra,
                charged_rounds=init_rounds + extra, found=s, value=value,
                probes=[(s, value)]))
        return value, init_rounds + extra

    def probe(s):
        def run():
            # collect the skeleton at the prober, then announce s
            network.charge_rounds(d_g + len(members), phase="setup")
            network.charge_rounds(d_g, phase="setup")
            sssp_on_overlay(network, state, s)
            value = approx_eccentricity(state, s)
            network.charge_rounds(d_g, phase="eval")  # convergecast the extremum
            return value

        return _memoized(network, memo, ("probe", index, s), run)

    trace = amplified_max_search(
        members, probe, rho=Fraction(1, len(members)), delta=delta,
        rng=network.rng_for(network.leader), mode=mode,
        setup_rounds=init_rounds)
    if trace_sink is not None:
        trace_sink.append(trace)
    return trace.value, trace.charged_rounds


def _estimate(network, schedule, delta, rng, mode, trace_sink):
    if schedule is None:
        schedule = ParameterSchedule.for_graph(network.graph)
    if rng is None:
        rng = random.Random(network.seed)
    if network.n == 1:
        # a lone node is its own farthest and most central node: no messages
        trace = SearchTrace(mode=mode, delta=delta, candidate_count=1,
                            found=0, value=0)
    else:
        sets = network.sample_skeleton_sets(schedule.r, network.n)
        cache = {}

        def outer(i):
            return evaluate_f_i(network, i, sets[i], schedule, delta, mode=mode,
                                trace_sink=trace_sink, cache=cache)

        start = network.ledger.rounds
        network._require_tree()
        rho = Fraction(min(schedule.r, network.n), network.n)
        trace = amplified_max_search(list(range(network.n)), outer, rho=rho,
                                     delta=delta, rng=rng, mode=mode,
                                     setup_rounds=network.ledger.rounds - start)
        # every evaluation runs in lockstep at the costliest one's rounds
        network.charge_rounds(
            trace.charged_rounds - (network.ledger.rounds - start),
            phase="lockstep")
    if trace_sink is not None:
        trace_sink.append(trace)
    return trace.value, trace, network.ledger


def approx_diameter(network, schedule=None, delta=DEFAULT_DELTA, rng=None,
                    trace_sink=None):
    """Estimate the weighted diameter; never an overestimate beyond the
    (1+eps)^2 sandwich when the tables behave.

    Returns (estimate, outer SearchTrace, ledger).
    """
    return _estimate(network, schedule, delta, rng, "max", trace_sink)


def approx_radius(network, schedule=None, delta=DEFAULT_DELTA, rng=None,
                  trace_sink=None):
    return _estimate(network, schedule, delta, rng, "min", trace_sink)
