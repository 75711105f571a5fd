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

An evaluation's cost is a fixed function of its index: a repeat charges
the phases its first initialization charged, delays drawn once, and an
inner search charges its probes' block, T by one closed form, once per
draw, in one call.

Both searches are one policy, `amplified_max_search`: it makes every
draw first, has the evaluator value the draws as one batch, and keeps
the first draw holding the extremum.  The outer batch evaluates every
draw, repeats included, since f(i) varies with the inner search's draws.
One `SkeletonOracle` per estimator run builds each index's skeleton
once and values all its members then, in one `approx_eccentricity`
call: a probe's value is fixed per (index, source), so the inner batch
reads its draws from that table.  A search over one candidate evaluates
it once and draws nothing, so a one-member skeleton is a one-candidate
inner search.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .engine import Phase
from .graphs import INFINITE, DisconnectedGraphError, diameter
from .toolkit import (
    LevelTables,
    build_skeleton_state,
    default_eps,
    embed_overlay,
    sssp_on_overlay,
    approx_eccentricity,
)

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
    # the graph `for_graph` measured: an estimator refuses the schedule on
    # any other; None on a schedule built by hand
    graph: object = field(default=None, repr=False, compare=False)

    @classmethod
    def for_graph(cls, g, eps_floor=None):
        """The schedule of `g`, from n and its unweighted diameter D.

        This is the estimators' connectivity check: a `WeightedGraph` may
        be disconnected, and an infinite D raises `DisconnectedGraphError`
        with `g`'s components, so `approx_diameter` and `approx_radius`
        refuse such a graph before anything is charged.
        """
        if eps_floor is not None and not 0 < eps_floor <= 1:  # NaN fails too
            raise ValueError(f"eps_floor must be in (0, 1]: {eps_floor!r}")
        n = g.n
        d = diameter(g.unit_weights())
        if d == INFINITE:
            raise DisconnectedGraphError(g.components())
        eps = default_eps(n)
        if eps_floor is not None and eps < eps_floor:
            eps = Fraction(eps_floor)
        r = min(n, max(1, math.ceil(n ** 0.4 * max(1, d) ** -0.2)))
        hops = min(n, max(1, math.ceil(n * math.log2(max(2, n)) / r)))
        k = max(1, math.ceil(math.sqrt(d)))
        return cls(n=n, unweighted_diameter=d, eps=eps, r=r, hops=hops, k=k,
                   graph=g)

    def to_dict(self):
        # not asdict: it would deep-copy the graph
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.compare} | {
            "eps": f"{self.eps.numerator}/{self.eps.denominator}"}


@dataclass
class SearchTrace:
    """Record of one amplified search run."""

    mode: str = "max"
    rho: object = 1          # configured success density
    delta: object = DEFAULT_DELTA
    candidate_count: int = 0
    evaluations: int = 0
    setup_rounds: int = 0
    eval_rounds: int = 0     # T, the rounds the evaluator reports
    charged_rounds: int = 0  # setup + evaluations * eval_rounds
    found: object = None
    value: object = None
    probes: list = field(default_factory=list)  # (candidate, value) sampled


def _ratio(x):
    """x's integer ratio (numerator, denominator > 0); (0, 1) for a NaN,
    an infinity or a value without one, which every range check refuses."""
    try:
        return x.as_integer_ratio()
    except (AttributeError, ValueError, OverflowError):
        return 0, 1


def search_budget(rho, delta):
    """Evaluations of one amplified search: ceil(2 ln(1/delta) / rho).

    Computed from the integer ratios a/b of rho and p/q of delta, so no
    `Fraction` is built or compared: ln(1/delta) is ln q - ln p (1/delta
    may be beyond a float), and dividing by a / b divides by float(rho),
    the float a `Fraction` or float rho divides by.
    """
    (a, b), (p, q) = _ratio(rho), _ratio(delta)
    if not 0 < a <= b:
        raise ValueError(f"need 0 < rho <= 1: {rho}")
    if not 0 < p < q:
        raise ValueError(f"need 0 < delta < 1: {delta}")
    return max(1, math.ceil(2 * (math.log(q) - math.log(p)) / (a / b)))


def amplified_max_search(candidates, evaluate, rho, delta, rng, mode="max",
                         setup_rounds=0):
    """Draw search_budget(rho, delta) random candidates, value them in one
    batch, keep the best.  One candidate is valued once, with nothing
    drawn from `rng`.

    `evaluate(draws)` returns the draws' values in draw order and T, the
    rounds each evaluation is charged (the costliest one's: evaluations
    run in lockstep); a value None marks a degenerate probe that
    contributes cost but no value.  `found` is the first draw holding the
    extremum.  Raises LowConfidenceResult when every probe was degenerate.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min': {mode!r}")
    if not candidates:
        raise ValueError("no candidates to search over")
    budget = search_budget(rho, delta)  # checks rho and delta
    if len(candidates) == 1:  # its one evaluation finds it
        draws = candidates[:1]
    else:
        draws = [rng.choice(candidates) for _ in range(budget)]
    values, rounds = evaluate(draws)
    trace = SearchTrace(mode=mode, rho=rho, delta=delta,
                        candidate_count=len(candidates),
                        evaluations=len(draws), setup_rounds=setup_rounds,
                        eval_rounds=rounds,
                        charged_rounds=setup_rounds + len(draws) * rounds,
                        probes=list(zip(draws, values, strict=True)))
    # A candidate drawn again repeats its value object, so each object is
    # compared once; the dict keeps its first draw, and max and min keep
    # the first of equal values.
    usable = {id(v): v for v in values if v is not None}
    if not usable:
        raise LowConfidenceResult(trace)
    trace.value = (max if mode == "max" else min)(usable.values())
    trace.found = next(x for x, v in trace.probes if v is trace.value)
    return trace


class SkeletonOracle:
    """The value oracle of one estimator run over its skeleton sets.

    It holds the one base `LevelTables` every skeleton's tables are read
    from and each skeleton's distinct sorted `members[i]`.  `init(i)`
    builds and embeds skeleton i on its first call and returns its probe
    block, the frozen phases every probe of i costs; every call charges the
    phases the first one charged (`init_phases[i]`), the delays drawn once.
    The BFS tree is built before those phases, so it is charged once per
    network, never again by a repeat.
    The first call also values every member in one `approx_eccentricity`
    call, charging and drawing nothing, keeps the {member: value} table
    `member_values[i]` and drops the embedded state.  `sets` defaults to
    the network's own draw of n sets of expected size `schedule.r`.  A
    schedule for another graph size, or measured on another graph,
    raises ValueError before anything is drawn, and a hand-built one
    (`graph` None) on a disconnected graph `DisconnectedGraphError`.
    """

    def __init__(self, network, schedule, sets=None):
        if schedule.n != network.n:
            raise ValueError(f"a schedule for n={schedule.n} on n={network.n}")
        if schedule.graph not in (None, network.graph):
            raise ValueError("a schedule measured on another graph")
        # `for_graph` checked its graph's connectivity; a hand-built
        # schedule measured none
        if schedule.graph is None and len(
                parts := network.graph.components()) > 1:
            raise DisconnectedGraphError(parts)
        if sets is None:
            sets = network.sample_skeleton_sets(schedule.r, network.n)
        self.network, self.schedule = network, schedule
        self.members = [sorted(set(s)) for s in sets]
        self.levels = LevelTables(network.graph, schedule.hops, schedule.eps)
        # per initialized index: the phases its first init charged, its
        # probe block and the value of each member
        self.init_phases, self.blocks, self.member_values = {}, {}, {}

    def init(self, i):
        network = self.network
        if i in self.blocks:
            network.charge_block(self.init_phases[i])
            return self.blocks[i]
        d_g = self.schedule.unweighted_diameter
        network.build_bfs_tree()
        first = len(network.ledger.phases)
        members = build_skeleton_state(network, self.members[i], self.levels)
        state = embed_overlay(network, members, self.levels, self.schedule.k,
                              d_g)
        if len(members) == 1:
            # a lone member announces itself, convergecasts its eccentricity
            block = [Phase("eval", 2 * d_g + 1)]
        else:
            # per window of the overlay's levels: count senders (D_G),
            # broadcast (D_G + a); a is charged at its bound |S| so every
            # probe costs the same
            overlay_rounds = state.overlay_levels.windows * (
                2 * d_g + 1 + len(members))
            # collect the skeleton at the prober, announce s, overlay
            # distances, convergecast the extremum
            block = [Phase("setup", d_g + len(members)), Phase("setup", d_g),
                     Phase("overlay-sssp", overlay_rounds), Phase("eval", d_g)]
        self.member_values[i] = dict(zip(members, approx_eccentricity(
            state, [sssp_on_overlay(state, s) for s in members])))
        self.blocks[i] = block
        self.init_phases[i] = network.ledger.phases[first:]
        return block


def evaluate_f_i(oracle, index, delta=DEFAULT_DELTA, mode="max",
                 trace_sink=None):
    """f(i): extremum over skeleton sources s of the approximate
    eccentricity through skeleton i, with its full communication cost.

    Returns (value, rounds); value None when the skeleton is empty.
    Rounds = initialization (multi-source tables + overlay embedding,
    `oracle.init(index)`) + inner amplified search over sources, each probe
    paying: collect the skeleton, announce s, overlay distances, local
    combine + convergecast.  A lone member's probe pays only its announce
    and convergecast, and its search is the one draw of a one-candidate
    search.  A bad `delta` or `mode` raises ValueError before anything is
    charged or drawn.

    Every probe, first or repeat, costs the same frozen phases, so the
    inner search charges that one block once per draw, in one call after
    its last draw; nothing else charges in between.  The inner search is
    one `amplified_max_search` over the members, drawn on the leader's
    stream after the initialization's delays, whose batch is read from
    `oracle.member_values[index]`.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min': {mode!r}")
    search_budget(1, delta)  # checks delta
    members = oracle.members[index]
    if not members:
        return None, 0
    network, block = oracle.network, oracle.init(index)
    rounds, table = sum(p.rounds for p in block), oracle.member_values[index]
    trace = amplified_max_search(
        members, lambda draws: ([table[s] for s in draws], rounds),
        Fraction(1, len(members)), delta, network.rng_for(network.leader),
        mode, sum(p.rounds for p in oracle.init_phases[index]))
    network.charge_block(block, trace.evaluations)
    if trace_sink is not None:
        trace_sink.append(trace)
    return trace.value, trace.charged_rounds


def _estimate(network, schedule, delta, rng, mode, trace_sink):
    """The outer search over the n skeleton indices, its T0 the BFS tree.

    Drawing every index before evaluating one gives the records that
    evaluating each draw before the next would: the outer draws come from
    `rng`, never from the leader's stream (`rng_for(0)`) that feeds the
    skeleton MSSP delays and the inner draws.
    """
    if not 0 < delta < 1:  # checked here too: a lone node runs no search
        raise ValueError(f"need 0 < delta < 1: {delta}")
    if schedule is None:
        schedule = ParameterSchedule.for_graph(network.graph)
    if rng is None:
        rng = random.Random(network.seed)
    oracle = SkeletonOracle(network, schedule)  # checks the schedule
    if network.n == 1:
        # a lone node is its own farthest and most central node: no messages
        trace = SearchTrace(mode=mode, delta=delta, candidate_count=1,
                            found=0, value=0)
    else:
        def outer(draws):
            values, rounds = zip(*(evaluate_f_i(oracle, i, delta, mode,
                                                trace_sink) for i in draws))
            return values, max(rounds)

        start = network.ledger.rounds
        network.build_bfs_tree()
        rho = Fraction(schedule.r, network.n)
        trace = amplified_max_search(list(range(network.n)), outer, rho=rho,
                                     delta=delta, rng=rng, mode=mode,
                                     setup_rounds=network.ledger.rounds - start)
        # every evaluation runs in lockstep at the costliest one's rounds
        network.charge("lockstep",
                       trace.charged_rounds - (network.ledger.rounds - start))
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
