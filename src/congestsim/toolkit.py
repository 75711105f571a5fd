"""Bounded-hop shortest-path pipeline run on the CONGEST engine.

The pipeline, per skeleton set S:

1. multi-source bounded-hop distances from S (weight-rounded relaxation
   at geometric scale levels, superposed copies with random delays),
2. the complete overlay on S weighted by those distances,
3. the k-shortcut overlay (exact overlay distances to each node's k
   nearest overlay neighbors),
4. bounded-hop distances on the shortcut overlay from a chosen source,
5. node-local combination into approximate distances / eccentricities.

Step 1 is evaluated in closed form once its random delays are drawn and
charged the exact cost of its per-node programs, up to the round it aborts
in when an attempt congests; the message-level program is the reference in
`tests/oracles.py`.  Its rounded levels and each source's per-level passes
depend on neither the skeleton nor the delays, so a `LevelTables` computes
them once for all the skeletons of an estimator.  Step 4 is the same pass
on the overlay, a graph on the skeleton, read from the overlay's own
`LevelTables`.  Steps 2-4 are charged to the ledger by their communication
schedules (global broadcasts) without simulating each message.

All approximate distances are exact rationals (`fractions.Fraction`) so
the sandwich bounds can be asserted with zero tolerance.  The hop tables
are integers in their level unit too (in the `LevelTables`), and
`approx_eccentricity` adds and compares integers, scaling only its result.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import NodeProgram
from .graphs import INFINITE, WeightedGraph, dijkstra


class CongestionFailure(RuntimeError):
    """Too many superposed copies wanted the same channel in one round."""


class MissingTableError(LookupError):
    pass


def default_eps(n):
    """Approximation slack max(1/ceil(log2 n), 1/16), rational for exact arithmetic.

    The 1/16 floor keeps the level count meaningful below n = 2^16.
    """
    return Fraction(1, min(16, max(1, math.ceil(math.log2(max(2, n))))))


def hop_budget(hops, eps):
    """Distance budget of one bounded-distance pass: floor((1 + 2/eps) * hops)."""
    return math.floor((1 + 2 / eps) * Fraction(hops))


def scale_levels(n, max_weight, eps):
    """Largest level index: smallest i with 2^i >= 2*n*W/eps."""
    target = 2 * n * Fraction(max_weight) / eps
    i = 0
    while 2 ** i < target:
        i += 1
    return i


def rounded_weight(w, hops, eps, level):
    """Level-`level` rounded weight ceil(2*hops*w / (eps * 2^level)); always >= 1."""
    if isinstance(w, int) and isinstance(hops, int):
        num = 2 * hops * w * eps.denominator
        den = eps.numerator * 2 ** level
        return max(1, -(-num // den))
    return max(1, math.ceil(2 * Fraction(hops) * Fraction(w) / (eps * 2 ** level)))


def _check_hops_eps(hops, eps):
    if hops <= 0:
        raise ValueError(f"hop bound must be > 0: {hops}")
    if not (0 < eps <= 1):
        raise ValueError(f"need 0 < eps <= 1: {eps}")


class BoundedDistanceProgram(NodeProgram):
    """One node of the distance-bounded relaxation pass.

    A node broadcasts a 1-bit pulse exactly in the round where its
    distance d equals the local round index, so a pulse read in local
    round t carries d = t - 1; the pass takes budget+1 rounds total.
    """

    def __init__(self, node, source, budget, weights):
        self.node = node
        self.budget = budget
        self.weights = weights  # neighbor -> rounded weight
        self.dist = 0 if node == source else INFINITE
        self.halted = True  # driven purely by messages/wakes within the budget

    def on_round(self, ctx):
        t0 = ctx.round - ctx.local_round
        for u, _ in ctx.inbox:
            nd = ctx.local_round - 1 + self.weights[u]
            if nd <= self.budget and nd < self.dist:
                self.dist = nd
                if nd > ctx.local_round:
                    ctx.wake_at(t0 + nd)
        if self.dist == ctx.local_round:
            ctx.broadcast(1)


def bounded_distance_sssp(network, s, budget, adj=None):
    """Each node learns its distance from s if it is <= budget, else INFINITE.

    Consumes exactly budget+1 engine rounds, in a `bounded-distance`
    phase.  `adj` optionally gives the per-node adjacency lists [(u, w)]
    of rounded weights (defaults to the graph's own).
    """
    g = network.graph
    if budget < 0:
        raise ValueError(f"budget must be >= 0: {budget}")
    adj = g.adj if adj is None else adj
    programs = {v: BoundedDistanceProgram(v, s, budget, dict(adj[v]))
                for v in range(g.n)}
    with network.ledger.phase("bounded-distance"):
        network.run(programs, exact_rounds=budget + 1)
    return [programs[v].dist for v in range(g.n)]


def bounded_hop_sssp(network, s, hops, eps):
    """Approximate `hops`-bounded distances from s, via all scale levels.

    Each level is one `bounded_distance_sssp` pass.  Returns a per-node
    list of Fractions (INFINITE where no level stayed within budget).
    Guarantee: d <= result <= (1+eps) * d_hops.
    """
    levels = LevelTables(network.graph, hops, eps)
    per_level = [bounded_distance_sssp(network, s, levels.budget, adj=adj)
                 for adj in levels]
    return levels.scaled(s, list(map(_min_over_levels, zip(*per_level))))


def _min_over_levels(dists):
    """min over levels of d << level (INFINITE if no level reached the node).

    d << level is the level's distance in units of eps / (2*hops).
    """
    return min((d << level for level, d in enumerate(dists)
                if d is not INFINITE), default=INFINITE)


_Passes = namedtuple("_Passes", "keys sent units")


class LevelTables(list):
    """The rounded levels of one (graph, hops, eps), adj[level][v] =
    [(u, rounded weight)], and what each source's passes over them give.

    `source(s)` runs s's budget-bounded Dijkstra on every level once and
    keeps, as (keys, sent, units): the key (level*(budget+1) + d)*n + v of
    each finite entry, the messages the passes send (v's degree per
    entry), and `_min_over_levels` of each node's distances, in units of
    eps / (2*hops).  None of it depends on the skeleton or the delays, so
    an estimator shares one object across all its skeletons; the tables
    it hands out are shared too, and read-only.
    """

    def __init__(self, graph, hops, eps):
        _check_hops_eps(hops, eps)
        self.graph, self.hops, self.eps = graph, hops, eps
        self.budget = hop_budget(hops, eps)
        self.unit = eps / (2 * Fraction(hops))  # of the integer tables
        top = scale_levels(graph.n, graph.max_weight, eps)
        self.extend([[] for _ in range(graph.n)] for _ in range(top + 1))
        for u, v, w in graph.edges:
            x = w / self.unit  # level l: rounded_weight, ceil(x / 2^l)
            for level, adj in enumerate(self):
                rw = max(1, -(-x.numerator // (x.denominator << level)))
                adj[u].append((v, rw))
                adj[v].append((u, rw))
        self.degree = [len(nbrs) for nbrs in graph.adj]
        self._passes = {}  # s -> _Passes
        self._scaled = {}  # s -> (units, Fractions)

    def source(self, s):
        if s not in self._passes:
            n, span, degree = self.graph.n, self.budget + 1, self.degree
            # an int64 array: a list of these keys for every source took
            # peak RSS at n = 256 from 85 to 115 MB
            keys, sent, per_level = array("q"), 0, []
            for level, adj in enumerate(self):
                dist = dijkstra(adj, s, self.budget)
                per_level.append(dist)
                for v, d in enumerate(dist):
                    if d is not INFINITE:
                        keys.append((level * span + d) * n + v)
                        sent += degree[v]
            self._passes[s] = _Passes(
                keys, sent, list(map(_min_over_levels, zip(*per_level))))
        return self._passes[s]

    def scaled(self, s, units):
        """`units`, a table of s in units of eps/(2*hops), as Fractions;
        scaled once while s's table stays the same."""
        memo = self._scaled.get(s)
        if memo is None or memo[0] != units:
            memo = self._scaled[s] = units, [
                x if x is INFINITE else x * self.unit for x in units]
        return memo[1]


def _superposed_closed_form(graph, adj, sources, delays, budget, stretch):
    """Outcome (best, rounds, messages, bits, failure) of one superposed
    attempt, computed without sending its messages.

    `adj` is the attempt's `LevelTables`.  Each (copy, level) pass is a
    budget-bounded Dijkstra on the level's rounded weights, and a node
    broadcasts its final distance d once, in window delays[copy] +
    level*(budget+1) + d of `stretch` rounds, one broadcast per round in
    queue order.  So the attempt only counts the broadcasts owed at
    delays[copy]*n + key over each source's keys; best[copy] is the
    source's `_min_over_levels` table, and its messages are the source's.

    The attempt aborts (best None, failure the CongestionFailure) in the
    first round of the window of the smallest window*n + node owing more
    than `stretch` broadcasts.  By then it sent every broadcast due in an
    earlier window and, nodes acting in id order, the first in queue order
    of each lower-id node due in that window.  An entry is queued when the
    first message with its final distance arrives, one round after the
    predecessor's send in round window*stretch + queue position (ties to
    the lower sender id); a source queues its own d = 0 entries first.
    The abort path reruns the per-level Dijkstras it needs.
    """
    n = graph.n
    span = budget + 1
    owed = Counter()  # window * n + node -> broadcasts due
    best = []
    messages = bits = 0
    for copy, s in enumerate(sources):
        keys, sent, units = adj.source(s)
        owed.update(map((delays[copy] * n).__add__, keys))
        best.append(units)
        messages += sent
        bits += sent * max(1, copy.bit_length())
    if max(owed.values()) <= stretch:
        windows = len(adj) * span + len(sources) * stretch + 1
        return best, windows * stretch, messages, bits, None

    degree = adj.degree
    jam = min(key for key, count in owed.items() if count > stretch)
    passes = [[dijkstra(level_adj, s, budget) for level_adj in adj]
              for s in sources]
    window, node = divmod(jam, n)
    due = {}  # window * n + node -> [(copy, level, d)], before the abort
    for copy, per_level in enumerate(passes):
        for level, dist in enumerate(per_level):
            base = delays[copy] + level * span
            for v, d in enumerate(dist):
                key = (base + d) * n + v  # INFINITE where v is unreached
                if key < jam:
                    due.setdefault(key, []).append((copy, level, d))
    sent_in = {}  # (copy, level, v) -> round v broadcast in that pass
    messages = bits = 0
    # predecessors are due in earlier windows, so their keys come first
    for key in sorted(due):
        w, v = divmod(key, n)
        queue = []
        for copy, level, d in due[key]:
            dist = passes[copy][level]
            # (round, sender) of the first message carrying d
            arrival = (0, -1) if d == 0 else min(
                (sent_in[copy, level, u] + 1, u)
                for u, weight in adj[level][v] if dist[u] + weight == d)
            queue.append((arrival, copy, level))
        queue.sort()
        for position, (_, copy, level) in enumerate(
                queue if w < window else queue[:1]):
            sent_in[copy, level, v] = w * stretch + position
            messages += degree[v]
            bits += degree[v] * max(1, copy.bit_length())
    failure = CongestionFailure(f"node {node}: {owed[jam]} broadcasts due "
                                f"in window {window} (limit {stretch})")
    return None, window * stretch, messages, bits, failure


def bounded_hop_mssp(network, sources, hops, eps, retries=3, levels=None):
    """Approximate hop-bounded distances from every s in `sources` at once.

    Superposes one delayed bounded-hop pass per source; on congestion the
    run is retried with fresh delays (up to `retries` times), and the last
    CongestionFailure is raised when every attempt congests.  Each attempt
    broadcasts its delays in an `mssp-delays` phase, is evaluated by
    `_superposed_closed_form` and is charged, in an `mssp` phase, what its
    per-node programs send up to its end or abort.
    `levels` is the `LevelTables` of (network.graph, hops, eps) to read
    each source's passes from (default: a fresh one); the delays are
    drawn and the rounds charged per call, so sharing one object across
    calls changes no table, charge or clock.
    Returns {s: per-node list of Fractions}.
    """
    g = network.graph
    _check_hops_eps(hops, eps)
    sources = sorted(set(sources))
    if not sources:
        raise ValueError("sources must be nonempty")
    if retries < 0:
        raise ValueError(f"retries must be >= 0: {retries}")
    if levels is None:
        levels = LevelTables(g, hops, eps)
    assert levels.graph is g and (levels.hops, levels.eps) == (hops, eps)
    b = len(sources)
    # per-window allowance ceil(log2 n), floored at 2: a copy owes at most
    # one broadcast per window, so two copies must never be able to jam
    stretch = max(2, math.ceil(math.log2(max(2, g.n))))
    network._require_tree()
    failure = None
    for _attempt in range(retries + 1):
        delays = [network.rng_for(network.leader).randint(0, b * stretch)
                  for _ in range(b)]
        # the pipeline rejects items wider than B bits, so every copy index
        # fits the bandwidth and the closed form needs no bandwidth check
        network.broadcast_pipeline(
            [(i, delays[i]) for i in range(b)], phase="mssp-delays")
        best, rounds, messages, bits, failure = _superposed_closed_form(
            g, levels, sources, delays, levels.budget, stretch)
        with network.ledger.phase("mssp"):
            network.charge_rounds(rounds)
            network.ledger.add_messages(messages, bits)
        if failure is None:
            return {s: levels.scaled(s, best[copy])
                    for copy, s in enumerate(sources)}
    raise failure


# --- overlay stages ------------------------------------------------------


@dataclass
class SkeletonState:
    """Per-index state of the skeleton pipeline."""

    index: int
    members: list                     # sorted skeleton node ids
    hops: object                      # hop bound used for the base tables
    eps: Fraction
    k: int = 0
    hop_tables: dict = field(default_factory=dict)   # s -> per-node list
    shortcut: dict = field(default_factory=dict)     # (u,v) -> weight
    overlay_tables: dict = field(default_factory=dict)  # s -> {u: value}
    # the LevelTables hop_tables were read from, whose integer tables
    # approx_eccentricity adds; None for a state built by hand, whose
    # Fraction hop tables approx_eccentricity then adds as they are
    levels: object = field(default=None, repr=False, compare=False)
    # the LevelTables of the overlay, a graph on members' indices 0..|S|-1;
    # independent of the probe source, so built by the first probe and
    # reset by `embed_overlay`
    overlay_levels: object = field(default=None, repr=False, compare=False)

    def overlay_weight(self, u, v):
        """Base overlay weight: the approximate bounded-hop distance u-v."""
        key = (min(u, v), max(u, v))
        if key in self.shortcut:
            return self.shortcut[key]
        return self.hop_tables[u][v]

    def base_weight(self, u, v):
        return self.hop_tables[u][v]


def build_skeleton_state(network, index, members, hops, eps, levels=None):
    """Skeleton `index` with its members' hop tables, from `bounded_hop_mssp`
    on `levels` (default: a fresh `LevelTables` of (graph, hops, eps))."""
    members = sorted(members)
    state = SkeletonState(index=index, members=members, hops=hops, eps=eps)
    if members:
        if levels is None:
            levels = LevelTables(network.graph, hops, eps)
        state.hop_tables = bounded_hop_mssp(network, members, hops, eps,
                                            levels=levels)
        state.levels = levels
    return state


def embed_overlay(network, state, k):
    """Populate the k-shortcut overlay: each skeleton node's k nearest
    overlay neighbors get exact overlay distances as direct edges.

    Every skeleton node announces its k cheapest incident overlay edges;
    shortest paths to a node's k nearest targets only use announced
    edges, so the exact distances are computable locally.  Charged to an
    `embed` phase: D_G + |S|*k rounds.
    """
    members = state.members
    state.k = k
    state.shortcut = {}
    state.overlay_levels = None
    if len(members) < 2 or k <= 0:
        network.charge_rounds(network.unweighted_diameter(), phase="embed")
        return state

    announced = {}
    for s in members:
        incident = sorted(
            (state.base_weight(s, v), v) for v in members
            if v != s and state.base_weight(s, v) is not INFINITE)
        for w, v in incident[:k]:
            key = (min(s, v), max(s, v))
            if key not in announced or w < announced[key]:
                announced[key] = w

    index = {u: i for i, u in enumerate(members)}
    adj = [[] for _ in members]
    for (u, v), w in announced.items():
        adj[index[u]].append((index[v], w))
        adj[index[v]].append((index[u], w))

    for i, s in enumerate(members):
        dist = dijkstra(adj, i)
        ranked = sorted((d, v) for v, d in zip(members, dist)
                        if v != s and d is not INFINITE)
        for d, v in ranked[:k]:
            key = (min(s, v), max(s, v))
            if key not in state.shortcut or d < state.shortcut[key]:
                state.shortcut[key] = d

    network.charge_rounds(network.unweighted_diameter() + len(members) * k,
                          phase="embed")
    return state


def sssp_on_overlay(network, state, s):
    """Bounded-hop distances from s on the shortcut overlay; every node
    learns the whole table (each overlay round is a global broadcast).

    Hop bound 4|S|/k (the shortcut overlay's hop diameter is below that),
    or |S| when k = 0.  The overlay is a `WeightedGraph` on the members'
    indices, whose `LevelTables` round and pass it as for the base graph.
    Returns {u: value} and stores it in state.overlay_tables[s].
    """
    members = state.members
    if s not in members:
        raise ValueError(f"source {s} not in skeleton {members}")
    if len(members) == 1:
        state.overlay_tables[s] = {s: 0}
        return state.overlay_tables[s]

    if state.overlay_levels is None:
        hop_bound = Fraction(4 * len(members), state.k) if state.k >= 1 \
            else Fraction(len(members))
        pairs = [(i, j, state.overlay_weight(u, v))
                 for i, u in enumerate(members)
                 for j, v in enumerate(members) if i < j]
        overlay = WeightedGraph(
            len(members), [e for e in pairs if e[2] is not INFINITE],
            check_connected=False)
        state.overlay_levels = LevelTables(overlay, hop_bound, state.eps)
    levels = state.overlay_levels
    i = members.index(s)
    best = dict(zip(members, levels.scaled(i, levels.source(i).units)))
    # per overlay round: count senders (D_G), broadcast (D_G + a); a is
    # charged at its bound |S| so every probe costs the same (lockstep)
    network.charge_rounds(len(levels) * (levels.budget + 1) * (
        2 * network.unweighted_diameter() + 1 + len(members)),
        phase="overlay-sssp")
    state.overlay_tables[s] = best
    return best


def approx_distance(state, s, v):
    """min over skeleton u of (overlay distance s->u) + (hop table u->v).

    Node-local: both summands already live in v's memory.  The definition
    `approx_eccentricity` computes in integer units.
    """
    if s not in state.overlay_tables:
        raise MissingTableError(f"no overlay table for source {s}")
    overlay = state.overlay_tables[s]
    best = INFINITE
    for u in state.members:
        a = overlay.get(u, INFINITE)
        b = state.hop_tables[u][v] if u in state.hop_tables else INFINITE
        if a is INFINITE or b is INFINITE:
            continue
        cand = a + b
        if best is INFINITE or cand < best:
            best = cand
    return best


def approx_eccentricity(state, s):
    """max over physical nodes v of approx_distance(state, s, v).

    Computed in integers: with the hop tables' unit e/f = eps/(2*hops) and
    L the least common multiple of f and the denominators of s's overlay
    entries, a hop entry a (in units e/f, from `state.levels`) plus an
    overlay entry p/q is a*e*(L/f) + p*(L/q) in units of 1/L, and only the
    result is scaled.  A state built by hand has no `levels`; its Fraction
    hop tables are taken in unit 1, and the same sums stay exact.
    """
    if s not in state.hop_tables:
        raise MissingTableError(f"no hop table for source {s}")
    if len(state.members) == 1:
        overlay = {s: 0}  # what sssp_on_overlay stores, without a probe
    elif s in state.overlay_tables:
        overlay = state.overlay_tables[s]
    else:
        raise MissingTableError(f"no overlay table for source {s}")
    levels = state.levels
    if levels is None:
        unit, tables = Fraction(1), state.hop_tables
    else:
        unit = levels.unit
        tables = {u: levels.source(u).units for u in state.hop_tables}
    finite = [(u, overlay[u]) for u in state.members
              if u in tables and overlay.get(u, INFINITE) is not INFINITE]
    denom = math.lcm(unit.denominator, *(b.denominator for _, b in finite))
    a_unit = unit.numerator * (denom // unit.denominator)
    rows = []
    for u, b in finite:
        offset = b.numerator * (denom // b.denominator)
        rows.append([a * a_unit + offset for a in tables[u]])
    top = max(map(min, zip(*rows)), default=INFINITE)
    return INFINITE if top == INFINITE else Fraction(top, denom)
