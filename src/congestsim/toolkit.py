"""Bounded-hop shortest-path pipeline on the CONGEST engine.

The pipeline, per skeleton set S:

1. multi-source bounded-hop distances from S (weight-rounded relaxation
   at geometric scale levels, superposed copies with random delays),
2. the complete overlay on S weighted by those distances,
3. the k-shortcut overlay (exact overlay distances to each node's k
   nearest overlay neighbors),
4. bounded-hop distances on the shortcut overlay from a chosen source,
5. node-local combination into approximate eccentricities.

Step 1 is evaluated in closed form once its random delays are drawn and
charged the exact cost of its per-node programs, up to the round it aborts
in when an attempt congests; the message-level program is the reference in
`tests/oracles.py`.  A node sends the broadcasts it owes in a window in
increasing copy index, one per round.  The random delays bound only how
many it owes per window, not their order, so the order moves no bound;
with this one an aborted attempt's cost is a sum over the congestion keys
it counted.  Weights are at least 1, so a node holds all it owes in a window
when the window starts: every earlier window sent all its broadcasts, and
in the aborting round each lower-id node sent its least copy (see
`_superposed_closed_form`).  Of b copies only keys owed more than
`stretch` times can jam, and by pigeonhole any b - stretch + 1 copies owe
each such key at least twice (at most stretch - 1 copies are left out),
so an attempt counts its first b - stretch + 1 copies on every key and
the later ones only on the keys those owe twice: every key that can jam
keeps its exact count.  The delays go out down the BFS tree through
`Network.broadcast_pipeline`, and the tree and the pipeline are charged in
closed form too (their references are in `tests/oracles.py`), so no
engine run is on the estimators' path.  Step 1's rounded levels and each
source's per-level passes depend on neither the skeleton nor the delays,
so a `LevelTables` computes them once for all the skeletons of an
estimator, in integers: a source's passes from the first level that
reaches past it up to the first that reaches every node, and every
level's only for the congestion keys of an attempt that counts them.
Every level's pass is c times a base pass, and `LevelTables` plans each
level's (base, c) once: a uniform level (all rounded weights one c,
every level of a unit-weight graph) takes c times one breadth-first hop
count; a non-uniform level l up to `scaled`, the highest level L such
that 2^L divides every edge's weight rounded up in the tables' unit,
takes 2^(L-l) times the Dijkstra on level L, since below L each rounding
is exact; a level above L takes its own Dijkstra.  That weight is
w * 2*hops/eps when that is an integer, so L is the top or at least the
2-adic valuation of 2*hops/eps: at n = 32 (hops 32, eps 1/5) levels 0-6
share one Dijkstra on level 6, at n = 256 levels 0-12 one on level 12.
A walk runs each base pass once, and the kernels hand back the order
they settled the nodes in, so a level's entries are the prefix of that
order whose c * d fits the budget.  A level's adjacency lists are
private to `LevelTables`, built on the first base pass that reads them,
and `LevelTables.windows`, a window per (level, distance), is the one
count of a pass's windows that the closed form and the overlay probe
block read.
Step 4 is the same pass on
the overlay, a graph on the skeleton whose own `LevelTables`
`embed_overlay` builds.
A skeleton is two stages: `build_skeleton_state` charges step 1 for its
members, and `embed_overlay` builds steps 2-3 and returns the one frozen
`SkeletonState` every probe reads.
Steps 2-4 are charged to the ledger by their communication schedules
(global broadcasts) without simulating each message, in terms of the hop
diameter `d_g` of the communication graph: `embed_overlay` charges steps
2-3, and `search.evaluate_f_i` charges step 4 on every probe, as the
block `search.SkeletonOracle.init` builds, so `sssp_on_overlay` only
reads.

All approximate distances are exact rationals (`fractions.Fraction`) so
the sandwich bounds can be asserted with zero tolerance.  Every table is
kept once, as integers in its `LevelTables`' unit: the hop tables in the
base graph's, the overlay weights (the overlay `LevelTables`' graph) in
that unit too, and each probe's table in the overlay's;
`approx_eccentricity` scales the hop tables to a unit common with the
probes once per call, for a list of probe tables.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from operator import add

from .graphs import INFINITE, WeightedGraph, bfs_hops, dijkstra


class CongestionFailure(RuntimeError):
    """Too many superposed copies wanted the same channel in one round."""


def default_eps(n):
    """Approximation slack max(1/ceil(log2 n), 1/16), rational for exact arithmetic.

    The 1/16 floor keeps the level count meaningful below n = 2^16.
    """
    return Fraction(1, min(16, max(1, math.ceil(math.log2(max(2, n))))))


def hop_budget(hops, eps):
    """Distance budget of one bounded-distance pass: floor((1 + 2/eps) * hops)."""
    (a, b), (c, d) = eps.as_integer_ratio(), hops.as_integer_ratio()
    return (a + 2 * b) * c // (a * d)


def scale_levels(n, max_weight, eps):
    """Largest level index: smallest i >= 0 with 2^i >= 2*n*W/eps."""
    (p, q), (a, b) = max_weight.as_integer_ratio(), eps.as_integer_ratio()
    # 2^i >= target iff 2^i >= ceil(target) iff 2^i > ceil(target) - 1
    return max(0, -(-2 * n * p * b // (q * a)) - 1).bit_length()


_Passes = namedtuple("_Passes", "sent units")


def _exact(x):
    """Whether x is an int (not a bool) or a Fraction."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _rounded(r, levels):
    """ceil(r / 2^level) for each of `levels` levels.  With r = ceil(x),
    for a weight x > 0 in units of eps / (2*hops), this is ceil(x / 2^level),
    the level's rounded weight, at least 1 (`oracles.rounded_weight`)."""
    return [-(-r >> level) for level in range(levels)]


class LevelTables:
    """The rounded levels of one (graph, hops, eps) and what each source's
    passes over them give.  The graph's weights are integers in
    `weight_unit` (an int or Fraction > 0; an overlay's is the hop tables'
    unit), and the hop bound is an int or Fraction > 0.  The constructor
    takes the budget, the top level and each edge's weight rounded up in
    `unit` from the integer ratios of eps, hops and weight_unit, and
    `first[v]`, the lowest level at which v's lightest edge fits the
    budget (None for a node without edges or a budget of 0).  `len(self)`
    is the number of levels, and `windows` the windows of a pass over all
    of them, one per (level, distance), so budget + 1 per level: the one
    definition of that count.

    Every level's pass is c times the pass of a base, and the constructor
    plans each level's (base, c) once.  `common[level]` is the one
    rounded weight c every edge of the level has, or None; rounding is
    monotone, so c is the rounding of both the lightest and the heaviest
    edge when the two agree (1 on a graph without edges).  `scaled` is the
    highest level L <= the top such that 2^L divides every edge's
    rounded-up weight x (the top on a graph without edges): at a level
    l <= L each ceil(x/2^l) is exactly x >> l, 2^(L-l) times level L's.
    So a level's (base, c) is
      (None, common[level]) on a uniform level: c times the hop counts of
      one breadth-first search (every level of a unit-weight graph);
      (L, 2^(L-level)) on a non-uniform level up to L; and
      (level, 1) on a non-uniform level above L.
    A base's pass is the breadth-first search or the Dijkstra on the base
    level bounded by the budget, exact within it, as (dist, order), order
    the nodes it reached in non-decreasing distance, the order the kernel
    settled them in.  A level's entries are the prefix of order with
    c * dist[v] <= budget, counted by bisection.  A level's format is
    private: `_level(l)` builds level l's adjacency lists, [(u, rounded
    weight)] per node, on their first read and keeps them, and only the
    base-pass reader `_read_base` reads them, so no uniform level is ever
    built, nor one above both `scaled` and the levels a walk takes.

    `source(s)` keeps, as (sent, units), the messages s's passes send
    (v's degree per finite entry) and each node's d << level at the
    lowest level that reaches it, in units of eps / (2*hops).  That is
    the minimum of d << level over the levels: 2*ceil(x/2^(l+1)) >=
    ceil(x/2^l) per edge, so twice a path's length at level l+1 is at
    least its length at level l, and every distance within the budget is
    exact.  The reached sets are nested: ceil(x/2^(l+1)) <= ceil(x/2^l),
    so a node's distance never rises with the level, and a node first
    reached at level f(v) is reached at every level from f(v) up.  So
    sent is the sum of degree[v] * (len(levels) - f(v)), and `source`
    stops after the first level that reaches every node (it takes every
    level when some node is never reached); it starts at first[s], since
    a pass below it reaches s alone.
    `keys(s)` is the int64 array of the keys (level*(budget+1) + c*d)*n + v
    of the finite entries of every level's pass, base distance d, in
    base-distance order within a level, which only an attempt that
    counts its broadcasts reads.  It is built once per source, in the
    walk over the levels that also fills `source(s)` if that is not kept
    yet.  None of it depends on the skeleton or the delays, so an
    estimator shares one object across all its skeletons; the tables it
    hands out are shared too, and read-only.
    """

    def __init__(self, graph, hops, eps, weight_unit=1):
        # inf, NaN, a str or a bool would fail later, or pass as a number
        if not (_exact(hops) and hops > 0):
            raise ValueError(f"hop bound must be an int or Fraction > 0: "
                             f"{hops!r}")
        # a float eps or unit would make the tables' unit a float, which
        # the integer tables cannot be exactly scaled by
        if not (_exact(eps) and 0 < eps <= 1):
            raise ValueError(f"need an int or Fraction 0 < eps <= 1: {eps!r}")
        if not (_exact(weight_unit) and weight_unit > 0):
            raise ValueError(f"weight unit must be an int or Fraction > 0: "
                             f"{weight_unit!r}")
        self.graph, self.hops, self.eps = graph, hops, eps
        self.budget = budget = hop_budget(hops, eps)
        (a, b), (c, d) = eps.as_integer_ratio(), hops.as_integer_ratio()
        self.unit = Fraction(a * d, 2 * b * c)  # eps / (2*hops), of the tables
        top = scale_levels(graph.n, graph.max_weight * weight_unit, eps)
        up, uq = weight_unit.as_integer_ratio()
        p, q = up * 2 * b * c, uq * a * d  # weight_unit / unit
        # ceil(x) per edge, x = w * p / q its weight in self.unit;
        # ceil(ceil(x) / 2^l) = ceil(x / 2^l): integers from here on
        self._ceils = [-(-w * p // q) for _, _, w in graph.edges]
        # v's lightest edge x fits the budget at l iff 2^l >= ceil(x/budget)
        self.first = [(-(-min(w for _, w in nbrs) * p // (q * budget)) - 1)
                      .bit_length() if nbrs and budget else None
                      for nbrs in graph.adj]
        self._adj = [None] * (top + 1)  # level -> adjacency, once read
        self.windows = (top + 1) * (budget + 1)
        g = math.gcd(*self._ceils)  # 0 without edges: every level divides
        scaled = min(top, (g & -g).bit_length() - 1) if g else top
        self.scaled = scaled
        self.common = [c if c == d else None for c, d in zip(
            _rounded(min(self._ceils, default=1), top + 1),
            _rounded(max(self._ceils, default=1), top + 1))]
        self._plan = [(None, c) if c else (scaled, 1 << (scaled - level))
                      if level <= scaled else (level, 1)
                      for level, c in enumerate(self.common)]
        self.degree = [len(nbrs) for nbrs in graph.adj]
        self._passes = {}  # s -> _Passes
        self._keys = {}  # s -> keys(s)

    def __len__(self):
        return len(self._adj)

    def _level(self, level):
        """The level's adjacency lists, built on the first read."""
        adj = self._adj[level]
        if adj is None:
            adj = self._adj[level] = [[] for _ in range(self.graph.n)]
            for (u, v, _), c in zip(self.graph.edges, self._ceils):
                rw = -(-c >> level)
                adj[u].append((v, rw))
                adj[v].append((u, rw))
        return adj

    def _read_base(self, s, base):
        """(dist, order) of s's pass on `base`: its breadth-first search
        when base is None, else its Dijkstra on level base."""
        return (bfs_hops(self.graph.adj, s) if base is None else
                dijkstra(self._level(base), s, self.budget))

    def source(self, s):
        if s not in self._passes:
            self._walk(s, None)
        return self._passes[s]

    def keys(self, s):
        if s not in self._keys:
            # an int64 array: a list of these keys for every source took
            # peak RSS at n = 256 from 85 to 115 MB
            self._keys[s] = self._walk(s, array("q"))
        return self._keys[s]

    def _walk(self, s, keys):
        """Walk s's levels up: into `source(s)` unless it is kept, and with
        an array `keys` every level's keys into it; returns it.  Below
        first[s] (every level when s has none) a pass reaches s alone, at
        0, so those levels take no pass.  Each base pass the walk reads is
        run once, on the first level that reads it."""
        n, top, degree = self.graph.n, len(self), self.degree
        budget, tables = self.budget, s not in self._passes
        low = top if self.first[s] is None else self.first[s]
        units = [INFINITE] * n
        units[s] = 0  # reached at level 0, so it sends at every level
        sent, unreached = degree[s] * top, n - 1
        if keys is not None:
            keys.fromlist([level * (budget + 1) * n + s
                           for level in range(low)])
        passes = {}  # base -> (dist, order) of s
        for level in range(low, top):
            base, c = self._plan[level]
            if base not in passes:
                passes[base] = self._read_base(s, base)
            dist, order = passes[base]
            # the nodes with c * dist[v] <= budget, a prefix of order
            count = bisect_right(order, budget // c, key=dist.__getitem__)
            if keys is not None:
                start, cn = level * (budget + 1) * n, c * n
                # fromlist: about twice as fast as extend from a list
                keys.fromlist([start + cn * dist[v] + v
                               for v in order[:count]])
            if tables and unreached:
                for v in order[:count]:
                    if units[v] is INFINITE:
                        units[v] = c * dist[v] << level
                        # v is reached at every level from here up
                        sent += degree[v] * (top - level)
                        unreached -= 1
            if keys is None and not unreached:
                break
        if tables:
            self._passes[s] = _Passes(sent, units)
        return keys


def _superposed_closed_form(levels, sources, delays, stretch):
    """Cost and outcome (rounds, messages, bits, failure) of one superposed
    attempt, computed without sending its messages.

    `levels` is the attempt's `LevelTables`.  Each (copy, level) pass is
    the source's pass on the level's rounded weights, and a node
    broadcasts its final distance d once, in window delays[copy] +
    level*(levels.budget+1) + d of `stretch` rounds.  It sends what it owes
    in a window one per round in increasing copy index (a copy owes at
    most one broadcast per window).  So the attempt only counts the
    broadcasts owed at the key delays[copy]*n + key over each source's
    `levels.keys`, and only with more copies than `stretch` (with no more,
    no window can be over it, and no key is built); a copy's messages are
    its source's `sent`, and its table, which the attempt does not return,
    is the source's `units`.  It runs for `levels.windows` windows after
    the largest delay, at most len(sources)*stretch, and one more; failure
    is None then.

    Only a key owed more than `stretch` times can jam, so of b copies
    the attempt counts the first b - stretch + 1 on every key, keeps the
    keys they owe at least twice, and counts the later copies only on
    the kept keys.  The argument holds for any b - stretch + 1 copies: a
    key owed more than `stretch` times is owed by at most stretch - 1
    copies outside them, so at least twice by them (pigeonhole).  So
    every key that can jam keeps its exact count, and the jam, its
    window, its count in the failure's message and the cost are those
    of counting every copy on every key (`oracles.unfiltered_closed_form`).
    A later copy's owed kept keys are found among its own keys by
    shifting the few kept keys back, not by shifting all of its keys.

    The attempt aborts (failure the CongestionFailure) in the
    first round of the window of the jam, the smallest key window*n + node
    owing more than `stretch` broadcasts; the counted keys give its cost
    exactly.  Weights are at least 1, so a broadcast's first message with
    its final distance arrives by the first round of its window: a node
    holds all it owes in a window when the window starts.  So every window
    before the jam's sends all its broadcasts, each of degree[v] messages
    of the copy's bit width.  In the jam's first round, nodes acting in id
    order, each node below `node` owing a broadcast there sends one, its
    least copy, and then `node` raises.
    """
    n = levels.graph.n
    # a copy owes at most one broadcast per key (d <= budget), so with no
    # more copies than `stretch` no key can be over it and none is counted
    counted = len(sources) > stretch
    # a key owed more than `stretch` times is owed at least twice by any
    # len(sources) - stretch + 1 copies: only those keys can jam
    full = len(sources) - stretch + 1  # copies counted on every key
    owed = Counter()  # window * n + node -> broadcasts due
    kept = []  # each counted copy's `levels.keys`
    messages = bits = 0
    for copy, s in enumerate(sources):
        if counted:  # first, so a new source's walk fills `source` too
            keys, shift = levels.keys(s), delays[copy] * n
            kept.append(keys)
            if copy < full:
                owed.update(map(add, keys, repeat(shift)))
            else:
                if copy == full:
                    owed = Counter({key: count for key, count in owed.items()
                                    if count > 1})
                # the kept keys this copy owes, found among its own keys
                # unshifted, so only the few kept keys are shifted
                owed.update(key + shift for key in {
                    key - shift for key in owed}.intersection(keys))
        sent = levels.source(s).sent
        messages += sent
        bits += sent * max(1, copy.bit_length())
    if not counted or max(owed.values(), default=0) <= stretch:
        windows = levels.windows + len(sources) * stretch + 1
        return windows * stretch, messages, bits, None

    degree = levels.degree
    jam = min(key for key, count in owed.items() if count > stretch)
    window, node = divmod(jam, n)
    least = {}  # key in the jam's window below it -> least copy owing it
    messages = bits = 0
    for copy, keys in enumerate(kept):
        sent = 0
        for key in map((delays[copy] * n).__add__, keys):
            if key < window * n:
                sent += degree[key % n]
            elif key < jam:
                least.setdefault(key, copy)
        messages += sent
        bits += sent * max(1, copy.bit_length())
    for key, copy in least.items():
        messages += degree[key % n]
        bits += degree[key % n] * max(1, copy.bit_length())
    failure = CongestionFailure(f"node {node}: {owed[jam]} broadcasts due "
                                f"in window {window} (limit {stretch})")
    return window * stretch, messages, bits, failure


def _skeleton(network, members, levels):
    """`members` distinct and sorted, once they are checked: `levels` of a
    graph other than network.graph, no members or a member outside
    0..n-1 raise ValueError, so a stage that calls this first charges
    nothing for them."""
    if levels.graph is not network.graph:
        raise ValueError("levels of another graph than the network's")
    members = sorted(set(members))
    if not (members and 0 <= members[0] and members[-1] < network.n):
        raise ValueError(f"a skeleton must be nonempty, in 0..{network.n - 1}")
    return members


def bounded_hop_mssp(network, sources, levels, retries=3):
    """Approximate hop-bounded distances from every s in `sources` at once,
    for the hop bound and eps of `levels`, the `LevelTables` of
    network.graph each source's passes are read from.

    Superposes one delayed bounded-hop pass per source; on congestion the
    run is retried with fresh delays (up to `retries` times), and the last
    CongestionFailure is raised when every attempt congests.  Each attempt
    broadcasts its delays in an `mssp-delays` phase, by the closed-form
    `Network.broadcast_pipeline`, is evaluated by `_superposed_closed_form`
    and is charged, in an `mssp` phase, what its per-node programs send
    up to its end or abort.  Neither runs the engine.  The delays are
    drawn and the rounds charged per call, so sharing one `levels`
    across calls changes no table, charge or clock.  The sources are a
    skeleton's members, checked by `_skeleton`, and retries < 0 raises
    ValueError, before anything is charged.
    Returns {s: levels.source(s).units} in increasing s, integer tables in
    `levels.unit`.
    """
    sources = _skeleton(network, sources, levels)
    if retries < 0:
        raise ValueError(f"retries must be >= 0: {retries}")
    b = len(sources)
    # per-window allowance ceil(log2 n), floored at 2: a copy owes at most
    # one broadcast per window, so two copies must never be able to jam
    stretch = max(2, math.ceil(math.log2(max(2, network.n))))
    network.build_bfs_tree()
    for _attempt in range(retries + 1):
        delays = [network.rng_for(network.leader).randint(0, b * stretch)
                  for _ in range(b)]
        # the pipeline rejects items wider than B bits, so every copy index
        # fits the bandwidth and the closed form needs no bandwidth check
        network.broadcast_pipeline(
            [(i, delays[i]) for i in range(b)], phase="mssp-delays")
        rounds, messages, bits, failure = _superposed_closed_form(
            levels, sources, delays, stretch)
        network.charge("mssp", rounds, messages, bits)
        if failure is None:
            return {s: levels.source(s).units for s in sources}
    raise failure


# --- overlay stages ------------------------------------------------------


@dataclass(frozen=True)
class SkeletonState:
    """One embedded skeleton, what its probes read; `embed_overlay` builds
    it.  Its hop bound, eps and hop tables (member u's is
    `levels.source(u).units`, integers in `levels.unit`) are those of
    `levels`; its overlay weights and probe tables (integers in
    `overlay_levels.unit`) those of `overlay_levels`."""

    members: list                     # sorted skeleton node ids
    # the LevelTables of the base graph the hop tables are read from
    levels: object = field(repr=False, compare=False)
    # the LevelTables of the overlay, a graph on members' indices 0..|S|-1
    overlay_levels: object = field(repr=False, compare=False)


def build_skeleton_state(network, members, levels):
    """A skeleton's distinct members, sorted; their hop tables are charged
    by one `bounded_hop_mssp` pass, which checks the members before it
    charges anything, and read from `levels`."""
    return list(bounded_hop_mssp(network, members, levels))


def _k_nearest(k, rows):
    """{(i, j): w}, i < j, over each row i's k nearest (w, j), j != i,
    keeping the least w of each pair."""
    pairs = {}
    for i, row in enumerate(rows):
        ranked = sorted((w, j) for j, w in enumerate(row)
                        if j != i and w is not INFINITE)
        for w, j in ranked[:k]:
            key = (min(i, j), max(i, j))
            pairs[key] = min(w, pairs.get(key, w))
    return pairs


def embed_overlay(network, members, levels, k, d_g):
    """The `SkeletonState` of the skeleton `members` on `levels`, with its
    k-shortcut overlay embedded.  The members are checked by `_skeleton`
    before anything is charged, and the state holds them distinct and
    sorted.

    Each skeleton node's k nearest overlay neighbors get exact overlay
    distances as direct edges: every member announces its k cheapest
    incident overlay edges, and shortest paths to a member's k nearest
    targets only use announced edges, so a Dijkstra over them gives the
    exact distances, integers in the hop tables' unit.  Charged to an
    `embed` phase: d_g + |S|*k rounds (d_g for k <= 0 or |S| < 2), d_g
    the hop diameter of the communication graph
    (`ParameterSchedule.unweighted_diameter`).

    The state's `overlay_levels` is the `LevelTables` of the overlay, a
    `WeightedGraph` on the members' indices (one node for a singleton)
    whose edges are the finite overlay weights, integers in `levels.unit`
    (its `weight_unit`): a pair's shortcut distance, else the hop table
    entry.  Its hop bound is 4|S|/k (the shortcut overlay's hop diameter
    is below that), or |S| when k <= 0.
    """
    members = _skeleton(network, members, levels)
    size = len(members)
    rows = [[levels.source(s).units[v] for v in members] for s in members]
    shortcuts, shortcut = size >= 2 and k >= 1, {}
    if shortcuts:
        adj = [[] for _ in members]
        for (i, j), w in _k_nearest(k, rows).items():
            adj[i].append((j, w))
            adj[j].append((i, w))
        shortcut = _k_nearest(k, [dijkstra(adj, i)[0] for i in range(size)])
    edges = [(i, j, w) for i, row in enumerate(rows)
             for j in range(i + 1, size)
             if (w := shortcut.get((i, j), row[j])) is not INFINITE]
    hop_bound = Fraction(4 * size, k) if k >= 1 else Fraction(size)
    overlay_levels = LevelTables(WeightedGraph(size, edges), hop_bound,
                                 levels.eps, weight_unit=levels.unit)
    network.charge("embed", d_g + size * k if shortcuts else d_g)
    return SkeletonState(members, levels, overlay_levels)


def sssp_on_overlay(state, s):
    """Bounded-hop distances from s on the shortcut overlay, the table
    every node learns (its rounds are in the probe block of
    `search.SkeletonOracle.init`, charged per draw by
    `search.evaluate_f_i`).

    Returns `state.overlay_levels.source(i).units` itself, s = members[i]:
    a read-only list of integers in `overlay_levels.unit` aligned with
    `state.members`.  Raises ValueError for a foreign source.
    """
    if s not in state.members:
        raise ValueError(f"source {s} not in skeleton {state.members}")
    return state.overlay_levels.source(state.members.index(s)).units


def approx_eccentricity(state, tables):
    """[max over physical nodes v of the min over skeleton u of (overlay
    distance s->u) + (hop table u->v), for each probe table of a source s
    in `tables`].  Node-local: both summands already live in v's memory.

    Computed in integers: with the hop tables' unit e/f, the probe
    tables' unit g/h and L = lcm(f, h), a hop entry a plus a probe entry
    b is a*e*(L/f) + b*g*(L/h) in units of 1/L.  A call scales the hop
    rows by e*(L/f) once; each table adds b*g*(L/h) to a row, takes the
    maximum over v of the rows' minimum, and divides only that by L.
    """
    hop_unit, probe_unit = state.levels.unit, state.overlay_levels.unit
    denom = math.lcm(hop_unit.denominator, probe_unit.denominator)
    a_unit, b_unit = int(hop_unit * denom), int(probe_unit * denom)
    rows = [[a * a_unit for a in state.levels.source(u).units]
            for u in state.members]

    def top(table):  # in units of 1/L
        # operator.add: int.__add__ of a float INFINITE is NotImplemented
        shifted = [map(add, row, repeat(b * b_unit))
                   for row, b in zip(rows, table) if b is not INFINITE]
        # map(min, row) would take each entry's min: one row is its own
        return max(map(min, *shifted) if len(shifted) > 1 else chain(*shifted),
                   default=INFINITE)

    return [INFINITE if t == INFINITE else Fraction(t, denom)
            for t in map(top, tables)]
