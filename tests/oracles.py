"""Independent brute-force oracles, used only by the test suite.

These deliberately avoid the package's own shortest-path code so the two
implementations cross-check each other.  `superposed_program` runs the
superposed multi-source pass message by message on the engine: it is the
reference for `toolkit._superposed_closed_form`, and combines each node's
levels by their minimum, `min_over_levels`.  A node sends the broadcasts
it owes in a window in copy order.  `tree_program` and
`pipeline_program` do the same for the closed forms of
`Network.build_bfs_tree` and `Network.broadcast_pipeline`, and return
what the closed forms do not: the tables each copy settles and the items
each node receives.
`unfiltered_closed_form` is the closed form that counts every copy's
congestion keys in full, the reference of the pigeonhole filter in
`_superposed_closed_form`, which counts later copies only on the keys
that can jam.
`exact_bounded_hop` is the Bellman-Ford hop-bounded distance, and
`bounded_hop_sssp` the message-level single-source pass, one
`bounded_distance_sssp` engine run per rounded level.  `rounded_weight`
is the rounding's definition and `eager_levels` every level's adjacency
lists by it, the one rounding reference: the reference programs read
their levels from it, never from a `LevelTables`, whose level format is
its own.  `shortcut_reference` computes
`toolkit.embed_overlay`'s shortcuts over Fraction hop tables, and
`approx_distance` the `Fraction` definition of one node's approximate
distance that `toolkit.approx_eccentricity` computes in integer units.
`reference_search` evaluates every candidate of an extremum search: the
reference of `search.amplified_max_search`.  `reference_validate_schedule`
checks an ownership schedule edge by edge, in both directions of every
edge: the reference of `gadgets.validate_schedule`'s bitmasks.  The
gadgets' index helpers
`adj_index` / `ind_index`, the ver/gdt promise functions and `edge_weight`
are the paper's definitions that only the tests read.  `eager_views`
builds a `WeightedGraph`'s `adj` from the edges as given, and its
`weight_masks` from that `adj`: the reference of the graph's views.
"""

import math
from collections import Counter
from fractions import Fraction

from congestsim.engine import (
    BandwidthExceeded,
    Network,
    NodeProgram,
    payload_bits,
)
from congestsim.gadgets import ALICE, BOB, SERVER, bin_bit
from congestsim.graphs import INFINITE, GraphError
from congestsim.toolkit import CongestionFailure, LevelTables, scale_levels

INF = float("inf")

# Budget of an amplified search with success density rho is
# ceil(2 * ln(1/delta) / rho) evaluations; SEARCH_COST_CONSTANT is the
# single global constant C with evaluations <= C * sqrt(log(1/delta) /
# rho_measured) for every configuration the tests exercise.
SEARCH_COST_CONSTANT = 60


def eager_views(node_count, edges):
    """(adj, weight_masks) of `WeightedGraph(node_count, edges)`: adjacency
    lists appended edge by edge in the given orientation, then each node's
    neighbours grouped by weight in adjacency order."""
    adj = [[] for _ in range(node_count)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    masks = []
    for nbrs in adj:
        groups = {}
        for v, w in nbrs:
            groups[w] = groups.get(w, 0) | 1 << v
        masks.append(list(groups.items()))
    return adj, masks


def all_pairs_relaxation(g):
    """Cubic all-pairs distances by repeated full-edge-set relaxation."""
    n = g.n
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v, w in g.edges:
        if w < dist[u][v]:
            dist[u][v] = dist[v][u] = w
    for _ in range(n):
        changed = False
        for s in range(n):
            row = dist[s]
            for u, v, w in g.edges:
                if row[u] + w < row[v]:
                    row[v] = row[u] + w
                    changed = True
                if row[v] + w < row[u]:
                    row[u] = row[v] + w
                    changed = True
        if not changed:
            break
    return dist


def three_hop_enumeration(g, s):
    """d^3(s, .) by explicitly walking every chain of at most 3 edges."""
    best = [INF] * g.n
    best[s] = 0
    for a, w1 in g.adj[s]:
        if w1 < best[a]:
            best[a] = w1
        for b, w2 in g.adj[a]:
            if w1 + w2 < best[b]:
                best[b] = w1 + w2
            for c, w3 in g.adj[b]:
                if w1 + w2 + w3 < best[c]:
                    best[c] = w1 + w2 + w3
    return best


def exact_bounded_hop(g, s, hops):
    """Least length over paths with at most `hops` edges (Bellman-Ford rounds)."""
    if hops < 0:
        raise GraphError(f"hop bound must be >= 0: {hops}")
    dist = [INFINITE] * g.n
    dist[s] = 0
    for _ in range(int(hops)):
        nxt = list(dist)
        changed = False
        for u, v, w in g.edges:
            if dist[u] + w < nxt[v]:
                nxt[v] = dist[u] + w
                changed = True
            if dist[v] + w < nxt[u]:
                nxt[u] = dist[v] + w
                changed = True
        dist = nxt
        if not changed:
            break
    return dist


def complete_overlay_distances(members, weight):
    """Floyd-Warshall over the complete overlay graph on `members`.

    `weight(u, v)` gives the direct overlay edge weight (may be INF).
    Returns {(u, v): distance} over ordered pairs.
    """
    dist = {(u, v): (0 if u == v else weight(u, v))
            for u in members for v in members}
    for m in members:
        for u in members:
            for v in members:
                via = dist[(u, m)] + dist[(m, v)]
                if via < dist[(u, v)]:
                    dist[(u, v)] = via
    return dist


def bfs_eccentricity(g, s):
    """Unweighted eccentricity by plain breadth-first search."""
    depth = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for v, _ in g.adj[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    return max(depth.values())


def shortcut_reference(members, k, table):
    """`toolkit.embed_overlay`'s shortcut entries over Fraction hop tables:
    `table(u)` is u's table as Fractions.  Each member announces its k
    cheapest overlay edges; the overlay distances over the announced
    edges (Floyd-Warshall) to each member's k nearest (distance, id)
    targets become the shortcuts.  Returns {(u, v): distance}, u < v.
    """
    announced = {}
    for s in members:
        row = table(s)
        incident = sorted((row[v], v) for v in members
                          if v != s and row[v] is not INFINITE)
        for w, v in incident[:k]:
            key = (min(s, v), max(s, v))
            if key not in announced or w < announced[key]:
                announced[key] = w
    dist = complete_overlay_distances(
        members, lambda u, v: announced.get((min(u, v), max(u, v)), INF))
    shortcut = {}
    for s in members:
        ranked = sorted((dist[(s, v)], v) for v in members
                        if v != s and dist[(s, v)] != INF)
        for d, v in ranked[:k]:
            key = (min(s, v), max(s, v))
            if key not in shortcut or d < shortcut[key]:
                shortcut[key] = d
    return shortcut


def rounded_weight(w, hops, eps, level):
    """Level-`level` rounded weight ceil(2*hops*w / (eps * 2^level)); always >= 1."""
    if isinstance(w, int) and isinstance(hops, int):
        num = 2 * hops * w * eps.denominator
        den = eps.numerator * 2 ** level
        return max(1, -(-num // den))
    return max(1, math.ceil(2 * Fraction(hops) * Fraction(w) / (eps * 2 ** level)))


def eager_levels(g, hops, eps, weight_unit=1):
    """Every level's adjacency lists [(u, rounded weight)] per node, on the
    weights w * weight_unit rounded by `rounded_weight`, in the graph's
    edge order."""
    levels = []
    for level in range(scale_levels(g.n, g.max_weight * weight_unit, eps) + 1):
        adj = [[] for _ in range(g.n)]
        for u, v, w in g.edges:
            rw = rounded_weight(w * weight_unit, hops, eps, level)
            adj[u].append((v, rw))
            adj[v].append((u, rw))
        levels.append(adj)
    return levels


def min_over_levels(dists):
    """min over levels of d << level (INFINITE if no level reached the node):
    one node's combined entry in units of eps / (2*hops), of which
    `LevelTables.source` keeps the lowest finite level's."""
    return min((d << level for level, d in enumerate(dists)
                if d is not INFINITE), default=INFINITE)


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
    network.run(programs, "bounded-distance", exact_rounds=budget + 1)
    return [programs[v].dist for v in range(g.n)]


def bounded_hop_sssp(network, s, hops, eps):
    """Approximate `hops`-bounded distances from s, via all scale levels.

    Each level of `eager_levels` is one `bounded_distance_sssp` pass, the
    budget and unit those of `LevelTables`, which checks hops and eps.
    Returns a per-node list of Fractions (INFINITE where no level stayed
    within budget).  Guarantee: d <= result <= (1+eps) * d_hops.
    """
    levels = LevelTables(network.graph, hops, eps)
    per_level = [bounded_distance_sssp(network, s, levels.budget, adj=adj)
                 for adj in eager_levels(network.graph, hops, eps)]
    return [x if x is INFINITE else x * levels.unit
            for x in map(min_over_levels, zip(*per_level))]


class _SuperposedProgram(NodeProgram):
    """Delayed superposition of per-source bounded-hop passes.

    Logical rounds are stretched into windows of `stretch` engine rounds;
    a node may owe at most `stretch` broadcasts per window, else the run
    fails with CongestionFailure.  It sends the broadcasts it owes in a
    window one per round, in increasing copy index (a copy owes at most
    one per window).  Copy and level of a message are inferred from its
    arrival window and the (globally known) delays.  An entry is always
    queued by the first round of its window (weights are at least 1), so
    a node holds all it owes in a window when the window starts; `_queue`
    asserts it.
    """

    def __init__(self, node, sources, delays, budget, levels, weights_by_level,
                 stretch):
        self.node = node
        self.sources = sources
        self.delays = delays
        self.budget = budget
        self.levels = levels
        self.weights_by_level = weights_by_level  # level -> {neighbor: w}
        self.stretch = stretch
        self.span = budget + 1  # windows per level
        self.dist = [[INFINITE] * levels for _ in sources]
        self.due = {}     # window -> list of (copy, level, dist when queued)
        self.outbox = []  # payloads still to send in the current window
        self.halted = True

    def _window_of(self, copy, level, d):
        return self.delays[copy] + level * self.span + d

    def _queue(self, ctx, copy, level, d, t0):
        window = self._window_of(copy, level, d)
        self.due.setdefault(window, []).append((copy, level, d))
        wake = t0 + window * self.stretch
        assert wake >= ctx.round, (
            f"node {self.node}: copy {copy} queued after its window began")
        if wake > ctx.round:
            ctx.wake_at(wake)
        # wake == current round: the end-of-round flush picks it up

    def _flush(self, ctx, t0):
        window = ctx.local_round // self.stretch
        entries = self.due.pop(window, None)
        if entries:
            for copy, level, d in sorted(entries):
                if self.dist[copy][level] == d:  # stale if improved since
                    self.outbox.append((copy, d))
            if len(self.outbox) > self.stretch:
                raise CongestionFailure(
                    f"node {self.node}: {len(self.outbox)} broadcasts due in "
                    f"window {window} (limit {self.stretch})")
        if self.outbox:
            copy, d = self.outbox.pop(0)
            # the arrival window plus the public delays determine (level, d),
            # so only the copy index needs to cross the channel
            ctx.broadcast((copy, d), bits=max(1, copy.bit_length()))
            if self.outbox:
                ctx.wake_at(ctx.round + 1)

    def on_round(self, ctx):
        t0 = ctx.round - ctx.local_round
        if ctx.local_round == 0:
            for copy, s in enumerate(self.sources):
                if s == self.node:
                    for level in range(self.levels):
                        self.dist[copy][level] = 0
                        self._queue(ctx, copy, level, 0, t0)
        for u, (copy, d_u) in ctx.inbox:
            sent_window = (ctx.local_round - 1) // self.stretch
            level = (sent_window - self.delays[copy]) // self.span
            nd = d_u + self.weights_by_level[level][u]
            if nd <= self.budget and nd < self.dist[copy][level]:
                self.dist[copy][level] = nd
                self._queue(ctx, copy, level, nd, t0)
        self._flush(ctx, t0)


def superposed_program(levels, sources, delays, stretch):
    """`_superposed_closed_form`'s outcome, by running the superposed
    program message by message on a fresh Network(levels.graph), over the
    `eager_levels` of the graph, hop bound and eps of `levels`, a base
    graph's tables (weight unit 1).

    Returns (rounds, messages, bits, failure, best): the closed form's
    four values, and best[copy] the table each node settled for the copy,
    in units of eps / (2*hops); best is None and failure the
    CongestionFailure when the run aborts.
    """
    graph, budget = levels.graph, levels.budget
    eager = eager_levels(graph, levels.hops, levels.eps)
    network = Network(graph)
    programs = {
        v: _SuperposedProgram(v, sources, delays, budget, len(eager),
                              [dict(level_adj[v]) for level_adj in eager],
                              stretch)
        for v in range(graph.n)
    }
    windows = len(eager) * (budget + 1) + len(sources) * stretch + 1
    ledger = network.ledger
    try:
        network.run(programs, "mssp", exact_rounds=windows * stretch)
    except CongestionFailure as failure:
        # aborted in the round being processed: the run charged what was
        # sent before it, and 0 rounds, so the clock is that round
        return network.round_clock, ledger.messages, ledger.bits, failure, None
    best = [[min_over_levels(programs[v].dist[copy]) for v in range(graph.n)]
            for copy in range(len(sources))]
    return network.round_clock, ledger.messages, ledger.bits, None, best


def unfiltered_closed_form(levels, sources, delays, stretch):
    """`_superposed_closed_form`'s (rounds, messages, bits, failure), with
    every copy's `levels.keys` counted in full on every key.

    A window counts each copy owing a broadcast at a key (window * n +
    node); the attempt aborts at the least key owed more than `stretch`
    times, in the first round of its window, having sent every broadcast
    of the windows before it and, in that round, the least copy of each
    key of the window below the jam.
    """
    n, degree = levels.graph.n, levels.degree
    owed = Counter()
    for copy, s in enumerate(sources):
        owed.update(key + delays[copy] * n for key in levels.keys(s))
    jams = [key for key, count in owed.items() if count > stretch]
    if not jams:
        messages = sum(levels.source(s).sent for s in sources)
        bits = sum(levels.source(s).sent * max(1, copy.bit_length())
                   for copy, s in enumerate(sources))
        windows = levels.windows + len(sources) * stretch + 1
        return windows * stretch, messages, bits, None
    jam = min(jams)
    window, node = divmod(jam, n)
    messages = bits = 0
    least = {}
    for copy, s in enumerate(sources):
        for key in sorted(key + delays[copy] * n for key in levels.keys(s)):
            if key < window * n:
                messages += degree[key % n]
                bits += degree[key % n] * max(1, copy.bit_length())
            elif key < jam and key not in least:
                least[key] = copy
    for key, copy in least.items():
        messages += degree[key % n]
        bits += degree[key % n] * max(1, copy.bit_length())
    failure = CongestionFailure(f"node {node}: {owed[jam]} broadcasts due "
                                f"in window {window} (limit {stretch})")
    return window * stretch, messages, bits, failure


class _PipelineProgram(NodeProgram):
    """Forward each item to the tree children one round after receiving it."""

    def __init__(self, node, root, children, items, total):
        self.node = node
        self.children = children
        self.total = total
        self.received = list(items) if items is not None else []
        self.queue = list(items) if items is not None else []
        self.halted = total == 0
        if node == root and total:
            self.halted = False

    def on_round(self, ctx):
        for _, payload in ctx.inbox:
            self.received.append(payload)
            self.queue.append(payload)
        if self.queue:
            item = self.queue.pop(0)
            for c in self.children:
                ctx.send(c, item)
            if self.queue:
                ctx.wake_at(ctx.round + 1)
        if len(self.received) == self.total and not self.queue:
            self.halted = True


class _TreeBuildProgram(NodeProgram):
    """OFFER the own depth to every neighbour once reached; ACCEPT the
    lowest (depth, id) offer first received."""

    OFFER, ACCEPT = 0, 1

    def __init__(self, node, root):
        self.node = node
        self.root = root
        self.parent = None
        self.depth = 0 if node == root else None
        self.halted = node != root  # non-root nodes idle until offered

    def on_round(self, ctx):
        if self.node == self.root and ctx.local_round == 0:
            ctx.broadcast((self.OFFER, 0))
            self.halted = True
            return
        if self.depth is None:
            offers = sorted((d, u) for u, (kind, d) in ctx.inbox
                            if kind == self.OFFER)
            if offers:
                d, u = offers[0]
                self.parent = u
                self.depth = d + 1
                ctx.send(u, (self.ACCEPT, 0))
                ctx.broadcast((self.OFFER, self.depth))
        self.halted = True


def tree_program(network):
    """`network.build_bfs_tree()`, by running the tree's per-node programs
    message by message on the engine; the cached tree when one exists."""
    if network.tree is not None:
        return network.tree
    n = network.n
    programs = {v: _TreeBuildProgram(v, network.leader) for v in range(n)}
    network.run(programs, "bfs-tree", max_rounds=2 * n + 2)
    network.tree = ([programs[v].parent for v in range(n)],
                    [programs[v].depth for v in range(n)])
    return network.tree


def tree_children(parent):
    """Each node's children, in increasing id, of the tree `parent`."""
    children = [[] for _ in parent]
    for v, up in enumerate(parent):
        if up is not None:
            children[up].append(v)
    return children


def pipeline_program(network, items, phase="broadcast"):
    """`network.broadcast_pipeline(items, phase)`, by running the pipeline
    message by message on the engine down the network's BFS tree.

    Returns the items each node received, {node: list}."""
    for it in items:
        if payload_bits(it) > network.bandwidth_bits:
            raise BandwidthExceeded(("item",), network.round_clock,
                                    payload_bits(it), network.bandwidth_bits)
    children = tree_children(network.build_bfs_tree()[0])
    programs = {v: _PipelineProgram(v, network.leader, children[v],
                                    list(items) if v == network.leader else None,
                                    len(items))
                for v in range(network.n)}
    network.run(programs, phase, max_rounds=network.n + len(items) + 2)
    return {v: programs[v].received for v in range(network.n)}


def approx_distance(state, table, v):
    """min over skeleton u of (overlay distance s->u) + (hop table u->v),
    for the probe `table` of s (`toolkit.sssp_on_overlay`), a Fraction."""
    hop_unit, probe_unit = state.levels.unit, state.overlay_levels.unit
    return min((a * probe_unit + b * hop_unit
                for u, a in zip(state.members, table) if a is not INFINITE
                and (b := state.levels.source(u).units[v]) is not INFINITE),
               default=INFINITE)


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


def reference_validate_schedule(schedule):
    """`gadgets.validate_schedule`'s checks, one directed edge at a time.

    An owner other than ALICE, BOB or SERVER makes its round report "node
    without an owner" once and belongs to no party.  Returns the same
    crossing counts and violation triples; only their order within a
    round may differ.
    """
    inst = schedule.instance
    g = inst.graph
    sides = (ALICE, BOB)
    tree_ids = {vid for name, vid in inst.node_id.items() if name[0] == "t"}
    violations = []
    crossings = []
    prev = None
    for r, owner in enumerate(schedule.owners):
        if any(o not in (ALICE, BOB, SERVER) for o in owner):
            violations.append((r, None, "node without an owner"))
        if prev is not None:
            for v in range(g.n):
                if (owner[v] in sides and prev[v] in sides
                        and prev[v] != owner[v]):
                    violations.append(
                        (r, v, "node handed directly between Alice and Bob"))
            count = 0
            for u, v, _ in g.edges:
                for a, b in ((u, v), (v, u)):
                    if (owner[a] in sides and prev[b] in sides
                            and prev[b] != owner[a]):
                        violations.append(
                            (r, (a, b),
                             "neighbor on the far side in the previous round"))
                    if (prev[a] == SERVER and owner[a] == SERVER
                            and prev[b] != SERVER):
                        count += 1
                        if a not in tree_ids:
                            violations.append(
                                (r, (b, a), "crossing at a non-tree node"))
            crossings.append(count)
            if count > 2 * inst.h:
                violations.append(
                    (r, None, f"{count} crossings > 2h = {2 * inst.h}"))
        prev = owner
    return crossings, violations


def edge_weight(g, u, v):
    """Weight of the edge u-v of `g`; GraphError if there is none."""
    for x, w in g.adj[u]:
        if x == v:
            return w
    raise GraphError(f"no edge between {u} and {v}")


# --- gadget index helpers and the ver/gdt promise functions -------------


def adj_index(i, j):
    """The integer whose (i-1)-expansion differs from i's in the j-th bit."""
    return ((i - 1) ^ (1 << j - 1)) + 1


def ind_index(i, j):
    """Smallest z with bin_bit(i, z) != bin_bit(j, z); requires i != j."""
    if i == j:
        raise ValueError("indices must differ")
    z = 1
    while bin_bit(i, z) == bin_bit(j, z):
        z += 1
    return z


def ver(x, y):
    """1 iff x + y is 0 or 1 modulo 4, for x, y in {0,1,2,3}."""
    if x not in (0, 1, 2, 3) or y not in (0, 1, 2, 3):
        raise ValueError(f"ver arguments must be in 0..3: {x}, {y}")
    return int((x + y) % 4 in (0, 1))


def gdt(x, y):
    """OR of the four pairwise ANDs, for x, y in {0,1}^4."""
    if len(x) != 4 or len(y) != 4:
        raise ValueError("gdt arguments must be 4-bit")
    return int(any(a and b for a, b in zip(x, y)))


VER_X_PROMISE = [(0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 0)]
VER_Y_PROMISE = [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]


def encode_ver_x(v):
    """Promise encoding of Alice's ver argument: 0011 rotated right v times."""
    return VER_X_PROMISE[v]


def encode_ver_y(v):
    """Promise encoding of Bob's ver argument: a single 1 at position 4-v."""
    return VER_Y_PROMISE[v]


def gdt_promise(x, y):
    """gdt restricted to the promise sets; must agree with ver there."""
    if tuple(x) not in VER_X_PROMISE:
        raise ValueError(f"x outside the promise set: {x}")
    if tuple(y) not in VER_Y_PROMISE:
        raise ValueError(f"y outside the promise set: {y}")
    return gdt(x, y)
