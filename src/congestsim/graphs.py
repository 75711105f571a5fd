"""Exact weighted-graph primitives: the ground truth everything else is tested against.

Graphs are undirected, with positive integer weights.
Unreachable / over-budget distances are the saturating sentinel
``INFINITE`` (``math.inf``).  A `WeightedGraph` stores one form, its
validated edge list `edges`, and builds nothing else when it is made;
its adjacency lists `adj` and its weight bitmasks `weight_masks` are
views of that list, each built on first read.  The gadget path
(construction, contraction, exact distances, schedule check) reads only
`weight_masks` and never builds `adj`: the h = 4 radius gadget and its
contraction would hold 11,868 and 10,784 adjacency tuples.  The
estimators read `adj`.

A graph may be disconnected; the exact oracles then give ``INFINITE``.
Connectivity is checked where a graph comes in: the graph readers
(`WeightedGraph.from_text`, `from_json_dict`, `from_file`) refuse a
disconnected graph with `DisconnectedGraphError`, and so does the
estimators' entry, `search.ParameterSchedule.for_graph` (or, for a
schedule built by hand, `search.SkeletonOracle`).  The check,
`WeightedGraph.components`, reads `edges` and builds no view.  The
generators here and `gadgets.build_gadget` are connected by
construction.

``diameter`` and ``radius`` are exact without a Dijkstra run from every
node.  A run from v with eccentricity e bounds each node's eccentricity
by the triangle inequality, max(d(v,w), e - d(v,w)) <= ecc(w) <=
e + d(v,w); a node whose bounds cannot beat the best value found so far
is dropped, and when none is left that value is the answer (Takes &
Kosters, "Determining the diameter of small world networks", CIKM 2011).
On the h = 4 lower-bound gadgets that is 158 runs of 447 nodes for the
diameter and 78 of 448 for the radius.

There are two shortest-path kernels, for two kinds of adjacency.
`exact_sssp(g, s)` is behind every exact oracle: `eccentricity`,
`diameter` and `radius`, the gadgets' all-pairs table of the contraction,
`congestsim oracle`, the estimators' hop diameter, and the min-hop rows
of `min_hops_on_shortest_paths` and `hop_diameter`.  It is bit-parallel:
each node's neighbours are grouped by weight into one int bitmask
(`WeightedGraph.weight_masks`), and one step settles every node at the
smallest pending distance and reaches each (node, weight) group with one
OR.  The gadgets have few weights per node (h = 4: 11868 adjacency
entries in 816 groups on the radius gadget, 10784 in 210 on its
contraction), so their all-pairs tables take a third of a heap's time on
the full graph and a seventh on the contraction.
`dijkstra(adj, s, bound)`, a heap over adjacency lists cut at a distance
bound, is the kernel of the overlay embedding and of the toolkit's
non-uniform rounded levels from `LevelTables.scaled` up (a level below
it reads level `scaled`'s pass): on the estimators' random-connected
graphs, 6 of the 12 non-uniform levels at n = 32 and 4 of 16 at
n = 256.  Few of a node's neighbours share a rounded weight there at
n = 32, but many do at n = 256; see its docstring.  It and `bfs_hops`
return the nodes they reached in the order they settled them with the
distances, nearest first, so a `LevelTables` level reads its entries as
a prefix of that order and sorts nothing.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import random

INFINITE = math.inf


class GraphError(ValueError):
    pass


class DisconnectedGraphError(GraphError):
    def __init__(self, components):
        self.components = components
        preview = ", ".join(str(sorted(c)) for c in components[:4])
        super().__init__(
            f"graph is disconnected ({len(components)} components): {preview}"
        )


def _check_node_count(n):
    if type(n) is not int:  # a bool too
        raise GraphError(f"node_count must be an int: {n!r}")
    if n < 1:
        raise GraphError(f"node_count must be >= 1: {n}")


def _check_edge_count(n, m):
    """A graph file's n nodes need n - 1 edges to be connected; refuse it
    before n adjacency lists are allocated for nothing."""
    _check_node_count(n)
    if m < n - 1:
        raise GraphError(f"{m} edges cannot connect {n} nodes "
                         f"(need at least {n - 1})")


def _check_weight(w):
    if type(w) is not int:  # a bool, float or Fraction too
        raise GraphError(f"edge weight must be a positive int: {w!r}")
    if w < 1:
        raise GraphError(f"edge weight must be >= 1: {w!r}")


class WeightedGraph:
    """Undirected graph with node ids 0..n-1 and weights >= 1.

    `edges` is the one stored form: the validated edges in input order,
    each as (u, v, w) with u < v.  Nothing else is built in `__init__`:
    `adj` and `weight_masks` are views of `edges`, each built on first
    read, so a graph holds only the views its readers use (the gadget
    path reads `weight_masks`, the estimators `adj`).  `__init__` does
    not check connectivity; the graph readers do.  A graph is not changed
    after `__init__`.
    """

    def __init__(self, node_count, edges):
        _check_node_count(node_count)
        self.n = node_count
        self.edges = kept = []
        seen = set()
        for edge in edges:
            try:
                u, v, w = edge
            except (TypeError, ValueError):  # not iterable, or not 3 long
                raise GraphError(
                    f"edge must be a (u, v, w) triple: {edge!r}") from None
            if type(u) is not int or type(v) is not int:
                raise GraphError(
                    f"edge endpoint must be an int: ({u!r},{v!r})")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise GraphError(f"edge ({u},{v}) out of range for n={node_count}")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if type(w) is not int or w < 1:
                _check_weight(w)
            # a tuple already in (u, v, w), u < v form is kept as it is
            if u > v:
                u, v = v, u
                edge = u, v, w
            elif type(edge) is not tuple:
                edge = u, v, w
            key = u * node_count + v
            if key in seen:
                raise GraphError(f"duplicate edge {(u, v)}")
            seen.add(key)
            kept.append(edge)

    @property
    def max_weight(self):
        return max((w for _, _, w in self.edges), default=1)

    @functools.cached_property
    def adj(self):
        """Per node, [(v, w)]: its neighbours in edge order."""
        adj = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    @functools.cached_property
    def weight_masks(self):
        """Per node, [(w, mask)]: its neighbours grouped by edge weight,
        each group one int bitmask (bit v for neighbour v), the groups in
        the order their first edge comes in `edges`."""
        groups = [{} for _ in range(self.n)]
        for u, v, w in self.edges:
            at = groups[u]
            at[w] = at.get(w, 0) | 1 << v
            at = groups[v]
            at[w] = at.get(w, 0) | 1 << u
        return [list(at.items()) for at in groups]

    def components(self):
        """The connected components, each in increasing node order, ordered
        by their least node; a search over each node's neighbour bitmask,
        ORed from `edges` and not kept, so the check builds no view."""
        neighbours = [0] * self.n
        for u, v, _ in self.edges:
            neighbours[u] |= 1 << v
            neighbours[v] |= 1 << u
        unseen = (1 << self.n) - 1
        comps = []
        while unseen:
            comp = frontier = unseen & -unseen
            while frontier:
                reached = 0
                for u in _bits(frontier):
                    reached |= neighbours[u]
                frontier = reached & ~comp
                comp |= frontier
            unseen ^= comp
            comps.append(list(_bits(comp)))
        return comps

    def unit_weights(self):
        """Same topology, every weight 1 (the communication graph's metric)."""
        return WeightedGraph(self.n, [(u, v, 1) for u, v, _ in self.edges])

    # --- serialization ---------------------------------------------------

    def to_text(self):
        lines = [f"{self.n} {len(self.edges)}"]
        for u, v, w in sorted(self.edges):
            lines.append(f"{u} {v} {w}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        tokens = text.split()
        if len(tokens) < 2:
            raise GraphError("graph text must start with 'n m'")
        n, m = int(tokens[0]), int(tokens[1])
        _check_edge_count(n, m)
        body = tokens[2:]
        if len(body) != 3 * m:
            raise GraphError(f"expected {3 * m} edge tokens, got {len(body)}")
        edges = [(int(body[3 * i]), int(body[3 * i + 1]), int(body[3 * i + 2]))
                 for i in range(m)]
        return _connected(cls(n, edges))

    def to_json_dict(self):
        return {"node_count": self.n,
                "edges": [[u, v, w] for u, v, w in sorted(self.edges)]}

    @classmethod
    def from_json_dict(cls, d):
        try:
            _check_edge_count(d["node_count"], len(d["edges"]))
            return _connected(cls(d["node_count"], d["edges"]))
        except (KeyError, TypeError) as exc:  # a missing or mistyped field
            raise GraphError(f"malformed JSON graph: {exc!r}") from exc

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            text = fh.read()
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                d = json.loads(text)
            except RecursionError as exc:  # nested deeper than the stack
                raise GraphError(
                    "malformed JSON graph: nested too deeply") from exc
            return cls.from_json_dict(d)
        return cls.from_text(text)


def _connected(g):
    """`g`, if it is connected: the graph readers' check."""
    comps = g.components()
    if len(comps) > 1:
        raise DisconnectedGraphError(comps)
    return g


def _bits(mask):
    """The set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_node(g, s):
    if not (0 <= s < g.n):
        raise GraphError(f"unknown node id {s} (n={g.n})")


def dijkstra(adj, source, bound=INFINITE):
    """(dist, order): distances from `source` over adjacency lists
    adj[u] = [(v, w)], weights > 0, and the nodes it reached in the order
    it settled them, which is (dist[v], v) order.

    Nodes farther than `bound` (or unreachable) stay INFINITE.  The kernel
    of `embed_overlay`, the overlay and the bounded passes of
    `toolkit.LevelTables`' non-uniform levels from `scaled` up (a level
    below it reads level `scaled`'s pass, shifted).  At n = 32 few of a
    node's neighbours share a rounded weight: on ten random graphs
    (seeds 0-9, weights 1-10, hops 32, eps 1/5, so `scaled` is 6) levels
    6-11 hold 7396 (node, weight) groups for 12444 entries.  Over every
    non-uniform level of ten such graphs (16304 groups for 23616
    entries), `exact_sssp`'s bitmask kernel, with a bound and its masks
    built per level, took 1.04-1.11x this heap's time, so grouping
    neighbours by weight saved nothing there.  The degree grows with n
    and the weights do not: at n = 256 (`scaled` 12) level 12 has about
    4 entries per (node, weight) group (2496 groups for 10230 entries)
    and levels 13-15 have 8-20.
    """
    dist = [INFINITE] * len(adj)
    dist[source] = 0
    heap, order = [(0, source)], []
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        order.append(u)
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v] and nd <= bound:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist, order


def bfs_hops(adj, source):
    """(hops, order): edge counts from `source` over adjacency lists
    adj[u] = [(v, w)], weights ignored, and the nodes it reached in the
    order it reached them, non-decreasing in hops; unreachable nodes stay
    INFINITE.

    With every weight equal to c, c times these counts are `dijkstra`'s
    distances."""
    hops = [INFINITE] * len(adj)
    hops[source] = 0
    frontier, order, h = [source], [source], 0
    while frontier:
        h += 1
        reached = []
        for u in frontier:
            for v, _ in adj[u]:
                if hops[v] is INFINITE:
                    hops[v] = h
                    reached.append(v)
        order += reached
        frontier = reached
    return hops, order


def exact_sssp(g, s):
    """Exact distances from s: Dijkstra that settles every node at one
    distance in one step (see the module docstring).

    A heap holds the distinct pending distances, and `pending[k]` the
    bitmask of the nodes reached at distance k.  Popping k settles all of
    its still open nodes at once, and each settled node u adds its
    neighbours of weight w, less the settled ones, to `pending[k + w]` as
    one mask per (u, w).  Weights are at least 1, so k + w is never a
    distance already popped.
    """
    _check_node(g, s)
    masks = g.weight_masks
    dist = [INFINITE] * g.n
    unsettled = (1 << g.n) - 1
    pending = {0: 1 << s}
    heap = [0]
    while heap:
        k = heapq.heappop(heap)
        frontier = pending.pop(k) & unsettled
        unsettled ^= frontier
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            u = low.bit_length() - 1
            dist[u] = k
            for w, mask in masks[u]:
                reached = mask & unsettled
                if reached:
                    d = k + w
                    if d in pending:
                        pending[d] |= reached
                    else:
                        pending[d] = reached
                        heapq.heappush(heap, d)
    return dist


def eccentricity(g, u):
    return max(exact_sssp(g, u))


def _extreme_eccentricity(g, largest):
    """Largest (or smallest) eccentricity, by the bounds of the module
    docstring.

    `best` is the best bound any node has reached: the largest lower bound
    for the diameter, the smallest upper bound for the radius.  It never
    passes the answer, and a node is dropped once its other bound shows it
    cannot beat `best`, so when none is left `best` is the answer.
    """
    lo = [0] * g.n
    up = [INFINITE] * g.n
    best = 0 if largest else INFINITE
    candidates = list(range(g.n))
    pick_high = True
    while candidates:
        # alternate the largest upper and the smallest lower bound; max and
        # min return the first of equal bounds, so the lowest id
        if pick_high:
            v = max(candidates, key=up.__getitem__)
        else:
            v = min(candidates, key=lo.__getitem__)
        pick_high = not pick_high
        dist = exact_sssp(g, v)
        e = max(dist)
        if e == INFINITE:  # disconnected: every eccentricity is INFINITE
            return INFINITE
        for w in candidates:
            d = dist[w]
            far = e - d if d + d < e else d  # max(d(v,w), e - d(v,w))
            if far > lo[w]:
                lo[w] = far
            if e + d < up[w]:
                up[w] = e + d
        if largest:
            best = max(best, max(map(lo.__getitem__, candidates)))
            candidates = [w for w in candidates if up[w] > best]
        else:
            best = min(best, min(map(up.__getitem__, candidates)))
            candidates = [w for w in candidates if lo[w] < best]
    return best


def diameter(g):
    """Largest eccentricity, exact, from eccentricity bounds (see the
    module docstring); INFINITE if `g` is disconnected."""
    return _extreme_eccentricity(g, largest=True)


def radius(g):
    """Smallest eccentricity, exact, from eccentricity bounds (see the
    module docstring); INFINITE if `g` is disconnected."""
    return _extreme_eccentricity(g, largest=False)


def min_hops_on_shortest_paths(g, s):
    """For each v: minimum edge count among shortest s-v paths.

    Read from `exact_sssp`'s row: weights are at least 1, so a shortest
    path visits its nodes in increasing distance, and one pass in
    distance order relaxes the hops along the shortest-path edges.
    """
    return _hops_on_row(g, s, exact_sssp(g, s))


def _hops_on_row(g, s, dist):
    """`min_hops_on_shortest_paths(g, s)` from `dist = exact_sssp(g, s)`."""
    hops = [INFINITE] * g.n
    hops[s] = 0
    for u in sorted(range(g.n), key=dist.__getitem__):
        h = hops[u] + 1
        for v, w in g.adj[u]:
            if dist[u] + w == dist[v] and h < hops[v]:
                hops[v] = h
    return hops


def hop_diameter(g):
    """Max over pairs of the min edge count among shortest paths."""
    return max(max(min_hops_on_shortest_paths(g, s)) for s in range(g.n))


def contract_unit_edges(g):
    """Contract every weight-1 edge; parallel edges keep the minimum weight.

    Returns (contracted_graph, mapping) where mapping[v] is v's node id in
    the contracted graph.
    """
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, w in g.edges:
        if w == 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)

    roots = sorted({find(v) for v in range(g.n)})
    new_id = {r: i for i, r in enumerate(roots)}
    mapping = [new_id[find(v)] for v in range(g.n)]

    k = len(roots)
    best = {}  # class pair (cu, cv), cu < cv, as cu * k + cv -> least weight
    for u, v, w in g.edges:
        cu, cv = mapping[u], mapping[v]
        if cu == cv:
            continue
        key = cu * k + cv if cu < cv else cv * k + cu
        if w < best.get(key, INFINITE):
            best[key] = w
    contracted = WeightedGraph(
        k, [(key // k, key % k, w) for key, w in best.items()])
    return contracted, mapping


# --- generators ---------------------------------------------------------


def random_connected_graph(n, max_weight=10, rng=None):
    """Random spanning tree plus each other pair with probability 0.15;
    weights uniform in [1, max_weight]."""
    rng = rng if rng is not None else random.Random(0)
    if n < 1:
        raise GraphError("n must be >= 1")
    if max_weight < 1:
        raise GraphError(f"max_weight must be >= 1: {max_weight}")
    edges = []
    present = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        present.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < 0.15:
                present.add((u, v))
    for u, v in sorted(present):
        edges.append((u, v, rng.randint(1, max_weight)))
    return WeightedGraph(n, edges)


def cycle_graph(n):
    if n == 1:
        return WeightedGraph(1, [])
    if n == 2:
        return WeightedGraph(2, [(0, 1, 1)])
    return WeightedGraph(n, [(i, (i + 1) % n, 1) for i in range(n)])


def star_graph(n):
    """Node 0 is the center."""
    return WeightedGraph(n, [(0, i, 1) for i in range(1, n)])


def grid_graph(rows, cols):
    def nid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((nid(r, c), nid(r, c + 1), 1))
            if r + 1 < rows:
                edges.append((nid(r, c), nid(r + 1, c), 1))
    return WeightedGraph(rows * cols, edges)


def make_graph(kind, n, max_weight=10, rng=None):
    """Named generators used by the CLI; n < 1 raises one GraphError for
    every generator."""
    if n < 1:
        raise GraphError(f"n must be >= 1: {n}")
    if kind == "random-connected":
        return random_connected_graph(n, max_weight=max_weight, rng=rng)
    if kind == "cycle":
        return cycle_graph(n)
    if kind == "star":
        return star_graph(n)
    if kind == "grid":
        side = max(1, math.isqrt(n))
        if n % side:
            raise GraphError(
                f"grid n must be a multiple of isqrt(n) = {side}: {n}")
        return grid_graph(side, n // side)
    raise GraphError(f"unknown generator {kind!r}")
