"""Lower-bound gadget graphs and their exact verifiers.

The construction: a server skeleton (full binary tree of height h plus
m = 2s + l disjoint paths of 2^h nodes) sandwiched between two input
halves.  Alice's half encodes x, Bob's encodes y, via edge weights
alpha/beta between the selector cliques {a_i}/{b_i} and the star columns
a*_j/b*_j.  With alpha = n^2, beta = 2n^2:

  diameter variant:  F(x, y) = 1  =>  D <= max(2a, b) + n
                     F(x, y) = 0  =>  D >= min(a+b, 3a)
  radius variant (extra hub a_0): same gap driven by F'(x, y).

Everything here is verified exactly: Dijkstra on the full graph and on
the weight-1-contracted graph, every tabulated distance bound, and the
round-by-round ownership schedule of the two-party simulation argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import (
    WeightedGraph,
    _bits,
    contract_unit_edges,
    diameter,
    exact_sssp,
    radius,
)


# --- index helpers -------------------------------------------------------


def bin_bit(i, j):
    """j-th bit (1-based, least significant first) of i-1."""
    return (i - 1 >> j - 1) & 1


# --- embedded Boolean functions ------------------------------------------


def eval_F(x, y, rows, cols):
    """AND over rows of (OR over cols of x_{i,j} AND y_{i,j})."""
    _check_input(x, rows, cols)
    _check_input(y, rows, cols)
    return int(all(
        any(x[i * cols + j] and y[i * cols + j] for j in range(cols))
        for i in range(rows)))


def eval_F_prime(x, y, rows, cols):
    """OR over all (i, j) of x_{i,j} AND y_{i,j}."""
    _check_input(x, rows, cols)
    _check_input(y, rows, cols)
    return int(any(a and b for a, b in zip(x, y)))


def _check_input(bits, rows, cols):
    if len(bits) != rows * cols:
        raise ValueError(f"input must have {rows * cols} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("input bits must be 0/1")


# --- construction --------------------------------------------------------


@dataclass
class GadgetInstance:
    variant: str
    h: int
    s: int
    l: int
    alpha: int
    beta: int
    x: tuple
    y: tuple
    graph: WeightedGraph
    node_id: dict                  # structured name -> dense id

    @property
    def selectors(self):
        return 2 ** self.s

    def id(self, *name):
        return self.node_id[name]


def gadget_node_count(h, variant="diameter"):
    s, l = 3 * h // 2, 2 ** (3 * h // 2 - h)
    n = (2 ** (h + 1) - 1) + (2 * s + l) * (2 ** h + 2) + 2 * 2 ** s
    return n + 1 if variant == "radius" else n


def build_gadget(h, x=None, y=None, variant="diameter", alpha=None, beta=None):
    """The full lower-bound graph for the given inputs.

    h must be even and >= 2; s = 3h/2, l = 2^(s-h), m = 2s + l paths.
    x, y are flat 0/1 sequences of length 2^s * l (row-major over (i, j));
    default all-ones.  alpha/beta default to n^2 / 2n^2.
    """
    if h < 2 or h % 2:
        raise ValueError(f"h must be an even number >= 2: {h}")
    if variant not in ("diameter", "radius"):
        raise ValueError(f"unknown variant {variant!r}")
    s = 3 * h // 2
    l = 2 ** (s - h)
    m = 2 * s + l
    sel = 2 ** s
    width = 2 ** h
    if x is None:
        x = (1,) * (sel * l)
    if y is None:
        y = (1,) * (sel * l)
    x, y = tuple(x), tuple(y)
    _check_input(x, sel, l)
    _check_input(y, sel, l)

    # the input-independent server part: a tree of height h and m paths
    names = [("t", i, j) for i in range(h + 1) for j in range(1, 2 ** i + 1)]
    names += [("p", i, j) for i in range(1, m + 1)
              for j in range(1, width + 1)]
    names += [("a", i) for i in range(1, sel + 1)]
    names += [("abit", b, j) for j in range(1, s + 1) for b in (0, 1)]
    names += [("astar", j) for j in range(1, l + 1)]
    names += [("b", i) for i in range(1, sel + 1)]
    names += [("bbit", b, j) for j in range(1, s + 1) for b in (0, 1)]
    names += [("bstar", j) for j in range(1, l + 1)]
    if variant == "radius":
        names.append(("a0",))
    names.sort()
    node_id = {name: i for i, name in enumerate(names)}
    n = len(names)
    expected = gadget_node_count(h, variant)
    if n != expected:
        raise AssertionError(f"node count {n} != formula value {expected}")
    alpha = n ** 2 if alpha is None else alpha
    beta = 2 * n ** 2 if beta is None else beta
    if not alpha < beta:
        raise ValueError(f"need alpha < beta: {alpha}, {beta}")

    def E(u, v, w):
        edges.append((node_id[u], node_id[v], w))

    edges = []
    for i in range(1, h + 1):
        for j in range(1, 2 ** i + 1):
            E(("t", i, j), ("t", i - 1, (j + 1) // 2), 1)
    for i in range(1, m + 1):
        for j in range(2, width + 1):
            E(("p", i, j), ("p", i, j - 1), 1)
    for i in range(1, m + 1):
        for j in range(1, width + 1):
            E(("t", h, j), ("p", i, j), alpha)
    # path endpoints into the two halves (weight 1, contracted later)
    for i in range(1, s + 1):
        E(("abit", 0, i), ("p", 2 * i - 1, 1), 1)
        E(("bbit", 1, i), ("p", 2 * i - 1, width), 1)
        E(("abit", 1, i), ("p", 2 * i, 1), 1)
        E(("bbit", 0, i), ("p", 2 * i, width), 1)
    for j in range(1, l + 1):
        E(("astar", j), ("p", 2 * s + j, 1), 1)
        E(("bstar", j), ("p", 2 * s + j, width), 1)
    # the two halves
    for i in range(1, sel + 1):
        for j in range(1, s + 1):
            E(("a", i), ("abit", bin_bit(i, j), j), alpha)
            E(("b", i), ("bbit", bin_bit(i, j), j), alpha)
        for j in range(1, l + 1):
            E(("a", i), ("astar", j), alpha if x[(i - 1) * l + j - 1] else beta)
            E(("b", i), ("bstar", j), alpha if y[(i - 1) * l + j - 1] else beta)
        for i2 in range(i + 1, sel + 1):
            E(("a", i), ("a", i2), alpha)
            E(("b", i), ("b", i2), alpha)
    if variant == "radius":
        for i in range(1, sel + 1):
            E(("a0",), ("a", i), 2 * alpha)

    graph = WeightedGraph(n, edges)
    return GadgetInstance(variant=variant, h=h, s=s, l=l, alpha=alpha,
                          beta=beta, x=x, y=y, graph=graph, node_id=node_id)


# --- exact verification --------------------------------------------------


def check_table2(inst, mapping, dist):
    """Every tabulated distance upper bound, checked on the contracted graph.

    `mapping` is the weight-1 contraction's node map and `dist` its
    all-pairs table dist[u][v], both as `verify_reduction` builds them.
    The rows (desc, u, v, bound) are generated one at a time, checked and
    counted, never held in a list (376 rows at h = 2, 14,528 at h = 4).
    Returns (rows_checked, counterexamples): each violated bound, in row
    order, is already the report's entry {"check": "table2-<row>",
    "detail": "d'(u,v) = d > bound"}.
    """
    cid = lambda *name: mapping[inst.node_id[name]]
    a, b = inst.alpha, inst.beta
    sel, s, l = inst.selectors, inst.s, inst.l
    t = cid("t", 0, 1)
    routers = sorted({cid("p", i, 1) for i in range(1, 2 * s + l + 1)})
    a_ids = {i: cid("a", i) for i in range(1, sel + 1)}
    b_ids = {i: cid("b", i) for i in range(1, sel + 1)}

    def rows():
        for p in routers:
            yield "t-router", t, p, a
        for i in range(1, sel + 1):
            ai, bi = a_ids[i], b_ids[i]
            yield "t-a", t, ai, 2 * a
            yield "t-b", t, bi, 2 * a
            for i2 in range(1, sel + 1):
                if i2 == i:
                    continue
                yield "a-a", ai, a_ids[i2], a
                yield "b-b", bi, b_ids[i2], a
                yield "a-b", ai, b_ids[i2], 2 * a
            # path 2j-1 merges with abit0_j/bbit1_j; path 2j with
            # abit1_j/bbit0_j
            for j in range(1, s + 1):
                same = cid("abit", bin_bit(i, j), j)
                flip = cid("abit", bin_bit(i, j) ^ 1, j)
                yield "a-ownbit", ai, same, a
                yield "a-otherbit", ai, flip, 2 * a
                yield "b-ownbit", bi, flip, a
                yield "b-otherbit", bi, same, 2 * a
            for j in range(1, l + 1):
                yield "a-star", ai, cid("astar", j), b
                yield "b-star", bi, cid("astar", j), b
        for u in routers:
            for v in routers:
                if u != v:
                    yield "router-router", u, v, 2 * a

    count = 0
    counterexamples = []
    for desc, u, v, bound in rows():
        count += 1
        if dist[u][v] > bound:
            counterexamples.append(
                {"check": f"table2-{desc}",
                 "detail": f"d'({u},{v}) = {dist[u][v]} > {bound}"})
    return count, counterexamples


def verify_reduction(inst):
    """Exact check of the gap lemma, the contraction sandwich, and Table 2.

    The variant picks the quantity and its Boolean function: the diameter
    (max eccentricity) with F, or the radius (min eccentricity) with F'.
    Computes it exactly on the full graph from eccentricity bounds
    (`graphs.diameter` / `graphs.radius`), and builds the one weight-1
    contraction and its all-pairs table, which it hands to `check_table2`
    and which the radius floor reads row by row.  Every violated
    inequality is an entry of report["counterexamples"], in the order
    sandwich, gap, Table 2, radius floor.
    """
    if inst.variant == "diameter":
        exact_of, extremum, embedded = diameter, max, eval_F
    else:
        exact_of, extremum, embedded = radius, min, eval_F_prime
    g = inst.graph
    n = g.n
    contracted, mapping = contract_unit_edges(g)
    sel = inst.selectors

    exact = exact_of(g)
    dist_c = [exact_sssp(contracted, u) for u in range(contracted.n)]
    eccs_c = [max(row) for row in dist_c]
    exact_c = extremum(eccs_c)
    fval = embedded(inst.x, inst.y, sel, inst.l)
    upper = max(2 * inst.alpha, inst.beta) + n
    lower = min(inst.alpha + inst.beta, 3 * inst.alpha)

    counterexamples = []
    if not exact_c <= exact <= exact_c + n:
        counterexamples.append(
            {"check": "contraction-sandwich",
             "detail": f"{exact_c} <= {exact} <= {exact_c} + {n} fails"})
    if fval == 1 and exact > upper:
        counterexamples.append(
            {"check": "gap-upper", "detail": f"{exact} > {upper} with F=1"})
    if fval == 0 and exact < lower:
        counterexamples.append(
            {"check": "gap-lower", "detail": f"{exact} < {lower} with F=0"})

    table_rows, table_counterexamples = check_table2(inst, mapping, dist_c)
    counterexamples += table_counterexamples

    if inst.variant == "radius":
        sel_ids = {mapping[inst.id("a", i)] for i in range(1, sel + 1)}
        for v in range(contracted.n):
            if v not in sel_ids and eccs_c[v] < 3 * inst.alpha:
                counterexamples.append(
                    {"check": "radius-ecc-floor",
                     "detail": f"e'({v}) = {eccs_c[v]} < {3 * inst.alpha}"})

    return {
        "variant": inst.variant,
        "h": inst.h,
        "s": inst.s,
        "l": inst.l,
        "alpha": inst.alpha,
        "beta": inst.beta,
        "F": fval,
        "D_or_R_exact": exact,
        "contracted_exact": exact_c,
        "lemma_bound_low": lower,
        "lemma_bound_high": upper,
        "table2_rows": table_rows,
        "counterexamples": counterexamples,
        "pass": not counterexamples,
    }


# --- ownership schedule --------------------------------------------------

ALICE, BOB, SERVER = 0, 1, 2


@dataclass
class OwnershipSchedule:
    instance: GadgetInstance
    rounds: int                     # T; owners defined for r in [0, T]
    owners: list = field(default_factory=list)  # per round: per-id owner


def ownership_schedule(inst, T):
    """Who simulates which node at the end of each round r in [0, T].

    The server's share of each path shrinks by one node per round from
    both ends, and of each tree level by the same interval: node j of
    level i is Alice's below ceil((1 + r) / 2^(h-i)), Bob's above
    ceil((2^h - r) / 2^(h-i)), else the server's.  A path node
    ("p", i, j) is column j of level h, step 1.  Requires T < 2^h / 2.
    """
    h = inst.h
    width = 2 ** h
    if not (0 <= T < width // 2):
        raise ValueError(f"need 0 <= T < 2^h/2 = {width // 2}: {T}")
    fixed = [None] * inst.graph.n  # Alice's and Bob's own nodes
    columns = []  # (id, level, j): ("t", level, j), or ("p", i, j) at level h
    for name, vid in inst.node_id.items():
        kind = name[0]
        if kind in ("p", "t"):
            columns.append((vid, h if kind == "p" else name[1], name[2]))
        else:
            fixed[vid] = ALICE if kind in ("a", "abit", "astar", "a0") else BOB
    owners = []
    for r in range(T + 1):
        bounds = [(-(-(1 + r) >> (h - i)), -(-(width - r) >> (h - i)))
                  for i in range(h + 1)]
        owner = fixed.copy()
        for vid, level, j in columns:
            low, high = bounds[level]
            owner[vid] = ALICE if j < low else BOB if j > high else SERVER
        owners.append(owner)
    return OwnershipSchedule(instance=inst, rounds=T, owners=owners)


def validate_schedule(schedule):
    """Partition, hand-off locality, and crossing-count checks.

    Returns (per-round crossing counts, violations); a violation is a
    (round, node-or-edge, description) triple.  Each round is checked over
    int bitmasks, not edge by edge: one mask per party (bit v when v is
    that party's), and per node the mask of its neighbours, the OR of its
    `weight_masks` groups.  A node whose owner is not ALICE, BOB or SERVER
    makes the round report "node without an owner" once, and belongs to
    no party.  From round 1 on, with the previous round's masks:

    - a hand-off is a node of one of Alice and Bob that the other held;
    - a far-side neighbour of a node `a` of Alice or Bob is a neighbour
      that the other held;
    - a crossing is an edge (a, b) with `a` the server's in both rounds
      and `b` not the server's in the previous one; off the tree it is a
      violation, given as (b, a).

    A round's violations come in this order: the unowned node, hand-offs
    by node, far-side neighbours by (a, b), crossings at non-tree nodes by
    server node, then a crossing count above 2h.
    """
    inst = schedule.instance
    g = inst.graph
    # distinct ids, and disjoint weight groups: each sum is an OR
    tree = sum(1 << vid for name, vid in inst.node_id.items()
               if name[0] == "t")
    neighbours = [sum(mask for _, mask in groups)
                  for groups in g.weight_masks]
    violations = []
    crossings = []
    prev = None
    for r, owner in enumerate(schedule.owners):
        party = {ALICE: 0, BOB: 0, SERVER: 0}
        unowned = False
        for v, o in enumerate(owner):
            if o in party:
                party[o] |= 1 << v
            else:
                unowned = True
        if unowned:
            violations.append((r, None, "node without an owner"))
        alice, bob, server = party[ALICE], party[BOB], party[SERVER]
        if prev is not None:
            alice_prev, bob_prev, server_prev = prev
            for v in _bits(alice & bob_prev | bob & alice_prev):
                violations.append(
                    (r, v, "node handed directly between Alice and Bob"))
            for a in _bits(alice | bob):
                far = neighbours[a] & (bob_prev if owner[a] == ALICE
                                       else alice_prev)
                for b in _bits(far):
                    violations.append(
                        (r, (a, b),
                         "neighbor on the far side in the previous round"))
            count = 0
            for a in _bits(server_prev & server):
                outside = neighbours[a] & ~server_prev
                if outside:
                    count += outside.bit_count()
                    if not tree >> a & 1:
                        for b in _bits(outside):
                            violations.append(
                                (r, (b, a), "crossing at a non-tree node"))
            crossings.append(count)
            if count > 2 * inst.h:
                violations.append(
                    (r, None, f"{count} crossings > 2h = {2 * inst.h}"))
        prev = alice, bob, server
    return crossings, violations
