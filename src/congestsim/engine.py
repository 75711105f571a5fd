"""Deterministic synchronous message-passing engine with per-edge bandwidth limits.

Semantics: in each round every node may send at most B bits along each
incident (directed) edge; a message sent in round r is readable in round
r+1.  Deliveries and wakes share one agenda (a wake is an empty delivery).
The engine fast-forwards over rounds with nothing on the agenda, but the
round clock and the cost ledger still account for every round of the
budget.

`Network.charge_block` is the ledger's one writer.  Every stage and engine
run charges one complete, named phase through `charge`, a one-phase
block; an inner search charges its probes' block once per draw, and a
repeat `search.SkeletonOracle.init` the phases its first call charged,
each in one call.

The two tree primitives are charged in closed form, not run:
`build_bfs_tree` from the leader's hop counts, `broadcast_pipeline` from
the tree and the items.  Their message-level programs are the references
in `tests/oracles.py`, so no engine run is on the estimators' path.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field

from .graphs import INFINITE, bfs_hops


class BandwidthExceeded(RuntimeError):
    def __init__(self, edge, round_no, bits, limit):
        self.edge, self.round_no, self.bits, self.limit = edge, round_no, bits, limit
        super().__init__(
            f"edge {edge} carries {bits} bits in round {round_no} (limit {limit})"
        )


class MaxRoundsExceeded(RuntimeError):
    pass


def payload_bits(payload):
    """Default bit-size of a message payload (tuples of small non-negative ints)."""
    if isinstance(payload, tuple):
        return sum(payload_bits(p) for p in payload)
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length())
    raise TypeError(f"cannot size payload {payload!r}; pass bits= explicitly")


@dataclass(slots=True, frozen=True)  # a block's phases recur in the ledger
class Phase:
    """A named phase's cost; a negative cost raises `ValueError`, so no
    block or charge can move the clock or a total backwards."""

    name: str
    rounds: int = 0
    messages: int = 0
    bits: int = 0

    def __post_init__(self):
        if min(self.rounds, self.messages, self.bits) < 0:
            raise ValueError(f"a phase's costs must be >= 0: {self!r}")


@dataclass
class CostLedger:
    """Totals and the phases they sum over; `Network.charge_block` writes
    both."""

    rounds: int = 0
    messages: int = 0
    bits: int = 0
    phases: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


class NodeProgram:
    """Base class for per-node programs.

    `on_round(ctx)` is invoked whenever the node has incoming messages or a
    scheduled wake (and for every node in the program's first round).  Set
    `self.halted = True` when done; the run stops once all programs halt
    and no messages are in flight.
    """

    halted = False

    def on_round(self, ctx):
        raise NotImplementedError


class Context:
    __slots__ = ("network", "node", "round", "inbox", "_start_round")

    def __init__(self, network, node, round_no, inbox, start_round):
        self.network = network
        self.node = node
        self.round = round_no
        self.inbox = inbox
        self._start_round = start_round

    @property
    def local_round(self):
        """Rounds since this run() started."""
        return self.round - self._start_round

    def neighbors(self):
        return [v for v, _ in self.network.graph.adj[self.node]]

    def send(self, neighbor, payload, bits=None):
        self.network._send(self.node, neighbor, payload,
                           bits if bits is not None else payload_bits(payload))

    def broadcast(self, payload, bits=None):
        for v in self.neighbors():
            self.send(v, payload, bits=bits)

    def wake_at(self, round_no):
        self.network._wake(self.node, round_no)


class Network:
    """A CONGEST network over a WeightedGraph with a global round clock."""

    def __init__(self, graph, bandwidth_bits=None, seed=0):
        self.graph = graph
        self.n = graph.n
        if bandwidth_bits is None:
            bandwidth_bits = max(4, math.ceil(4 * math.log2(max(2, graph.n))))
        if bandwidth_bits < 1:
            raise ValueError(f"bandwidth must be >= 1 bit: {bandwidth_bits}")
        self.bandwidth_bits = bandwidth_bits
        self.leader = 0
        self.seed = seed
        self.round_clock = 0
        self.ledger = CostLedger()
        self._rngs = {}
        # round -> node -> list of (sender, payload); a wake is an empty list
        self._pending = {}
        # (u, v) -> bits claimed in the current round
        self._edge_bits = {}
        self._last_send_round = None
        # messages and bits sent by the current run
        self._messages = self._bits = 0
        # BFS tree cache: (parent, depth) lists
        self.tree = None

    def charge(self, phase, rounds, messages=0, bits=0):
        """Charge one complete phase named `phase`: a one-phase block.
        Negative rounds, messages or bits raise `ValueError` (see `Phase`)
        and charge nothing."""
        self.charge_block([Phase(phase, rounds, messages, bits)])

    def charge_block(self, phases, times=1):
        """Append the `Phase` objects of `phases`, `times` times over (the
        same objects), add them to the ledger's totals and advance the round
        clock by their rounds: the ledger's only writer.  `times` < 0
        raises `ValueError` and charges nothing."""
        if times < 0:
            raise ValueError(f"a block is charged times >= 0: {times}")
        ledger = self.ledger
        ledger.phases += phases * times
        rounds = times * sum(p.rounds for p in phases)
        ledger.rounds += rounds
        ledger.messages += times * sum(p.messages for p in phases)
        ledger.bits += times * sum(p.bits for p in phases)
        self.round_clock += rounds

    def rng_for(self, node):
        rng = self._rngs.get(node)
        if rng is None:
            rng = random.Random(f"{self.seed}:{node}")
            self._rngs[node] = rng
        return rng

    # --- low-level message plumbing -------------------------------------

    def _send(self, u, v, payload, bits):
        """Send in the round being processed; it is read in the next one."""
        r, limit = self.round_clock, self.bandwidth_bits
        total = self._edge_bits.get((u, v), 0) + bits
        if total > limit:
            # a message wider than B is reported alone, else the edge's
            # total this round
            raise BandwidthExceeded((u, v), r, bits if bits > limit else total,
                                    limit)
        self._edge_bits[u, v] = total
        self._messages += 1
        self._bits += bits
        self._last_send_round = r
        self._pending.setdefault(r + 1, {}).setdefault(v, []).append((u, payload))

    def _wake(self, node, round_no):
        if round_no <= self.round_clock:
            raise ValueError(
                f"a wake must name a later round: {round_no} <= {self.round_clock}")
        self._pending.setdefault(round_no, {}).setdefault(node, [])

    # --- the round loop --------------------------------------------------

    def run(self, programs, phase, max_rounds=None, exact_rounds=None):
        """Execute programs round by round, charged as one phase `phase`.

        `programs` is a dict node -> NodeProgram (one per node, subsets
        allowed: missing nodes are inert).  With `exact_rounds` the run
        consumes exactly that many rounds (quiet tail included); otherwise
        it stops when all programs have halted and nothing is in flight,
        or fails with MaxRoundsExceeded at `max_rounds`.  A run takes at
        most one of the two bounds, and no negative one: both bounds, or a
        negative one, raise `ValueError`, charging nothing.

        The run counts its own sends and charges them, with the rounds it
        consumed, through `charge`; it returns those rounds.  When a
        program or the bandwidth check raises, or the run fails, the phase
        holds 0 rounds and what was sent before, and the clock stays where
        the run stopped.
        """
        if max_rounds is not None and exact_rounds is not None:
            raise ValueError("a run takes max_rounds or exact_rounds, not both")
        bound = max_rounds if exact_rounds is None else exact_rounds
        if bound is not None and bound < 0:
            raise ValueError(f"a run's bound must be >= 0: {bound}")
        start = self.round_clock
        self._messages = self._bits = 0
        try:
            used = self._loop(programs, bound, exact_rounds is not None)
        except Exception:
            self.charge(phase, 0, self._messages, self._bits)
            raise
        self.round_clock = start
        self.charge(phase, used, self._messages, self._bits)
        return used

    def _loop(self, programs, bound, exact):
        """`run`'s rounds under its one `bound` (None: no bound), exact or a
        cap; returns how many it consumed."""
        start = self.round_clock
        end = math.inf if bound is None else start + bound
        self._last_send_round = None
        while self.round_clock < end:
            r = self.round_clock
            inboxes = self._pending.pop(r, {})
            # every program acts in the first round, then only those with
            # a delivery or a wake
            for v in sorted(programs if r == start else inboxes):
                if v in programs:
                    programs[v].on_round(
                        Context(self, v, r, inboxes.get(v, []), start))
            self.round_clock += 1
            self._edge_bits.clear()
            if not exact and self._quiescent(programs):
                break
            # Fast-forward to the next round on the agenda; the skipped quiet
            # rounds still count against the bound.
            nxt = min(min(self._pending, default=end), end)
            if nxt == math.inf:
                raise MaxRoundsExceeded(
                    "deadlock: nothing in flight but programs have not halted")
            self.round_clock = max(self.round_clock, nxt)

        if exact:
            # the whole budget counts, quiet tail included; what its last
            # round sent is never read by this run, and the next run's
            # programs must not read it either
            self._pending.clear()
            return bound
        if not self._quiescent(programs):
            raise MaxRoundsExceeded(f"no halt within {bound} rounds")
        # Rounds count through the last round that carried traffic; the
        # final delivery-only round is local computation and free, and the
        # next run starts in it.
        if self._last_send_round is None:
            return 0
        return self._last_send_round - start + 1

    def _quiescent(self, programs):
        return not self._pending and all(p.halted for p in programs.values())

    # --- tree primitives -------------------------------------------------

    def build_bfs_tree(self):
        """The BFS tree rooted at the leader, as (parent, depth) lists;
        built and charged, in a `bfs-tree` phase, on the first call
        and returned from the cache after.

        Charged in closed form from the leader's hop counts, without
        running the per-node programs.  The leader OFFERs depth 0 to its
        neighbours; a node reached in round h takes the lowest-id
        neighbour at depth h - 1 as its parent, sends it an ACCEPT and
        OFFERs depth h to every neighbour.  With e the leader's hop
        eccentricity that is e + 1 rounds (0 when the leader has no
        neighbour), 2|E| + n - 1 messages and sum_v deg(v)*(1 +
        max(1, bitlen h_v)) + 2(n - 1) bits over the leader's component.
        A node the leader cannot reach keeps parent and depth None.  The
        sends go in (depth, node id) order, the ACCEPT first, then the
        OFFERs in `adj` order; the first over B bits on its edge in its
        round (the parent edge carries the ACCEPT and an OFFER) raises
        `BandwidthExceeded` with what was sent before it charged.  The
        message-level program is the reference in `tests/oracles.py`.
        """
        if self.tree is not None:
            return self.tree
        adj, limit = self.graph.adj, self.bandwidth_bits
        start = self.round_clock
        depth = [None if h is INFINITE else h
                 for h in bfs_hops(adj, self.leader)[0]]
        parent = [min((u for u, _ in nbrs if depth[u] == h - 1), default=None)
                  if h else None for nbrs, h in zip(adj, depth)]
        messages = bits = 0
        for h, v in sorted((h, v) for v, h in enumerate(depth)
                           if h is not None):
            up, offer = parent[v], 1 + max(1, h.bit_length())
            # (to, bits, bits on that edge this round)
            sends = [] if up is None else [(up, 2, 2)]
            sends += [(u, offer, offer + 2 if u == up else offer)
                      for u, _ in adj[v]]
            for u, size, carried in sends:
                if carried > limit:
                    # as `_send`: a message wider than B is reported
                    # alone, else the edge's total this round
                    self.charge("bfs-tree", 0, messages, bits)
                    self.round_clock = start + h
                    raise BandwidthExceeded(
                        (v, u), start + h,
                        size if size > limit else carried, limit)
                messages += 1
                bits += size
        e = max(h for h in depth if h is not None)
        self.charge("bfs-tree", e + 1 if adj[self.leader] else 0,
                    messages, bits)
        self.tree = (parent, depth)
        return self.tree

    def broadcast_pipeline(self, items, phase="broadcast"):
        """Leader pipelines `items` down the BFS tree; all nodes learn all items.

        Each item must fit in B bits.  Charged in closed form, without
        running the per-node programs, and returns nothing: each item
        crosses each tree edge once, one item per round behind the last,
        so k items on a tree of height d take k + d - 1 rounds (0 when k
        or d is 0), and k messages per tree edge.  A node the leader
        cannot reach never halts, so the run fails with MaxRoundsExceeded
        at its round limit n + k + 2.  The message-level program is the
        reference in `tests/oracles.py`.
        """
        sizes = [payload_bits(it) for it in items]
        for bits in sizes:
            if bits > self.bandwidth_bits:
                raise BandwidthExceeded(("item",), self.round_clock, bits,
                                        self.bandwidth_bits)
        parent, depth = self.build_bfs_tree()
        k, edges = len(items), self.n - parent.count(None)
        messages, bits = k * edges, sum(sizes) * edges
        if k and edges < self.n - 1:
            self.charge(phase, 0, messages, bits)
            self.round_clock += self.n + k + 2
            raise MaxRoundsExceeded(f"no halt within {self.n + k + 2} rounds")
        self.charge(phase, k + max(depth) - 1 if k and edges else 0,
                    messages, bits)

    # --- skeleton sampling -----------------------------------------------

    def sample_skeleton_sets(self, r, count):
        """Each node joins each of `count` sets independently with probability r/n.

        Node-local (0 rounds); driven by the per-node seeded RNG streams so
        the result is independent of iteration order.
        """
        if not (0 < r <= self.n):
            raise ValueError(f"need 0 < r <= n: r={r}, n={self.n}")
        sets = [set() for _ in range(count)]
        p = r / self.n
        for v in range(self.n):
            rng = self.rng_for(v)
            for i in range(count):
                if rng.random() < p:
                    sets[i].add(v)
        return sets

