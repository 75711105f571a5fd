"""Deterministic synchronous message-passing engine with per-edge bandwidth limits.

Semantics: in each round every node may send at most B bits along each
incident (directed) edge; a message sent in round r is readable in round
r+1.  Deliveries and wakes share one agenda (a wake is an empty delivery).
The engine fast-forwards over rounds with nothing on the agenda, but the
round clock and the cost ledger still account for every round of the
budget.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
from dataclasses import dataclass, field


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
    if isinstance(payload, str):
        return 8 * len(payload)
    raise TypeError(f"cannot size payload {payload!r}; pass bits= explicitly")


@dataclass
class Phase:
    name: str
    rounds: int = 0
    messages: int = 0
    bits: int = 0


@dataclass
class CostLedger:
    rounds: int = 0
    messages: int = 0
    bits: int = 0
    phases: list = field(default_factory=list)
    _open: list = field(default_factory=list)  # stack of open phases

    @contextlib.contextmanager
    def phase(self, name):
        """Charge the block to a new phase `name`.

        Phases nest: a charge goes to the innermost open phase only, so the
        phases sum to the ledger's totals.
        """
        self.phases.append(Phase(name))
        self._open.append(self.phases[-1])
        try:
            yield
        finally:
            self._open.pop()

    def add_rounds(self, k):
        self.rounds += k
        if self._open:
            self._open[-1].rounds += k

    def add_messages(self, count, bits):
        """Account `count` messages carrying `bits` bits in total."""
        self.messages += count
        self.bits += bits
        if self._open:
            self._open[-1].messages += count
            self._open[-1].bits += bits

    def to_dict(self):
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "bits": self.bits,
            "phases": [
                {"name": p.name, "rounds": p.rounds,
                 "messages": p.messages, "bits": p.bits}
                for p in self.phases
            ],
        }

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
        # BFS tree cache: (parent, children, depth) lists
        self.tree = None
        self._unweighted_diameter = None

    def unweighted_diameter(self):
        """Hop diameter of the communication graph (cached; used for charging)."""
        if self._unweighted_diameter is None:
            from .graphs import diameter
            self._unweighted_diameter = int(diameter(self.graph.unit_weights()))
        return self._unweighted_diameter

    def charge_rounds(self, k, phase=None):
        """Account `k` rounds of a formula-charged stage (no per-message replay)."""
        self.round_clock += k
        if phase is None:
            self.ledger.add_rounds(k)
        else:
            with self.ledger.phase(phase):
                self.ledger.add_rounds(k)

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
        if bits > limit:
            raise BandwidthExceeded((u, v), r, bits, limit)
        total = self._edge_bits.get((u, v), 0) + bits
        if total > limit:
            raise BandwidthExceeded((u, v), r, total, limit)
        self._edge_bits[u, v] = total
        self.ledger.add_messages(1, bits)
        self._last_send_round = r
        self._pending.setdefault(r + 1, {}).setdefault(v, []).append((u, payload))

    def _wake(self, node, round_no):
        if round_no <= self.round_clock:
            raise ValueError(
                f"a wake must name a later round: {round_no} <= {self.round_clock}")
        self._pending.setdefault(round_no, {}).setdefault(node, [])

    # --- the round loop --------------------------------------------------

    def run(self, programs, max_rounds=None, exact_rounds=None):
        """Execute programs round by round.

        `programs` is a dict node -> NodeProgram (one per node, subsets
        allowed: missing nodes are inert).  With `exact_rounds` the run
        consumes exactly that many rounds (quiet tail included); otherwise
        it stops when all programs have halted and nothing is in flight,
        or fails with MaxRoundsExceeded at `max_rounds`.

        Returns the number of rounds consumed, which the run charges to the
        ledger and advances the round clock by.
        """
        start = self.round_clock
        budget_end = None
        if exact_rounds is not None:
            budget_end = start + exact_rounds
        limit_end = None
        if max_rounds is not None:
            limit_end = start + max_rounds

        self._last_send_round = None
        first = True
        while True:
            r = self.round_clock
            if budget_end is not None and r >= budget_end:
                break
            if limit_end is not None and r >= limit_end:
                if budget_end is None and not self._quiescent(programs):
                    raise MaxRoundsExceeded(f"no halt within {max_rounds} rounds")
                break

            inboxes = self._pending.pop(r, {})
            active = sorted(programs if first else inboxes)
            first = False
            for v in active:
                prog = programs.get(v)
                if prog is None:
                    continue
                ctx = Context(self, v, r, inboxes.get(v, []), start)
                prog.on_round(ctx)

            self.round_clock += 1
            self._edge_bits.clear()

            if budget_end is None and self._quiescent(programs):
                break

            # Fast-forward to the next round on the agenda; the skipped quiet
            # rounds still count against the budget.
            if self._pending:
                nxt = min(self._pending)
                for end in (budget_end, limit_end):
                    if end is not None and nxt > end:
                        nxt = end
                if nxt > self.round_clock:
                    self.round_clock = nxt
            elif budget_end is not None:
                self.round_clock = budget_end
            elif limit_end is not None:
                self.round_clock = limit_end
            else:
                raise MaxRoundsExceeded(
                    "deadlock: nothing in flight but programs have not halted")

        # Charge rounds.  For fixed-budget runs the whole budget counts
        # (quiet tail included).  Otherwise rounds are counted through the
        # last round that carried traffic; the final delivery-only round is
        # local computation and free, and the next run starts in it.
        if budget_end is not None:
            used = budget_end - start
            # what a budget's last round sent is never read by this run;
            # the next run's programs must not read it either
            self._pending.clear()
        elif self._last_send_round is not None:
            used = self._last_send_round - start + 1
        else:
            used = 0
        self.round_clock = start + used
        self.ledger.add_rounds(used)
        return used

    def _quiescent(self, programs):
        if self._pending:
            return False
        return all(p.halted for p in programs.values())

    # --- tree primitives -------------------------------------------------

    def build_bfs_tree(self):
        """Build and cache a BFS tree rooted at the leader (real messages)."""
        programs = {v: _TreeBuildProgram(v, self.leader) for v in range(self.n)}
        with self.ledger.phase("bfs-tree"):
            self.run(programs, max_rounds=2 * self.n + 2)
        parent = [programs[v].parent for v in range(self.n)]
        depth = [programs[v].depth for v in range(self.n)]
        children = [[] for _ in range(self.n)]
        for v in range(self.n):
            if parent[v] is not None:
                children[parent[v]].append(v)
        self.tree = (parent, children, depth)
        return self.tree

    def _require_tree(self):
        if self.tree is None:
            self.build_bfs_tree()
        return self.tree

    def broadcast_pipeline(self, items, phase="broadcast"):
        """Leader pipelines `items` down the BFS tree; all nodes learn all items.

        Each item must fit in B bits.  Returns the per-node item lists
        (identical everywhere).
        """
        for it in items:
            if payload_bits(it) > self.bandwidth_bits:
                raise BandwidthExceeded(("item",), self.round_clock,
                                        payload_bits(it), self.bandwidth_bits)
        parent, children, depth = self._require_tree()
        programs = {v: _PipelineProgram(v, self.leader, children[v],
                                        list(items) if v == self.leader else None,
                                        len(items))
                    for v in range(self.n)}
        with self.ledger.phase(phase):
            self.run(programs, max_rounds=self.n + len(items) + 2)
        return {v: programs[v].received for v in range(self.n)}

    def convergecast_extremum(self, local_values, mode="max"):
        """Aggregate the max/min of per-node values up the BFS tree to the leader."""
        if mode not in ("max", "min"):
            raise ValueError(f"mode must be 'max' or 'min': {mode!r}")
        parent, children, depth = self._require_tree()
        programs = {v: _ConvergecastProgram(v, parent[v], len(children[v]),
                                            local_values[v], mode)
                    for v in range(self.n)}
        with self.ledger.phase("convergecast"):
            self.run(programs, max_rounds=self.n + 2)
        return programs[self.leader].value

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


class _TreeBuildProgram(NodeProgram):
    def __init__(self, node, root):
        self.node = node
        self.root = root
        self.parent = None
        self.depth = 0 if node == root else None
        self.halted = node != root  # non-root nodes idle until offered

    OFFER, ACCEPT = 0, 1

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


class _PipelineProgram(NodeProgram):
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


class _ConvergecastProgram(NodeProgram):
    def __init__(self, node, parent, n_children, value, mode):
        self.node = node
        self.parent = parent
        self.n_children = n_children
        self.value = value
        self.mode = mode
        self.pending = n_children
        self.halted = False

    def on_round(self, ctx):
        for _, child_value in ctx.inbox:
            pick = max if self.mode == "max" else min
            self.value = pick(self.value, child_value)
            self.pending -= 1
        if self.pending == 0:
            if self.parent is not None:
                ctx.send(self.parent, self.value)
            self.halted = True
