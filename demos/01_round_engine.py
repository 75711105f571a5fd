"""
A first look at the round engine
================================

Flood a one-bit token through a small network and watch the cost ledger:
rounds, messages, and bits, all under the per-edge bandwidth limit.
"""

import random

from congestsim import Network, NodeProgram
from congestsim.graphs import random_connected_graph


# A tiny per-node program: forward the token once, away from its senders.
class Flood(NodeProgram):
    def __init__(self, node, origin):
        self.node = node
        self.origin = origin
        self.seen = node == origin
        self.halted = node != origin

    def on_round(self, ctx):
        if self.node == self.origin and ctx.local_round == 0:
            ctx.broadcast(1)
        else:
            senders = {u for u, _ in ctx.inbox}
            if senders and not self.seen:
                self.seen = True
                for v in ctx.neighbors():
                    if v not in senders:
                        ctx.send(v, 1)
        self.halted = True


g = random_connected_graph(12, rng=random.Random(1))
net = Network(g, seed=1)
print(f"n = {g.n}, bandwidth = {net.bandwidth_bits} bits/edge/round")

# The run charges what the flood sent, and its rounds, as one phase named
# by its caller; the ledger below holds that "flood" phase.
rounds = net.run({v: Flood(v, 0) for v in range(g.n)}, "flood")
print(f"flood finished in {rounds} rounds")
print(net.ledger.to_json())

# The engine also ships two tree primitives, charged in closed form: the
# BFS tree, and a pipelined broadcast down it that only charges its cost
# (every node learns every item; k items take k + height - 1 rounds).
parent, depth = net.build_bfs_tree()
print(f"BFS tree of height {max(depth)}; node {g.n - 1}'s parent is "
      f"{parent[g.n - 1]}")
net.broadcast_pipeline([10, 20, 30])
print("3 items broadcast:", net.ledger.phases[-1])
