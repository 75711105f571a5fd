"""
The bounded-hop approximation pipeline, stage by stage
======================================================

Run the whole distance pipeline on one graph with a full skeleton (S = V)
and check each node's approximate eccentricity against the exact one's
(1+eps)^2 sandwich.  With S = V and the hop bound at n the result is
deterministic: every value must land inside the sandwich, with exact
rational arithmetic.
"""

import random

from congestsim import Network
from congestsim.graphs import diameter, exact_sssp, random_connected_graph
from congestsim.toolkit import (
    LevelTables,
    approx_eccentricity,
    build_skeleton_state,
    default_eps,
    embed_overlay,
    sssp_on_overlay,
)

g = random_connected_graph(12, max_weight=10, rng=random.Random(7))
net = Network(g, seed=7)
eps = default_eps(g.n)
# the overlay embedding charges its broadcasts by the hop diameter
d_g = diameter(g.unit_weights())
print(f"n = {g.n}, eps = {eps}, hop diameter = {d_g}")

# Stage 1: multi-source bounded-hop tables (superposed delayed copies),
# from the rounded levels of (graph, hops = n, eps).  The pass is charged
# in closed form, the messages its per-node programs would send, and
# runs no engine program; it returns the skeleton's sorted members.
levels = LevelTables(g, hops=g.n, eps=eps)
members = build_skeleton_state(net, range(g.n), levels)

# Stage 2+3: the k-shortcut overlay on the skeleton, and the rounded
# levels of that overlay (a graph on the skeleton) the probes read, in
# the one frozen SkeletonState every probe reads.
state = embed_overlay(net, members, levels, k=4, d_g=d_g)
print(f"{len(state.overlay_levels.graph.edges)} overlay edges")

# Stage 4: bounded-hop distances on the overlay, one source at a time:
# each probe's table is integers in the overlay's unit, one per member.
# Reading a table charges nothing: a probe's rounds (`setup`,
# `overlay-sssp`, `eval`) are the block `search.SkeletonOracle.init`
# builds, which `search.evaluate_f_i` charges once per draw, so the
# ledger printed below has no `overlay-sssp` phase.
tables = [sssp_on_overlay(state, s) for s in members]

# Stage 5: node-local combination into each source's approximate
# eccentricity (every node's approximate distance from s, maximized),
# checked against the exact oracle.
slack = (1 + eps) ** 2
worst = 0
for s, approx in zip(members, approx_eccentricity(state, tables)):
    exact = max(exact_sssp(g, s))
    assert exact <= approx <= slack * exact
    worst = max(worst, approx / exact)
print(f"all {g.n} eccentricities inside the sandwich; "
      f"worst ratio {float(worst):.4f} (bound {float(slack):.4f})")

totals = {}
for phase in net.ledger.phases:
    totals[phase.name] = totals.get(phase.name, 0) + phase.rounds
for name, rounds in totals.items():
    if rounds:
        print(f"  {name:>14}: {rounds} rounds")
print(f"total rounds: {net.ledger.rounds}")
