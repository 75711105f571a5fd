"""The aborted superposed attempt: closed form against the reference.

Random configurations rarely congest, so these force it: at least three
sources, `stretch` = 2 and delays drawn from 0..|S|.  A node sends the
broadcasts it owes in a window in copy order, and `_superposed_closed_form`
charges an aborted attempt from the congestion keys it counted.  An
attempt that does not abort settles its sources' `levels.source(s).units`.
"""

import random
from fractions import Fraction

import oracles
from congestsim.graphs import random_connected_graph
from congestsim.toolkit import LevelTables, _superposed_closed_form


def _forced_congestion(seed):
    """(levels, sources, delays, stretch) of one configuration that often
    congests: n 3-20, at least three sources, stretch 2."""
    rng = random.Random(f"mssp-abort:{seed}")
    n = rng.randrange(3, 21)
    g = random_connected_graph(n, max_weight=rng.choice([1, 3, 10]), rng=rng)
    sources = sorted(rng.sample(range(n), rng.randrange(3, n + 1)))
    levels = LevelTables(g, rng.randrange(1, n + 1),
                         Fraction(1, rng.randrange(1, 5)))
    return levels, sources, [rng.randint(0, len(sources)) for _ in sources], 2


def test_aborted_attempts_match_the_copy_order_reference():
    aborted, jams = 0, set()
    for seed in range(240):
        args = _forced_congestion(seed)
        fast = _superposed_closed_form(*args)
        reference = oracles.superposed_program(*args)
        assert fast[:3] == reference[:3], f"seed {seed}"
        assert str(fast[3]) == str(reference[3]), f"seed {seed}"
        levels, sources = args[:2]
        assert reference[4] == (None if reference[3] else
                                [levels.source(s).units for s in sources])
        if reference[3] is not None:
            aborted += 1
            jams.add(str(reference[3]).startswith("node 0:"))
    assert aborted >= 100
    assert jams == {True, False}  # jams at node 0 and above it
