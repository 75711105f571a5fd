"""Forced jams: the pigeonhole count against two references.

`_superposed_closed_form` counts the first b - stretch + 1 of an
attempt's b copies on every congestion key, keeps the keys those owe at
least twice, and counts the later copies on the kept keys only.  A key
owed more than `stretch` times is owed twice by any b - stretch + 1
copies, so each key that can jam keeps its exact count.  These attempts
align the windows of stretch + 1 copies at one node, so each has a key
owed more than `stretch` times, with b = stretch + 1 ... stretch + 3
copies, and compare (rounds, messages, bits, failure text) with
`oracles.unfiltered_closed_form`, which counts every key of every copy,
and with `oracles.superposed_program`, the message-level run.
"""

import random
from fractions import Fraction

import oracles
from congestsim.graphs import INFINITE, random_connected_graph
from congestsim.toolkit import LevelTables, _superposed_closed_form


def _forced_jam(seed):
    """(levels, sources, delays, stretch) of an attempt with b = stretch +
    1 + seed % 3 copies, stretch + 1 of which owe one key: their delays
    put their broadcasts at one node in one window of one level, and
    the other copies' delays are drawn as `bounded_hop_mssp` draws them."""
    rng = random.Random(f"mssp-jam:{seed}")
    stretch = rng.randrange(2, 5)
    b = stretch + 1 + seed % 3
    n = rng.randrange(b, 21)
    g = random_connected_graph(n, max_weight=rng.choice([1, 3, 10]), rng=rng)
    # a budget of at least 3 * hops >= n - 1 at the top level, where every
    # weight rounds to 1: every source reaches every node there
    levels = LevelTables(g, rng.randrange(max(1, n // 3), n + 1),
                         Fraction(1, rng.randrange(1, 5)))
    sources = sorted(rng.sample(range(n), b))
    delays = [rng.randint(0, b * stretch) for _ in sources]
    aligned = rng.sample(range(b), stretch + 1)
    passes = [[levels.level_pass(sources[copy], level)
               for level in range(len(levels))] for copy in aligned]
    shared = [(level, v) for level in range(len(levels)) for v in range(n)
              if all(dists[level][v] is not INFINITE for dists in passes)]
    level, v = rng.choice(shared)
    far = max(dists[level][v] for dists in passes)
    for copy, dists in zip(aligned, passes):
        delays[copy] = far - dists[level][v]
    return levels, sources, delays, stretch


def _outcome(result):
    rounds, messages, bits, failure = result[:4]
    return rounds, messages, bits, str(failure)


def test_forced_jams_match_the_unfiltered_and_the_message_level_count():
    sizes = set()
    for seed in range(150):
        args = _forced_jam(seed)
        sources, stretch = args[1], args[3]
        fast = _outcome(_superposed_closed_form(*args))
        assert fast == _outcome(oracles.unfiltered_closed_form(*args)), \
            f"seed {seed}"
        assert fast == _outcome(oracles.superposed_program(*args)), \
            f"seed {seed}"
        assert fast[3] != "None", f"seed {seed}"  # every attempt jams
        sizes.add(len(sources) - stretch)
    assert sizes == {1, 2, 3}


def test_an_aborted_attempt_reads_no_pass_once_its_keys_are_built(
        monkeypatch):
    # the keys and the tables are kept per source, so a repeat of an
    # attempt reads no level pass and builds no level
    args = _forced_jam(7)
    assert _superposed_closed_form(*args)[3] is not None
    calls = []
    for name in ("_pass", "_level"):
        method = getattr(LevelTables, name)
        monkeypatch.setattr(
            LevelTables, name, lambda self, *a, name=name, method=method:
            calls.append(name) or method(self, *a))
    again = _superposed_closed_form(*args)
    assert again[3] is not None and calls == []
