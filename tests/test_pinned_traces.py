"""Every inner search of the twelve seeded estimator runs of
`test_pinned_records.py`, pinned to the traces of an earlier commit.

An estimator appends one `SearchTrace` per evaluation of f(i) to its
`trace_sink`, then the outer search's.  A change that only makes the
search faster must leave each inner trace as it was: its draws, in order,
with their values (`probes`), the source it kept (`found`, the first drawn
source with the extremum), its value and its counts.  Each row is
(generator, n, trial seed, mode, inner traces, sha256 of the inner traces'
canonical JSON), run as `congestsim approx --seed 7` (or 101) runs its
trial 0.
"""

import hashlib
import json
import random

import pytest

from congestsim.engine import Network
from congestsim.graphs import make_graph
from congestsim.search import ParameterSchedule, approx_diameter, approx_radius

PINNED = [
    ("random-connected", 32, "7:0", "diameter", 40,
     "e153af218a5315d66245540790aceed30bf0e0a904d6346cae18e6286b1ba12d"),
    ("random-connected", 32, "7:0", "radius", 40,
     "bbebb147e741e69a67fc115908053593b55d5e98e1bdff193c92c0a39622237a"),
    ("random-connected", 32, "101:0", "diameter", 40,
     "8b79ad1dbc51f87bef1f393c09d669272543266123a0e3326e3227e0774b93af"),
    ("random-connected", 32, "101:0", "radius", 40,
     "865c2f920b6916ff7ab692eea40d0c0cd993e6eea56a0ddc142b2c5e2b7ef453"),
    ("cycle", 32, "7:0", "diameter", 54,
     "242ed33b3acead2f99089ac2f8227d9ab0209a009bc088ad218b9a5773ef06b8"),
    ("cycle", 32, "7:0", "radius", 54,
     "7c4787e5aab69c178f236f9fbf6e65812028cca6d0404b64b01d3983b6c716e8"),
    ("cycle", 32, "101:0", "diameter", 54,
     "561e817e13c0160e646368f3cc70cb70fdd78309241bf6f99ffb3d565c9f730b"),
    ("cycle", 32, "101:0", "radius", 54,
     "5e40c85d80b29abe209a03f55679c9a064b09bcda3c05d60f66734a4d589f5f4"),
    ("grid", 36, "7:0", "diameter", 60,
     "b630415a34145c50ff90ac07697eeb8214fb129d542b6a7aef2d5d82b9cf377e"),
    ("grid", 36, "7:0", "radius", 60,
     "12edbe50dfb23976af4f1d5a8198e221770afb549d9abdc3ee41d2dd2cd8738e"),
    ("grid", 36, "101:0", "diameter", 59,
     "34afbe1aebc15f42fd4523fb836b436f6bc6bdad1b6e3659df09861a18ff411f"),
    ("grid", 36, "101:0", "radius", 59,
     "f98f5ddb13acfe9db846f92f65e3b60c0d45f6b267bcda15ca9b8d48d6f3fb9e"),
]


def canonical(trace):
    """The fields of one inner trace, as JSON-ready values."""
    return [trace.mode, trace.candidate_count, trace.evaluations,
            trace.eval_rounds, trace.charged_rounds, trace.found,
            str(trace.value), [[x, str(v)] for x, v in trace.probes]]


def inner_traces(kind, n, seed, mode):
    g = make_graph(kind, n, max_weight=10, rng=random.Random(seed))
    run = approx_diameter if mode == "diameter" else approx_radius
    sink = []
    _, outer, _ = run(Network(g, seed=seed), ParameterSchedule.for_graph(g),
                      rng=random.Random(seed), trace_sink=sink)
    assert sink[-1] is outer
    return [canonical(t) for t in sink[:-1]]


@pytest.mark.parametrize(
    "kind, n, seed, mode, count, traces_sha256", PINNED,
    ids=[f"{row[0]}-{row[2]}-{row[3]}" for row in PINNED])
def test_inner_search_traces_match_pinned(kind, n, seed, mode, count,
                                          traces_sha256):
    traces = inner_traces(kind, n, seed, mode)
    assert len(traces) == count
    assert hashlib.sha256(json.dumps(traces).encode()).hexdigest() \
        == traces_sha256
