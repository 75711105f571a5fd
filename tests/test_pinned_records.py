"""Seeded estimator runs and gadget reports pinned to the values of an
earlier commit.

A change that only makes the simulator faster must leave every estimate,
ledger, round clock and gadget report byte-identical; these sixteen runs
check that without a second checkout.  Each of the twelve estimator rows
is (generator, n, trial seed, mode, estimate, sha256 of
`ledger.to_json()`, `round_clock`), run as `congestsim approx --seed 7`
(or 101) runs its trial 0.  Each of the four gadget rows is (variant,
input seed, F, sha256 of the `verify_reduction` report as canonical JSON)
at h = 4.
"""

import hashlib
import json
import random

import pytest

from congestsim.engine import Network
from congestsim.gadgets import build_gadget, verify_reduction
from congestsim.graphs import make_graph
from congestsim.search import ParameterSchedule, approx_diameter, approx_radius

PINNED = [
    ("random-connected", 32, "7:0", "diameter", "18",
     "c941a0aa0900fb4dc0789f7215fe32bb1d10a04ff9112128ad4980ee157dec56",
     78337324),
    ("random-connected", 32, "7:0", "radius", "10",
     "c941a0aa0900fb4dc0789f7215fe32bb1d10a04ff9112128ad4980ee157dec56",
     78337324),
    ("random-connected", 32, "101:0", "diameter", "14",
     "3e1759ffd204752ce9164070c504dd6f32f586afe5a96006118bc43c7510d715",
     39144684),
    ("random-connected", 32, "101:0", "radius", "9",
     "3e1759ffd204752ce9164070c504dd6f32f586afe5a96006118bc43c7510d715",
     39144684),
    ("cycle", 32, "7:0", "diameter", "16",
     "bc21c4f6b79c119d821d3004015c4dd72ce90c6679d3b86ea550a1975e908d85",
     65935151),
    ("cycle", 32, "7:0", "radius", "16",
     "bc21c4f6b79c119d821d3004015c4dd72ce90c6679d3b86ea550a1975e908d85",
     65935151),
    ("cycle", 32, "101:0", "diameter", "16",
     "1d7f99154559282899f128d5238aea0593d703040cdcdcbb68fffb60e23c46f1",
     47615921),
    ("cycle", 32, "101:0", "radius", "16",
     "1d7f99154559282899f128d5238aea0593d703040cdcdcbb68fffb60e23c46f1",
     47615921),
    ("grid", 36, "7:0", "diameter", "10",
     "90bf9e9aee6b5edec5980da18fa701702967620d736021127b7de3ed475f4c29",
     44002871),
    ("grid", 36, "7:0", "radius", "6",
     "90bf9e9aee6b5edec5980da18fa701702967620d736021127b7de3ed475f4c29",
     44002871),
    ("grid", 36, "101:0", "diameter", "10",
     "37b43c8fe41f18991a296ec35950c71b21572110c94ae831024daa7fa798f837",
     61290431),
    ("grid", 36, "101:0", "radius", "6",
     "37b43c8fe41f18991a296ec35950c71b21572110c94ae831024daa7fa798f837",
     61290431),
]


@pytest.mark.parametrize(
    "kind, n, seed, mode, estimate, ledger_sha256, round_clock", PINNED,
    ids=[f"{row[0]}-{row[2]}-{row[3]}" for row in PINNED])
def test_seeded_run_matches_pinned_record(kind, n, seed, mode, estimate,
                                          ledger_sha256, round_clock):
    g = make_graph(kind, n, max_weight=10, rng=random.Random(seed))
    net = Network(g, seed=seed)
    run = approx_diameter if mode == "diameter" else approx_radius
    value, _, ledger = run(net, ParameterSchedule.for_graph(g),
                           rng=random.Random(seed))
    assert str(value) == estimate
    assert hashlib.sha256(ledger.to_json().encode()).hexdigest() \
        == ledger_sha256
    assert net.round_clock == round_clock


# h = 4: 2^6 selector rows of 2^2 columns
ROWS, COLS = 64, 4

PINNED_REPORTS = [
    ("diameter", 1, 0,
     "18ceecc738f09171cfb13bdaff275b7745fe08e55bec5b5300f54ac51f3da019"),
    ("diameter", 2, 1,
     "8a9da456d27e5476c4f4ff6f6bd05066fa266721641c53dc343bea0fd2615242"),
    ("radius", 1, 1,
     "c25917412e9eb1e165cfbe211fecbda6fc44058f2f1e6d534be595a40a9d2d78"),
    ("radius", 2, 0,
     "86c2f7a874860735d06c3ddbcf2b88f67aa8060f58a2a76f1bf8d24bcd8c430f"),
]


def gadget_inputs(variant, seed):
    """Uniform bits from `seed`, which give F = 0 and F' = 1; an even seed
    plants a common one in every row (F = 1) or clears every common one
    (F' = 0), so both sides of the gap lemma are pinned."""
    rng = random.Random(seed)
    x = [rng.randint(0, 1) for _ in range(ROWS * COLS)]
    y = [rng.randint(0, 1) for _ in range(ROWS * COLS)]
    if seed % 2 == 0:
        if variant == "diameter":
            for r in range(ROWS):
                k = r * COLS + rng.randrange(COLS)
                x[k] = y[k] = 1
        else:
            y = [b & (1 - a) for a, b in zip(x, y)]
    return x, y


@pytest.mark.parametrize("variant, seed, F, report_sha256", PINNED_REPORTS,
                         ids=[f"{row[0]}-{row[1]}" for row in PINNED_REPORTS])
def test_gadget_report_matches_pinned_record(variant, seed, F,
                                             report_sha256):
    x, y = gadget_inputs(variant, seed)
    report = verify_reduction(build_gadget(4, x, y, variant=variant))
    assert report["F"] == F and report["pass"]
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()) \
        .hexdigest() == report_sha256
