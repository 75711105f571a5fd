import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestsim import gadgets
from congestsim.gadgets import (
    ALICE,
    BOB,
    SERVER,
    bin_bit,
    build_gadget,
    eval_F,
    eval_F_prime,
    gadget_node_count,
    ownership_schedule,
    validate_schedule,
    verify_reduction,
)
from congestsim.graphs import (
    WeightedGraph,
    contract_unit_edges,
    diameter,
    eccentricity,
)

from oracles import (
    VER_X_PROMISE,
    VER_Y_PROMISE,
    adj_index,
    edge_weight,
    encode_ver_x,
    encode_ver_y,
    gdt,
    gdt_promise,
    ind_index,
    reference_validate_schedule,
    ver,
)


def random_bits(size, seed):
    rng = random.Random(seed)
    return tuple(rng.randint(0, 1) for _ in range(size))


# --- index helpers -------------------------------------------------------


def test_bit_helpers():
    assert [bin_bit(5, j) for j in (1, 2, 3)] == [0, 0, 1]  # 5-1 = 100b
    assert adj_index(5, 3) == 1
    assert adj_index(1, 1) == 2
    assert ind_index(1, 2) == 1
    assert ind_index(3, 4) == 1  # 010 vs 011 differ in bit 1
    with pytest.raises(ValueError):
        ind_index(4, 4)


# --- Boolean layers ------------------------------------------------------


def test_eval_F():
    ones = (1,) * 6
    assert eval_F(ones, ones, 2, 3) == 1
    assert eval_F_prime(ones, ones, 2, 3) == 1
    blocked = (0, 0, 0, 1, 1, 1)  # row 0 of x all zero
    assert eval_F(blocked, ones, 2, 3) == 0
    assert eval_F_prime(blocked, ones, 2, 3) == 1
    # single overlapping one: F' = 1; F = 1 iff a single row
    x = (0, 1, 0, 0, 0, 0)
    y = (0, 1, 0, 0, 0, 0)
    assert eval_F_prime(x, y, 2, 3) == 1
    assert eval_F(x, y, 2, 3) == 0
    assert eval_F((0, 1, 0), (1, 1, 0), 1, 3) == 1
    with pytest.raises(ValueError):
        eval_F((1,), (1, 1), 1, 2)
    with pytest.raises(ValueError):
        eval_F((2, 1), (1, 1), 1, 2)


def test_ver():
    assert ver(0, 0) == 1
    assert ver(1, 2) == 0
    assert ver(3, 2) == 1
    for x in range(4):
        for y in range(4):
            assert ver(x, y) == int((x + y) % 4 in (0, 1))
    with pytest.raises(ValueError):
        ver(4, 0)


def test_gdt():
    assert gdt((0, 0, 1, 1), (0, 0, 0, 1)) == 1
    assert gdt((0, 0, 0, 0), (1, 1, 1, 1)) == 0
    with pytest.raises(ValueError):
        gdt((1, 0), (1, 0, 0, 0))


def test_promise_encoding():
    assert [encode_ver_x(v) for v in range(4)] == VER_X_PROMISE
    assert [encode_ver_y(v) for v in range(4)] == VER_Y_PROMISE
    for v in range(4):
        assert sum(encode_ver_y(v)) == 1
        assert sum(encode_ver_x(v)) == 2


def test_gdt_agrees_with_ver_on_promise():
    for xv in range(4):
        for yv in range(4):
            assert gdt_promise(encode_ver_x(xv), encode_ver_y(yv)) \
                == ver(xv, yv)
    with pytest.raises(ValueError):
        gdt_promise((1, 1, 1, 1), encode_ver_y(0))


# --- construction --------------------------------------------------------


def test_node_count_formula():
    # h=2: s=3, l=2, tree 7, 8 paths of 4 (+2 endpoints), 2*8 selectors
    assert gadget_node_count(2) == 71
    assert gadget_node_count(2, "radius") == 72
    inst = build_gadget(2)
    assert inst.graph.n == 71
    assert (inst.s, inst.l, inst.selectors) == (3, 2, 8)
    assert build_gadget(2, variant="radius").graph.n == 72


def test_build_rejects_bad_params():
    with pytest.raises(ValueError):
        build_gadget(3)
    with pytest.raises(ValueError):
        build_gadget(2, x=(1,) * 5)
    with pytest.raises(ValueError):
        build_gadget(2, alpha=10, beta=10)
    with pytest.raises(ValueError):
        build_gadget(2, variant="girth")


def test_selector_degrees():
    for variant, extra in (("diameter", 0), ("radius", 1)):
        inst = build_gadget(2, variant=variant)
        expect = inst.s + inst.l + (inst.selectors - 1) + extra
        for i in range(1, inst.selectors + 1):
            assert len(inst.graph.adj[inst.id("a", i)]) == expect


def test_selector_star_weights_encode_input():
    x = random_bits(16, 1)
    y = random_bits(16, 2)
    inst = build_gadget(2, x=x, y=y)
    for i in range(1, inst.selectors + 1):
        for j in range(1, inst.l + 1):
            bit = x[(i - 1) * inst.l + j - 1]
            w = edge_weight(inst.graph, inst.id("a", i), inst.id("astar", j))
            assert w == (inst.alpha if bit else inst.beta)
            bit = y[(i - 1) * inst.l + j - 1]
            w = edge_weight(inst.graph, inst.id("b", i), inst.id("bstar", j))
            assert w == (inst.alpha if bit else inst.beta)


def test_contracted_shape():
    # unit edges collapse the tree to one node and each path (with its two
    # endpoint attachments) to one router
    for variant, extra in (("diameter", 0), ("radius", 1)):
        inst = build_gadget(2, variant=variant)
        contracted, _ = contract_unit_edges(inst.graph)
        m = 2 * inst.s + inst.l
        assert contracted.n == 1 + m + 2 * inst.selectors + extra


@pytest.mark.parametrize("h, hops", [(2, 7), (4, 14), (6, 18)])
def test_hop_diameter_and_simulated_rounds_fit_the_bound(h, hops):
    # the lower bound needs D = O(log n): here at most 4h hops
    g = build_gadget(h).graph
    assert diameter(g.unit_weights()) == hops <= 4 * h
    # T_max = 2^h/2 - 1 simulated rounds are Theta(n^(2/3)): n tends to
    # 3 * 2^(3h/2), so the ratio climbs to 1 / (2 * 3^(2/3)) = 0.2404
    t_max = 2 ** h // 2 - 1
    assert 1 / 20 < t_max / g.n ** (2 / 3) < 1 / 4


def test_two_edge_cross_paths_use_star_columns():
    inst = build_gadget(2)
    contracted, mapping = contract_unit_edges(inst.graph)
    adj_sets = [set(v for v, _ in contracted.adj[u])
                for u in range(contracted.n)]
    star_routers = {mapping[inst.id("p", 2 * inst.s + j, 1)]
                    for j in range(1, inst.l + 1)}
    for i in range(1, inst.selectors + 1):
        ai = mapping[inst.id("a", i)]
        bi = mapping[inst.id("b", i)]
        assert adj_sets[ai] & adj_sets[bi] == star_routers


# --- exact verification --------------------------------------------------


def test_verify_all_ones_diameter():
    report = verify_reduction(build_gadget(2))
    assert report["pass"] and report["F"] == 1
    n = 71
    assert report["lemma_bound_high"] == 2 * n ** 2 + n
    assert report["D_or_R_exact"] <= report["lemma_bound_high"]


def test_verify_blocked_row():
    x = [1] * 16
    x[0] = x[1] = 0  # row 1 of x fully blocked
    report = verify_reduction(build_gadget(2, x=tuple(x)))
    assert report["pass"] and report["F"] == 0
    assert report["D_or_R_exact"] >= report["lemma_bound_low"] == 3 * 71 ** 2


def test_verify_radius_variants():
    assert verify_reduction(build_gadget(2, variant="radius"))["pass"]
    zeros = (0,) * 16
    report = verify_reduction(build_gadget(2, x=zeros, y=zeros,
                                           variant="radius"))
    assert report["pass"] and report["F"] == 0


def test_verify_random_inputs():
    for seed in range(10):
        for variant in ("diameter", "radius"):
            inst = build_gadget(2, x=random_bits(16, seed),
                                y=random_bits(16, 1000 + seed),
                                variant=variant)
            assert verify_reduction(inst)["pass"]


@pytest.mark.parametrize("h", [2, 4])
@pytest.mark.parametrize("variant", ["diameter", "radius"])
@pytest.mark.parametrize("seed", [None, 3])  # all-ones, then random inputs
def test_verify_report_matches_brute_force_extremum(monkeypatch, h, variant,
                                                    seed):
    size = 2 ** (3 * h // 2) * 2 ** (h // 2)
    bits = {} if seed is None else {"x": random_bits(size, seed),
                                    "y": random_bits(size, 1000 + seed)}
    inst = build_gadget(h, variant=variant, **bits)
    report = verify_reduction(inst)

    def brute_force(extremum):
        return lambda g: extremum(eccentricity(g, u) for u in range(g.n))

    monkeypatch.setattr(gadgets, "diameter", brute_force(max))
    monkeypatch.setattr(gadgets, "radius", brute_force(min))
    assert verify_reduction(inst) == report


def test_table2_clean_at_h2():
    report = verify_reduction(build_gadget(2, x=random_bits(16, 5),
                                           y=random_bits(16, 6)))
    failures = [c for c in report["counterexamples"]
                if c["check"].startswith("table2-")]
    assert report["table2_rows"] > 0 and failures == []


# every check of verify_reduction, made to fire by a broken construction


def reweighed(inst, old, new):
    """`inst` with every edge of weight `old` given weight `new`."""
    g = inst.graph
    return dataclasses.replace(inst, graph=WeightedGraph(
        g.n, [(u, v, new if w == old else w) for u, v, w in g.edges]))


def test_verify_flags_radius_ecc_floor():
    # alpha = 1 makes 3 * alpha a floor the weight-1 contraction breaks
    report = verify_reduction(build_gadget(2, variant="radius", alpha=1,
                                           beta=2))
    assert report["counterexamples"] == [
        {"check": "radius-ecc-floor", "detail": "e'(1) = 2 < 3"}]
    assert not report["pass"]


def test_verify_flags_every_table2_row_and_gap_upper():
    # alpha edges at 3 * alpha break every upper bound of Table 2
    inst = build_gadget(2)
    report = verify_reduction(reweighed(inst, inst.alpha, 3 * inst.alpha))
    assert Counter(c["check"] for c in report["counterexamples"]) == {
        "gap-upper": 1,
        "table2-t-router": 8, "table2-t-a": 8, "table2-t-b": 8,
        "table2-a-a": 56, "table2-b-b": 56, "table2-a-b": 56,
        "table2-a-ownbit": 24, "table2-a-otherbit": 24,
        "table2-b-ownbit": 24, "table2-b-otherbit": 24,
        "table2-a-star": 16, "table2-b-star": 16,
        "table2-router-router": 56}
    assert report["counterexamples"][:2] == [
        {"check": "gap-upper", "detail": "30251 > 10153 with F=1"},
        {"check": "table2-t-router", "detail": "d'(24,8) = 15123 > 5041"}]
    assert report["table2_rows"] == 376


def test_verify_flags_gap_lower():
    # F = 0, yet with beta edges at alpha the diameter stays small
    zeros = (0,) * 16
    inst = build_gadget(2, x=zeros, y=zeros)
    report = verify_reduction(reweighed(inst, inst.beta, inst.alpha))
    assert report["F"] == 0
    assert report["counterexamples"] == [
        {"check": "gap-lower", "detail": "10087 < 15123 with F=0"}]


def test_verify_flags_contraction_sandwich(monkeypatch):
    # contracting weight-1 edges shortens a path by at most n - 1, so only
    # a wrong exact value breaks the sandwich
    monkeypatch.setattr(gadgets, "diameter", lambda g: 10 ** 12)
    report = verify_reduction(build_gadget(2))
    assert report["counterexamples"] == [
        {"check": "contraction-sandwich",
         "detail": "10082 <= 1000000000000 <= 10082 + 71 fails"},
        {"check": "gap-upper", "detail": "1000000000000 > 10153 with F=1"}]


# --- ownership schedule --------------------------------------------------


def test_ownership_round_zero():
    inst = build_gadget(2)
    schedule = ownership_schedule(inst, 0)
    owner = schedule.owners[0]
    for name, vid in inst.node_id.items():
        if name[0] in ("t", "p"):
            assert owner[vid] == SERVER
        elif name[0].startswith("a"):
            assert owner[vid] == ALICE
        else:
            assert owner[vid] == BOB


def test_ownership_bounds():
    inst = build_gadget(2)
    with pytest.raises(ValueError):
        ownership_schedule(inst, 2)  # 2^h/2 = 2
    with pytest.raises(ValueError):
        ownership_schedule(inst, -1)


def test_ownership_validates_at_h4():
    inst = build_gadget(4)
    max_t = 2 ** 4 // 2 - 1
    schedule = ownership_schedule(inst, max_t)
    crossings, violations = validate_schedule(schedule)
    assert violations == []
    assert len(crossings) == max_t
    assert all(c <= 2 * inst.h for c in crossings)
    assert sum(crossings) <= max_t * 2 * inst.h


def test_validate_flags_corrupted_schedule():
    inst = build_gadget(2)
    paths = [vid for name, vid in inst.node_id.items() if name[0] == "p"]

    def corrupted(*changes):
        schedule = ownership_schedule(inst, 1)
        for r, vid, owner in changes:
            schedule.owners[r][vid] = owner
        crossings, violations = validate_schedule(schedule)
        return crossings, Counter(desc for _, _, desc in violations)

    # hand an Alice-side node straight to Bob (no server round in between)
    _, found = corrupted((1, inst.id("a", 1), BOB))
    assert found == {"node handed directly between Alice and Bob": 1,
                     "neighbor on the far side in the previous round": 12}
    # an unowned node belongs to no party, so it hands nothing to Bob
    _, found = corrupted((1, inst.id("a", 1), None))
    assert found == {"node without an owner": 1}
    # the server keeps every path node: each crossing lands off the tree
    crossings, found = corrupted(*[(r, vid, SERVER)
                                   for r in (0, 1) for vid in paths])
    assert crossings == [16]
    assert found == {"crossing at a non-tree node": 16,
                     "16 crossings > 2h = 4": 1}


def test_validate_flags_a_hand_off_from_bob_to_alice():
    inst = build_gadget(2)
    schedule = ownership_schedule(inst, 1)
    b1 = inst.id("b", 1)
    schedule.owners[1][b1] = ALICE
    _, violations = validate_schedule(schedule)
    assert violations[0] == (
        1, b1, "node handed directly between Alice and Bob")
    assert Counter(desc for _, _, desc in violations) == {
        "node handed directly between Alice and Bob": 1,
        "neighbor on the far side in the previous round": 12}


@pytest.mark.parametrize("variant", ["diameter", "radius"])
def test_a_gadget_run_never_builds_adjacency_lists(monkeypatch, variant):
    contractions = []

    def recorded(g):
        contractions.append(contract_unit_edges(g))
        return contractions[-1]

    monkeypatch.setattr(gadgets, "contract_unit_edges", recorded)
    inst = build_gadget(2, variant=variant)
    report = verify_reduction(inst)
    _, violations = validate_schedule(ownership_schedule(inst, 1))
    assert report["pass"] and violations == []
    [(contracted, _)] = contractions
    for g in (inst.graph, contracted):
        assert "weight_masks" in vars(g) and "adj" not in vars(g)


@pytest.mark.parametrize("h", [2, 4, 6])
def test_validate_matches_the_edge_by_edge_reference_on_clean_schedules(h):
    schedule = ownership_schedule(build_gadget(h), 2 ** h // 2 - 1)
    assert validate_schedule(schedule) == reference_validate_schedule(schedule)


GADGETS = {h: build_gadget(h) for h in (2, 4)}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_validate_matches_the_edge_by_edge_reference_on_corrupted_schedules(
        data):
    h = data.draw(st.sampled_from(sorted(GADGETS)))
    inst = GADGETS[h]
    schedule = ownership_schedule(
        inst, data.draw(st.integers(0, 2 ** h // 2 - 1)))
    cells = st.tuples(st.integers(0, schedule.rounds),
                      st.integers(0, inst.graph.n - 1),
                      st.sampled_from([ALICE, BOB, SERVER, None]))
    for r, vid, owner in data.draw(st.lists(cells, min_size=1, max_size=20)):
        schedule.owners[r][vid] = owner
    crossings, violations = validate_schedule(schedule)
    ref_crossings, ref_violations = reference_validate_schedule(schedule)
    assert crossings == ref_crossings
    assert Counter(violations) == Counter(ref_violations)
