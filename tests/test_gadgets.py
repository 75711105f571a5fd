import random

import pytest

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
from congestsim.graphs import contract_unit_edges, eccentricity

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
    schedule = ownership_schedule(inst, 1)
    # hand an Alice-side node straight to Bob (no server round in between)
    schedule.owners[1][inst.id("a", 1)] = BOB
    _, violations = validate_schedule(schedule)
    assert violations
