import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from congestsim import graphs
from congestsim.gadgets import build_gadget
from congestsim.graphs import (
    INFINITE,
    DisconnectedGraphError,
    GraphError,
    WeightedGraph,
    bfs_hops,
    contract_unit_edges,
    cycle_graph,
    diameter,
    dijkstra,
    eccentricity,
    exact_sssp,
    grid_graph,
    hop_diameter,
    make_graph,
    min_hops_on_shortest_paths,
    radius,
    random_connected_graph,
    star_graph,
)

from oracles import (
    all_pairs_relaxation,
    eager_views,
    exact_bounded_hop,
    three_hop_enumeration,
)


def test_path_distance():
    g = WeightedGraph(3, [(0, 1, 2), (1, 2, 3)])
    assert exact_sssp(g, 0) == [0, 2, 5]


def test_single_node():
    g = WeightedGraph(1, [])
    assert exact_sssp(g, 0) == [0]
    assert diameter(g) == 0 and radius(g) == 0


def test_sssp_matches_relaxation_oracle():
    for seed in range(5):
        g = random_connected_graph(12, rng=random.Random(seed))
        oracle = all_pairs_relaxation(g)
        for s in range(g.n):
            assert exact_sssp(g, s) == oracle[s]


@st.composite
def small_graphs(draw, nodes=st.integers(1, 9), weights=st.integers(1, 12)):
    """A random spanning tree on `nodes` nodes (1-9 by default) plus random
    extra edges."""
    n = draw(nodes)
    edges = {(draw(st.integers(0, v - 1)), v): draw(weights)
             for v in range(1, n)}
    for u, v, w in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1), weights),
                                 max_size=12)):
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), w)
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.data())
def test_dijkstra_matches_relaxation_oracle(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    row = all_pairs_relaxation(g)[s]
    for bound in (0, max(row) // 2, INFINITE):
        dist, order = dijkstra(g.adj, s, bound)
        assert dist == [d if d <= bound else INFINITE for d in row]
        # the settle order is the finite nodes in (dist, node) order
        assert order == sorted(
            (v for v, d in enumerate(dist) if d is not INFINITE),
            key=lambda v: (dist[v], v))


def test_bounded_hop_triangle():
    g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 3)])
    assert exact_bounded_hop(g, 0, 1)[2] == 3
    assert exact_bounded_hop(g, 0, 2)[2] == 2


def test_bounded_hop_zero():
    g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    d = exact_bounded_hop(g, 1, 0)
    assert d == [INFINITE, 0, INFINITE]


def test_bounded_hop_matches_enumeration():
    for seed in range(5):
        g = random_connected_graph(12, rng=random.Random(100 + seed))
        for s in range(g.n):
            assert exact_bounded_hop(g, s, 3) == three_hop_enumeration(g, s)


def test_bounded_hop_monotone_and_converges():
    g = random_connected_graph(10, rng=random.Random(7))
    full = exact_sssp(g, 0)
    prev = exact_bounded_hop(g, 0, 0)
    for hops in range(1, g.n):
        cur = exact_bounded_hop(g, 0, hops)
        assert all(c <= p for c, p in zip(cur, prev))
        prev = cur
    assert exact_bounded_hop(g, 0, g.n - 1) == full


def test_bounded_hop_exact_when_hops_suffice():
    for seed in range(3):
        g = random_connected_graph(12, rng=random.Random(200 + seed))
        for s in range(g.n):
            full = exact_sssp(g, s)
            need = min_hops_on_shortest_paths(g, s)
            for v in range(g.n):
                d = exact_bounded_hop(g, s, need[v])
                assert d[v] == full[v]
                # and minimal: one hop fewer misses every shortest path
                if need[v] >= 1:
                    assert exact_bounded_hop(g, s, need[v] - 1)[v] > full[v]


def test_star_and_edge_metrics():
    g = star_graph(5)
    assert radius(g) == 1 and diameter(g) == 2
    e = WeightedGraph(2, [(0, 1, 7)])
    assert diameter(e) == 7 and radius(e) == 7


def test_metrics_match_oracle():
    g = random_connected_graph(12, rng=random.Random(3))
    oracle = all_pairs_relaxation(g)
    eccs = [max(row) for row in oracle]
    assert diameter(g) == max(eccs)
    assert radius(g) == min(eccs)
    for u in range(g.n):
        assert eccentricity(g, u) == eccs[u]
    assert diameter(g) <= 2 * radius(g)


random_graphs = st.builds(
    lambda n, w, seed: random_connected_graph(n, max_weight=w,
                                              rng=random.Random(seed)),
    st.integers(1, 20), st.integers(1, 1000), st.integers(0, 2 ** 32))


@st.composite
def disconnected_graphs(draw):
    """Two small graphs side by side, with no edge between them."""
    a, b = draw(small_graphs()), draw(small_graphs())
    edges = a.edges + [(u + a.n, v + a.n, w) for u, v, w in b.edges]
    return WeightedGraph(a.n + b.n, edges)


shaped_graphs = st.one_of(
    st.builds(cycle_graph, st.integers(1, 30)),
    st.builds(star_graph, st.integers(1, 30)),
    st.builds(grid_graph, st.integers(1, 6), st.integers(1, 6)))


def assert_extrema_match_oracle(g):
    eccs = [max(row) for row in all_pairs_relaxation(g)]
    assert diameter(g) == max(eccs)
    assert radius(g) == min(eccs)


@settings(max_examples=400, deadline=None)
@given(st.one_of(random_graphs, shaped_graphs))
def test_extrema_match_relaxation_oracle(g):
    assert_extrema_match_oracle(g)


@settings(max_examples=100, deadline=None)
@given(disconnected_graphs())
def test_extrema_of_disconnected_graph_are_infinite(g):
    assert_extrema_match_oracle(g)
    assert diameter(g) == radius(g) == INFINITE


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_graphs(), disconnected_graphs(), shaped_graphs),
       st.data())
def test_bfs_hops_match_relaxation_on_unit_weights(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    row = all_pairs_relaxation(g.unit_weights())[s]
    hops, order = bfs_hops(g.adj, s)
    assert hops == row
    # the reach order covers exactly the reached nodes, nearest first
    assert sorted(order) == [v for v, h in enumerate(row) if h != INFINITE]
    assert all(hops[u] <= hops[v] for u, v in zip(order, order[1:]))


@st.composite
def repeated_weight_graphs(draw):
    """1-14 nodes, random edges whose weights come from a pool of at most
    three, so that a node has several neighbours per weight; not
    necessarily connected."""
    n = draw(st.integers(1, 14))
    pool = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=40))
    edges = {(min(u, v), max(u, v)): draw(st.sampled_from(pool))
             for u, v in pairs if u != v}
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


@settings(max_examples=300, deadline=None)
@given(st.one_of(repeated_weight_graphs(), small_graphs(),
                 disconnected_graphs(), random_graphs, shaped_graphs))
def test_exact_sssp_matches_heap_dijkstra(g):
    for s in range(g.n):
        assert exact_sssp(g, s) == dijkstra(g.adj, s)[0]


@pytest.mark.parametrize("alpha, beta", [(None, None), (3, 5)])
@pytest.mark.parametrize("variant", ["diameter", "radius"])
def test_exact_sssp_matches_heap_dijkstra_on_h2_gadgets(variant, alpha, beta):
    # alpha = 3, beta = 5: the contraction's weights are not multiples of
    # one another
    inst = build_gadget(2, variant=variant, alpha=alpha, beta=beta)
    contracted, _ = contract_unit_edges(inst.graph)
    for g in (inst.graph, contracted):
        for s in range(g.n):
            assert exact_sssp(g, s) == dijkstra(g.adj, s)[0]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["diameter", "radius"]),
       st.lists(st.integers(0, 1), min_size=32, max_size=32))
def test_extrema_of_h2_gadgets_match_relaxation_oracle(variant, bits):
    inst = build_gadget(2, x=tuple(bits[:16]), y=tuple(bits[16:]),
                        variant=variant)
    assert_extrema_match_oracle(inst.graph)


def test_extrema_run_fewer_than_n_over_2_dijkstras(monkeypatch):
    calls = []
    kernel = graphs.exact_sssp
    monkeypatch.setattr(graphs, "exact_sssp",
                        lambda g, s: calls.append(s) or kernel(g, s))
    for variant, extremum in (("diameter", diameter), ("radius", radius)):
        g = build_gadget(4, variant=variant).graph  # all-ones inputs
        calls.clear()
        extremum(g)
        assert len(calls) < g.n / 2


def test_hop_diameter_cycle():
    g = cycle_graph(8)
    assert hop_diameter(g) == 4
    assert hop_diameter(grid_graph(3, 3)) == 4


def test_contract_unit_path():
    g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    c, mapping = contract_unit_edges(g)
    assert c.n == 1
    assert mapping == [0, 0, 0, 0]
    assert diameter(g) == 3 <= 0 + g.n


def test_contract_identity_without_unit_edges():
    g = WeightedGraph(3, [(0, 1, 2), (1, 2, 3)])
    c, mapping = contract_unit_edges(g)
    assert c.n == 3
    assert sorted(c.edges) == sorted(g.edges)
    assert mapping == [0, 1, 2]


def test_contract_parallel_edges_keep_minimum():
    # 0-1 contracts; edges 0-2 (5) and 1-2 (3) become parallel, keep 3
    g = WeightedGraph(3, [(0, 1, 1), (0, 2, 5), (1, 2, 3)])
    c, mapping = contract_unit_edges(g)
    assert c.n == 2
    assert c.edges == [(0, 1, 3)]


@pytest.mark.parametrize("first, second", [(2, 7), (7, 2)],
                         ids=["light-first", "heavy-first"])
def test_contraction_keeps_the_lighter_parallel_edge(first, second):
    # weight-1 classes {0, 1} and {2, 3}, joined by 0-2 and 1-3
    g = WeightedGraph(4, [(0, 1, 1), (2, 3, 1), (0, 2, first),
                          (3, 1, second)])
    c, mapping = contract_unit_edges(g)
    assert mapping == [0, 0, 1, 1]
    assert c.edges == [(0, 1, 2)]


def assert_contraction_matches_unit_classes(g):
    c, mapping = contract_unit_edges(g)
    unit = all_pairs_relaxation(WeightedGraph(
        g.n, [e for e in g.edges if e[2] == 1]))
    for u in range(g.n):
        for v in range(g.n):
            assert (mapping[u] == mapping[v]) == (unit[u][v] < INFINITE)
    # classes are numbered in the order of their least nodes
    least = {}
    for v in range(g.n):
        least.setdefault(mapping[v], v)
    assert list(least) == list(range(c.n))
    # one edge per pair of classes joined in g, at its least weight
    lightest = {}
    for u, v, w in g.edges:
        cu, cv = sorted((mapping[u], mapping[v]))
        if cu != cv:
            lightest[cu, cv] = min(w, lightest.get((cu, cv), w))
    assert all(u != v for u, v, _ in c.edges)
    assert {(min(u, v), max(u, v)): w for u, v, w in c.edges} == lightest
    assert len(c.edges) == len(lightest)


@settings(max_examples=200, deadline=None)
@given(small_graphs(st.integers(1, 40), st.integers(1, 3)))
def test_contraction_classes_match_unit_subgraph_reachability(g):
    assert_contraction_matches_unit_classes(g)


@pytest.mark.parametrize("variant", ["diameter", "radius"])
def test_contraction_classes_of_h2_gadgets(variant):
    assert_contraction_matches_unit_classes(
        build_gadget(2, variant=variant).graph)


def test_contraction_sandwich():
    for seed in range(30):
        g = random_connected_graph(12, max_weight=4, rng=random.Random(seed))
        c, _ = contract_unit_edges(g)
        assert c.n >= 1
        dc = diameter(c) if c.n > 1 else 0
        rc = radius(c) if c.n > 1 else 0
        assert dc <= diameter(g) <= dc + g.n
        assert rc <= radius(g) <= rc + g.n


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_text_roundtrip(g):
    again = WeightedGraph.from_text(g.to_text())
    assert again.n == g.n and sorted(again.edges) == sorted(g.edges)


# every example writes a file of its own name, so sharing tmp_path is
# harmless; truncating and rewriting one non-empty file instead makes ext4
# flush it first, which took up to 1.8 s over the 100 examples
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_graphs())
def test_json_roundtrip(tmp_path, g):
    again = WeightedGraph.from_json_dict(g.to_json_dict())
    assert again.n == g.n and sorted(again.edges) == sorted(g.edges)
    path = tmp_path / f"g{len(list(tmp_path.iterdir()))}.txt"
    path.write_text(g.to_text())
    again = WeightedGraph.from_file(path)
    assert again.n == g.n and sorted(again.edges) == sorted(g.edges)


def test_rejects_bad_input():
    two_parts = WeightedGraph(5, [(0, 1, 1), (2, 3, 1), (3, 4, 1), (2, 4, 1)])
    for read in (lambda: WeightedGraph.from_text(two_parts.to_text()),
                 lambda: WeightedGraph.from_json_dict(two_parts.to_json_dict())):
        with pytest.raises(DisconnectedGraphError) as exc:
            read()
        assert len(exc.value.components) == 2
    with pytest.raises(GraphError):
        WeightedGraph(2, [(0, 1, 0)])
    with pytest.raises(GraphError):
        WeightedGraph(2, [(0, 1, 1.5)])
    with pytest.raises(GraphError):
        WeightedGraph(2, [(0, 0, 1)])
    with pytest.raises(GraphError):
        WeightedGraph(2, [(0, 1, 1), (1, 0, 2)])
    with pytest.raises(GraphError):
        exact_sssp(WeightedGraph(2, [(0, 1, 1)]), 5)


@pytest.mark.parametrize("build, message", [
    (lambda: WeightedGraph(0, []), "node_count must be >= 1: 0"),
    (lambda: WeightedGraph(2, [(0, 2, 1)]), "edge (0,2) out of range for n=2"),
    (lambda: WeightedGraph.from_text("5"), "graph text must start with 'n m'"),
    (lambda: WeightedGraph.from_text("2 1\n0 1"),
     "expected 3 edge tokens, got 2"),
    (lambda: make_graph("nope", 3), "unknown generator 'nope'"),
    (lambda: random_connected_graph(0), "n must be >= 1"),
])
def test_each_bad_input_is_one_graph_error(build, message):
    with pytest.raises(GraphError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("node_count, edges, message", [
    (2, [(1, 1, 0)], "self-loop at node 1"),
    (2, [(0, 3, 1.5)], "edge (0,3) out of range for n=2"),
    (3, [(0, 2, 1), (2, 0, 5)], "duplicate edge (0, 2)"),
])
def test_an_edge_with_two_faults_reports_the_first_check(node_count, edges,
                                                         message):
    # endpoints, range, self-loop, weight, duplicate: in that order
    with pytest.raises(GraphError) as exc:
        WeightedGraph(node_count, edges)
    assert str(exc.value) == message


def test_edges_with_equal_endpoint_sums_are_not_duplicates():
    g = WeightedGraph(4, [(0, 3, 1), (2, 1, 4), (2, 0, 1)])
    assert g.edges == [(0, 3, 1), (1, 2, 4), (0, 2, 1)]


def test_views_of_a_graph_given_in_both_orientations():
    g = WeightedGraph(4, [(0, 1, 2), (2, 0, 2), (3, 0, 5), (1, 3, 2)])
    assert g.edges == [(0, 1, 2), (0, 2, 2), (0, 3, 5), (1, 3, 2)]
    assert g.weight_masks == [[(2, 0b0110), (5, 0b1000)], [(2, 0b1001)],
                              [(2, 0b0001)], [(5, 0b0001), (2, 0b0010)]]
    assert "adj" not in vars(g)  # the connectivity check reads the masks
    assert g.adj == [[(1, 2), (2, 2), (3, 5)], [(0, 2), (3, 2)], [(0, 2)],
                     [(0, 5), (1, 2)]]


@settings(max_examples=100, deadline=None)
@given(small_graphs(st.integers(1, 12), st.integers(1, 3)), st.data())
def test_views_equal_the_eager_build_in_either_orientation(g, data):
    flips = data.draw(st.lists(st.booleans(), min_size=len(g.edges),
                               max_size=len(g.edges)))
    edges = [(v, u, w) if flip else (u, v, w)
             for (u, v, w), flip in zip(g.edges, flips)]
    again = WeightedGraph(g.n, edges)
    adj, masks = eager_views(g.n, edges)
    assert again.edges == g.edges
    assert again.weight_masks == masks
    assert again.adj == adj


# from 1, nodes 3 and 5 lead on to 6 and to 8
FOUR_PARTS = [(5, 1, 1), (4, 0, 2), (6, 3, 1), (1, 3, 1), (8, 5, 3)]
FOUR_COMPONENTS = [[0, 4], [1, 3, 5, 6, 8], [2], [7]]


def test_components_are_sorted_and_ordered_by_least_node():
    assert WeightedGraph(9, FOUR_PARTS).components() == FOUR_COMPONENTS
    # n - 1 edges, so the readers get past their edge count
    g = WeightedGraph(9, FOUR_PARTS + [(3, 5, 2), (6, 8, 1), (1, 6, 4)])
    assert g.components() == FOUR_COMPONENTS
    for read in (lambda: WeightedGraph.from_text(g.to_text()),
                 lambda: WeightedGraph.from_json_dict(g.to_json_dict())):
        with pytest.raises(DisconnectedGraphError) as exc:
            read()
        assert exc.value.components == FOUR_COMPONENTS
        assert str(exc.value) == ("graph is disconnected (4 components): "
                                  "[0, 4], [1, 3, 5, 6, 8], [2], [7]")


def test_a_graph_is_its_checked_edges_connected_or_not():
    g = WeightedGraph(9, FOUR_PARTS)
    # neither `adj` nor `weight_masks` is built yet
    assert sorted(vars(g)) == ["edges", "n"]
    assert g.components() == FOUR_COMPONENTS


def _union_find_components(n, edges):
    """The components of (n, edges) by union-find, each sorted, ordered by
    their least node."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v, _ in edges:
        root[find(u)] = find(v)
    parts = {}
    for v in range(n):
        parts.setdefault(find(v), []).append(v)
    return sorted(parts.values())


def test_the_readers_check_connectivity_without_keeping_a_view():
    # the readers' check kept the `weight_masks` that `components()` built,
    # 168,360 bytes on the seeded n = 256 graph, which the estimators
    # never read; it now ORs each node's neighbour mask from `edges`
    g = random_connected_graph(64, rng=random.Random(3))
    for read in (WeightedGraph.from_text(g.to_text()),
                 WeightedGraph.from_json_dict(g.to_json_dict())):
        assert sorted(vars(read)) == ["edges", "n"]
        assert read.components() == [list(range(64))]
        assert sorted(vars(read)) == ["edges", "n"]
    rng = random.Random(5)
    split = 0
    for _ in range(200):
        n = rng.randint(1, 24)
        edges = [(u, v, rng.randint(1, 9)) for u in range(n)
                 for v in range(u + 1, n) if rng.random() < 0.12]
        g = WeightedGraph(n, edges)
        assert g.components() == _union_find_components(n, edges)
        assert sorted(vars(g)) == ["edges", "n"]
        split += len(g.components()) > 1
    assert split > 20


@pytest.mark.parametrize("edge", [(0, 1), [0, 1], None, 5, (0, 1, 1, 1),
                                  (0, 7)])
def test_an_edge_that_is_not_a_triple_is_one_graph_error(edge):
    # checked before the endpoints: (0, 7) is not reported out of range
    with pytest.raises(GraphError) as exc:
        WeightedGraph(2, [(0, 1, 1), edge])
    assert str(exc.value) == f"edge must be a (u, v, w) triple: {edge!r}"


def test_make_graph_builds_a_star():
    g = make_graph("star", 5)
    assert g.n == 5 and sorted(g.edges) == [(0, v, 1) for v in range(1, 5)]


@pytest.mark.parametrize("weight", [Fraction(5, 2), Fraction(3), 2.0, True])
def test_weights_are_ints_only(weight):
    with pytest.raises(GraphError, match="positive int"):
        WeightedGraph(2, [(0, 1, weight)])


@pytest.mark.parametrize("node_count, edge", [
    (True, None), (2.0, None), (2, (0, True, 1)), (2, (False, 1, 1)),
    (2, (0, 1.0, 1)),
])
def test_node_count_and_endpoints_are_ints_only(node_count, edge):
    edges = [] if edge is None else [edge]
    with pytest.raises(GraphError, match="must be an int"):
        WeightedGraph(node_count, edges)
    with pytest.raises(GraphError, match="must be an int"):
        WeightedGraph.from_json_dict({"node_count": node_count,
                                      "edges": [list(e) for e in edges]})


def test_graph_files_with_too_few_edges_are_refused_before_allocation():
    # n - 1 edges or more may connect n nodes; fewer never can
    for text in ("3 1\n0 1 1\n", "1000000000 0\n"):
        with pytest.raises(GraphError, match="cannot connect") as exc:
            WeightedGraph.from_text(text)
        assert not isinstance(exc.value, DisconnectedGraphError)
    with pytest.raises(GraphError, match="cannot connect"):
        WeightedGraph.from_json_dict({"node_count": 10 ** 9, "edges": []})
    assert WeightedGraph.from_text("1 0\n").n == 1
    with pytest.raises(DisconnectedGraphError):  # enough edges, two parts
        WeightedGraph.from_text("4 3\n0 1 1\n1 2 1\n0 2 1\n")


@pytest.mark.parametrize("max_weight", [0, -3])
def test_random_graph_rejects_max_weight_below_one(max_weight):
    with pytest.raises(GraphError, match="max_weight"):
        random_connected_graph(8, max_weight=max_weight)


@pytest.mark.parametrize("n, shape", [(1, (1, 1)), (3, (1, 3)), (35, (5, 7)),
                                      (36, (6, 6))])
def test_grid_generator_builds_exactly_n_nodes(n, shape):
    g = make_graph("grid", n)
    assert g.n == n
    assert sorted(g.edges) == sorted(grid_graph(*shape).edges)


@pytest.mark.parametrize("n", [5, 32, 37])
def test_grid_generator_refuses_an_n_it_cannot_build(n):
    # isqrt(n) does not divide n: 5 would build 6 nodes, 37 would build 42
    with pytest.raises(GraphError, match="multiple of isqrt"):
        make_graph("grid", n)


def test_generators_connected():
    # no builder checks connectivity: each is connected by construction
    built = 0
    for n in range(1, 41):
        for kind in ("random-connected", "cycle", "star", "grid"):
            if kind == "grid" and n % math.isqrt(n):
                continue  # make_graph refuses it
            g = make_graph(kind, n, rng=random.Random(n))
            assert g.n == n and len(g.components()) == 1, (kind, n)
            built += 1
    assert built == 3 * 40 + 16
    for h in (2, 4):
        for variant in ("diameter", "radius"):
            assert len(build_gadget(h, variant=variant).graph.components()) == 1
