import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from congestsim.graphs import (
    INFINITE,
    DisconnectedGraphError,
    GraphError,
    WeightedGraph,
    contract_unit_edges,
    cycle_graph,
    diameter,
    dijkstra,
    eccentricity,
    exact_bounded_hop,
    exact_sssp,
    grid_graph,
    hop_diameter,
    min_hops_on_shortest_paths,
    radius,
    random_connected_graph,
    star_graph,
)

from oracles import all_pairs_relaxation, three_hop_enumeration


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
def small_graphs(draw):
    """A random spanning tree on 1-9 nodes plus random extra edges."""
    n = draw(st.integers(1, 9))
    weights = st.integers(1, 12)
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
        assert dijkstra(g.adj, s, bound) == [
            d if d <= bound else INFINITE for d in row]


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


# every example overwrites the same file, so sharing tmp_path is harmless
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_graphs())
def test_json_roundtrip(tmp_path, g):
    again = WeightedGraph.from_json_dict(g.to_json_dict())
    assert again.n == g.n and sorted(again.edges) == sorted(g.edges)
    path = tmp_path / "g.txt"
    path.write_text(g.to_text())
    again = WeightedGraph.from_file(path)
    assert again.n == g.n and sorted(again.edges) == sorted(g.edges)


def test_rejects_bad_input():
    with pytest.raises(DisconnectedGraphError) as exc:
        WeightedGraph(4, [(0, 1, 1), (2, 3, 1)])
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


@pytest.mark.parametrize("max_weight", [0, -3])
def test_random_graph_rejects_max_weight_below_one(max_weight):
    with pytest.raises(GraphError, match="max_weight"):
        random_connected_graph(8, max_weight=max_weight)


def test_generators_connected():
    for n in (1, 2, 5, 12):
        for gen in (lambda m: random_connected_graph(m, rng=random.Random(n)),
                    cycle_graph, star_graph):
            if gen is star_graph and n < 2:
                continue
            g = gen(n)
            assert len(g.components()) == 1
