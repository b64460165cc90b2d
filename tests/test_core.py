"""Graph construction, neighborhoods, connectivity."""

import random

import networkx as nx
import pytest

from locdom import (
    DuplicateEdgeError,
    EdgeRangeError,
    EnumerationSpec,
    Graph,
    SelfLoopError,
    VertexRangeError,
    bits,
    enumerate_graphs,
    is_connected,
)
from locdom.core import bfs_layers
from conftest import random_graph, to_networkx


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_bits_iterates_set_positions():
    assert list(bits(0)) == []
    assert list(bits(0b1)) == [0]
    assert list(bits(0b101101)) == [0, 2, 3, 5]
    assert list(bits(1 << 63)) == [63]


def test_edges_are_normalised_and_sorted():
    g = Graph(4, [(3, 2), (0, 1)])
    assert g.n == 4
    assert g.edges == ((0, 1), (2, 3))
    assert g.m == 2
    assert g.endpoints(0) == (0, 1)
    assert g.endpoints(1) == (2, 3)
    assert g.edge_id(2, 3) == 1
    assert g.edge_id(3, 2) == 1
    assert g.vadj[1] >> 0 & 1
    assert not g.vadj[0] >> 2 & 1


def test_construction_errors():
    with pytest.raises(SelfLoopError):
        Graph(3, [(1, 1)])
    with pytest.raises(DuplicateEdgeError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(VertexRangeError):
        Graph(3, [(0, 3)])
    with pytest.raises(VertexRangeError):
        Graph(3, [(-1, 0)])
    with pytest.raises(VertexRangeError):
        Graph(-1)


def test_index_lookup_errors():
    g = path(3)
    with pytest.raises(EdgeRangeError):
        g.edge_id(0, 2)
    with pytest.raises(EdgeRangeError):
        g.endpoints(2)
    with pytest.raises(VertexRangeError):
        g.degree(3)
    with pytest.raises(VertexRangeError):
        g.check_vertex(-1)


def test_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    c = Graph(4, [(0, 1), (1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert a != "Graph"
    assert repr(a) == "Graph(3, [(0, 1), (1, 2)])"


def test_vertex_neighborhoods():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])  # paw
    assert set(bits(g.vadj[0])) == {1, 2, 3}
    assert set(bits(g.vadj[0] | 1 << 0)) == {0, 1, 2, 3}
    assert set(bits(g.vadj[3])) == {0}
    assert g.degree(0) == 3
    assert g.degree(3) == 1


def test_edge_neighborhoods_on_square():
    g = cycle(4)
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    # opposite edges share no endpoint
    assert set(bits(g.eadj[0])) == {1, 2}
    assert set(bits(g.eadj[3])) == {1, 2}
    assert 3 not in set(bits(g.eadj[0]))
    assert set(bits(g.eadj[0] | 1 << 0)) == {0, 1, 2}


def test_edge_neighborhood_degree_law_and_symmetry():
    rng = random.Random(20260825)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 10), rng.uniform(0.1, 0.9))
        for e, (u, v) in enumerate(g.edges):
            nbrs = set(bits(g.eadj[e]))
            assert len(nbrs) == g.degree(u) + g.degree(v) - 2
            assert e not in nbrs
            for f in nbrs:
                assert e in set(bits(g.eadj[f]))


def test_is_connected():
    assert is_connected(Graph(0))
    assert is_connected(Graph(1))
    assert not is_connected(Graph(2))
    assert is_connected(path(5))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))


def test_is_connected_matches_networkx_on_every_small_labeled_graph():
    for n in range(1, 6):
        graphs = list(enumerate_graphs(EnumerationSpec(n, connected_only=False)))
        assert len(graphs) == 1 << (n * (n - 1) // 2)
        connected = [g for g in graphs if nx.is_connected(to_networkx(g))]
        assert [g for g in graphs if is_connected(g)] == connected
        # the enumerator's filter runs the same scan on raw masks
        assert list(enumerate_graphs(EnumerationSpec(n))) == connected


def test_bfs_layers_match_networkx_distances():
    # every labeled graph n <= 5, every root, inside all vertices or all but one
    for n in range(1, 6):
        full = (1 << n) - 1
        for g in enumerate_graphs(EnumerationSpec(n, connected_only=False)):
            h = to_networkx(g)
            for root in range(n):
                for drop in [None] + [v for v in range(n) if v != root]:
                    within = full if drop is None else full & ~(1 << drop)
                    sub = h.subgraph(v for v in range(n) if v != drop)
                    dist = nx.single_source_shortest_path_length(sub, root)
                    expected = [0] * (max(dist.values()) + 1)
                    for v, d in dist.items():
                        expected[d] |= 1 << v
                    assert bfs_layers(g.vadj, root, within) == expected
