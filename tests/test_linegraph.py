"""Line graph construction and the edge-to-vertex correspondence."""

import random

from locdom import (
    Graph,
    line_graph,
    named_graph,
    solve_min,
    twin_report,
)
from conftest import nx_isomorphic, random_graph

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
STAR3 = Graph(4, [(0, 1), (0, 2), (0, 3)])


def test_line_of_path_is_shorter_path():
    lmap = line_graph(P4)
    assert lmap.base is P4
    assert lmap.line == Graph(3, [(0, 1), (1, 2)])


def test_line_of_cycle_is_cycle():
    lmap = line_graph(C5)
    assert lmap.line.n == 5 and lmap.line.m == 5
    assert nx_isomorphic(lmap.line, C5)


def test_line_of_star_is_triangle():
    assert line_graph(STAR3).line == Graph(3, [(0, 1), (0, 2), (1, 2)])


def test_line_of_empty_and_single_edge():
    assert line_graph(Graph(3)).line == Graph(0)
    assert line_graph(Graph(2, [(0, 1)])).line == Graph(1)


def _line_fits(g):
    return sum(g.degree(v) * (g.degree(v) - 1) // 2 for v in range(g.n)) <= 128


def test_line_adjacency_equals_edge_adjacency():
    rng = random.Random(20260825)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 10), rng.uniform(0.2, 0.8))
        if not _line_fits(g):
            continue
        lmap = line_graph(g)
        assert lmap.line.n == g.m
        # vertex i of L(g) must see exactly the edges adjacent to edge i
        assert lmap.line.vadj == g.eadj
        assert lmap.line.m == sum(d * (d - 1) // 2 for d in (g.degree(v) for v in range(g.n)))
        for i in range(g.m):
            u, v = g.edges[i]
            assert lmap.line.degree(i) == g.degree(u) + g.degree(v) - 2


def test_edge_twins_become_vertex_twins():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 9), rng.uniform(0.2, 0.9))
        if not _line_fits(g):
            continue
        line = line_graph(g).line
        grep = twin_report(g)
        lrep = twin_report(line)
        assert lrep.open_vertex_pairs == grep.open_edge_pairs
        assert lrep.closed_vertex_pairs == grep.closed_edge_pairs


def test_edge_parameters_transfer_to_line_graph():
    rng = random.Random(11)
    seen = 0
    while seen < 40:
        g = random_graph(rng, rng.randrange(3, 8), rng.uniform(0.3, 0.8))
        if not 2 <= g.m <= 9:
            continue
        seen += 1
        line = line_graph(g).line
        assert solve_min(g, "eld").value == solve_min(line, "ld").value
        if all(mask for mask in g.eadj):
            assert solve_min(g, "eltd").value == solve_min(line, "ltd").value


def test_size_caps():
    # There are none: line graphs past the old 64-vertex and 128-edge caps build.
    line = line_graph(named_graph("K12")).line
    assert (line.n, line.m) == (66, 66 * 20 // 2)
    assert line_graph(Graph(18, [(0, v) for v in range(1, 18)])).line == named_graph("K17")
