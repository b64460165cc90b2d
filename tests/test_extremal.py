"""Extremal families, the named-graph catalogue, and the tree construction."""

import hashlib
import json
import random

import networkx as nx
import pytest

from locdom import (
    DiameterTooSmallError,
    EdgeTwinsError,
    EmptyFamilyError,
    Graph,
    LocdomError,
    NotATreeError,
    TooSmallError,
    is_edge_locating,
    is_edge_total_dominating,
    is_edge_twin_free,
    named_graph,
    solve_min,
    spider_weld_tree,
    subdivided_star_eltd,
    tree_eltd_construct,
)
from conftest import nx_isomorphic, random_tree, to_networkx


def test_spider_shapes():
    assert spider_weld_tree(1, 0) == Graph(3, [(0, 1), (1, 2)])
    assert spider_weld_tree(0, 1) == Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    g = spider_weld_tree(2, 1)
    assert (g.n, g.m) == (9, 8)
    assert g.vadj[0].bit_count() == 3
    assert nx.is_tree(to_networkx(g))
    assert list(map(int.bit_count, g.vadj)).count(1) == 3


def test_spider_errors():
    with pytest.raises(TooSmallError):
        spider_weld_tree(-1, 0)
    with pytest.raises(TooSmallError):
        spider_weld_tree(0, -2)
    with pytest.raises(EmptyFamilyError):
        spider_weld_tree(0, 0)


def test_spider_meets_half_bound_exactly():
    for k2, k4 in ((1, 0), (2, 0), (0, 1), (1, 1), (3, 0), (2, 1)):
        g = spider_weld_tree(k2, k4)
        assert g.m == 2 * k2 + 4 * k4
        assert solve_min(g, "weld").value == g.m // 2 == k2 + 2 * k4


def test_subdivided_star_shapes():
    assert nx_isomorphic(subdivided_star_eltd(2), named_graph("P7"))
    for k in range(2, 6):
        g = subdivided_star_eltd(k)
        assert (g.n, g.m) == (3 * k + 1, 3 * k)
        assert nx.is_tree(to_networkx(g))
        assert is_edge_twin_free(g)
    with pytest.raises(TooSmallError):
        subdivided_star_eltd(1)
    with pytest.raises(TooSmallError):
        subdivided_star_eltd(0)


def test_subdivided_star_meets_two_thirds_bound_exactly():
    assert solve_min(subdivided_star_eltd(2), "eltd").value == 4
    assert solve_min(subdivided_star_eltd(3), "eltd").value == 6


def test_named_graph_catalogue():
    assert named_graph("P5") == Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert named_graph("C4") == Graph(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
    assert named_graph("K4") == Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert named_graph("K1") == Graph(1)
    assert named_graph("C3") == named_graph("K3")
    assert named_graph("paw") == named_graph("K3+")
    assert named_graph("diamond") == named_graph("k4-e") == named_graph("K4 minus e")
    assert named_graph("K1,3") == Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert named_graph("K_{1,5}").n == 6
    assert named_graph("  p5 ") == named_graph("P5")


def test_named_graph_errors():
    for bad in ("P0", "C2", "K0", "K1,0"):
        with pytest.raises(TooSmallError):
            named_graph(bad)
    for unknown in ("petersen", "q3", "", "PC4"):
        with pytest.raises(LocdomError):
            named_graph(unknown)


def test_construct_on_paths():
    p5 = named_graph("P5")
    assert tree_eltd_construct(p5) == {1, 2}
    p8 = named_graph("P8")
    assert tree_eltd_construct(p8) == {1, 2, 4, 5}


def test_construct_on_subdivided_star():
    g = subdivided_star_eltd(3)
    picked = tree_eltd_construct(g)
    expected = set()
    for leg in range(3):
        first, second = 3 * leg + 1, 3 * leg + 2
        expected.add(g.edge_id(0, first))
        expected.add(g.edge_id(first, second))
    assert picked == expected
    assert len(picked) == 6
    assert solve_min(g, "eltd").value == 6


def test_construct_preconditions():
    with pytest.raises(NotATreeError):
        tree_eltd_construct(named_graph("C6"))
    with pytest.raises(NotATreeError):
        tree_eltd_construct(Graph(0))
    with pytest.raises(NotATreeError):  # m = n - 1, but disconnected
        tree_eltd_construct(Graph(4, [(0, 1), (0, 2), (1, 2)]))
    with pytest.raises(EdgeTwinsError):
        tree_eltd_construct(named_graph("P4"))
    with pytest.raises(EdgeTwinsError):
        tree_eltd_construct(named_graph("P3"))
    with pytest.raises(EdgeTwinsError):
        tree_eltd_construct(named_graph("K1,4"))
    with pytest.raises(DiameterTooSmallError):
        tree_eltd_construct(named_graph("P2"))
    with pytest.raises(DiameterTooSmallError):
        tree_eltd_construct(named_graph("K1"))


def _check_construct(g):
    picked = tree_eltd_construct(g)
    assert picked == tree_eltd_construct(g)  # deterministic
    assert is_edge_total_dominating(g, picked)
    assert is_edge_locating(g, picked)
    assert 3 * len(picked) <= 2 * g.m
    if g.n <= 12:
        assert len(picked) >= solve_min(g, "eltd").value


def test_construct_on_deep_handcrafted_trees():
    # long paths go round the loop several times
    for n in (9, 10, 11, 12, 15):
        _check_construct(named_graph(f"P{n}"))
    # a mid-path leaf makes the fourth parent up own a leaf-neighbour
    path_with_leaf = Graph(10, [(i, i + 1) for i in range(8)] + [(4, 9)])
    _check_construct(path_with_leaf)
    deep_spider = spider_weld_tree(0, 2)
    _check_construct(deep_spider)
    # too large for solve_min; each takes the loop through dozens of rounds
    for g in (named_graph("P200"), spider_weld_tree(0, 30)):
        _check_construct(g)


def test_construct_output_pinned():
    # exact sets and error types on 5,092 trees, 532 of them constructed
    rng = random.Random(20261018)
    cases = [named_graph(f"P{n}") for n in range(1, 61)]
    cases += [subdivided_star_eltd(k) for k in range(2, 10)]
    cases += [
        spider_weld_tree(k2, k4) for k2 in range(5) for k4 in range(5) if k2 + k4 > 0
    ]
    cases += [random_tree(rng, rng.randrange(1, 40)) for _ in range(5000)]
    out = []
    for g in cases:
        try:
            out.append(sorted(tree_eltd_construct(g)))
        except LocdomError as exc:
            out.append(type(exc).__name__)
    assert len(out) == 5092
    assert sum(isinstance(o, list) for o in out) == 532
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "00d9523fb10213ec85d976ebe0fd828a475e4646d3f4301498d7bb657efe71a7"


def test_construct_on_random_trees():
    rng = random.Random(20260825)
    kept = 0
    tries = 0
    while kept < 25 and tries < 4000:
        tries += 1
        g = random_tree(rng, rng.randrange(8, 17))
        if not is_edge_twin_free(g) or nx.diameter(to_networkx(g)) < 4:
            continue
        kept += 1
        _check_construct(g)
    assert kept == 25
