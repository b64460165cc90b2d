"""Twin detection and the structural facts about edge-twins.

The last two tests sweep every connected graph up to 7 vertices for the
closed-twin uniqueness claim.  At 7 vertices full enumeration is too wide,
so the sweep is inverted: closed edge-twins force a concrete local shape,
and only supergraphs of that shape need to be visited.
"""

import random
from collections import Counter
from itertools import combinations

import pytest

from locdom import (
    EnumerationSpec,
    Graph,
    NotConnectedError,
    check_observation1,
    edge_twin_masks,
    enumerate_graphs,
    is_connected,
    is_edge_twin_free,
    is_twin_free,
    named_graph,
    twin_report,
)
from locdom.twins import _is_open_twin_shape
from conftest import edge_nbrs, nbrs, nx_isomorphic, random_graph, ref_edge_twin_pairs

C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
P5 = Graph(5, [(i, i + 1) for i in range(4)])
K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
K4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
STAR3 = Graph(4, [(0, 1), (0, 2), (0, 3)])
PAW = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
DIAMOND = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def test_square_twins():
    rep = twin_report(C4)
    assert rep.open_vertex_pairs == ((0, 2), (1, 3))
    assert rep.closed_vertex_pairs == ()
    assert rep.open_edge_pairs == ((0, 3), (1, 2))
    assert rep.closed_edge_pairs == ()
    assert not is_twin_free(C4)
    assert not is_edge_twin_free(C4)


def test_path_five_has_no_twins():
    rep = twin_report(P5)
    assert rep == twin_report(P5)
    assert rep.open_vertex_pairs == rep.closed_vertex_pairs == ()
    assert rep.open_edge_pairs == rep.closed_edge_pairs == ()
    assert is_twin_free(P5)
    assert is_edge_twin_free(P5)


def test_star_twins():
    rep = twin_report(STAR3)
    assert rep.open_vertex_pairs == ((1, 2), (1, 3), (2, 3))
    assert rep.closed_vertex_pairs == ()
    assert rep.open_edge_pairs == ()
    assert rep.closed_edge_pairs == ((0, 1), (0, 2), (1, 2))


def test_pendant_edges_of_path_four_are_open_twins():
    rep = twin_report(P4)
    assert rep.open_edge_pairs == ((0, 2),)
    assert rep.closed_edge_pairs == ()


def test_triangle_twins():
    rep = twin_report(K3)
    assert rep.closed_vertex_pairs == ((0, 1), (0, 2), (1, 2))
    assert rep.closed_edge_pairs == ((0, 1), (0, 2), (1, 2))
    assert rep.open_edge_pairs == ()


def test_edge_twin_masks_examples():
    assert edge_twin_masks(P5) == (0, 0, 0, 0)
    assert edge_twin_masks(C4) == (0b1000, 0b0100, 0b0010, 0b0001)
    assert edge_twin_masks(STAR3) == (0b110, 0b101, 0b011)


def test_twin_report_matches_set_definitions():
    rng = random.Random(20260825)
    for _ in range(80):
        g = random_graph(rng, rng.randrange(2, 9), rng.uniform(0.1, 0.9))
        rep = twin_report(g)
        merged = set(rep.open_edge_pairs) | set(rep.closed_edge_pairs)
        assert merged == ref_edge_twin_pairs(g)
        assert not (set(rep.open_edge_pairs) & set(rep.closed_edge_pairs))
        for e, f in rep.open_edge_pairs:
            assert edge_nbrs(g, e) == edge_nbrs(g, f)
            assert f not in edge_nbrs(g, e)  # open twins share no endpoint
        for e, f in rep.closed_edge_pairs:
            assert edge_nbrs(g, e) | {e} == edge_nbrs(g, f) | {f}
            assert f in edge_nbrs(g, e)  # closed twins share exactly one
        for u, v in rep.open_vertex_pairs:
            assert nbrs(g, u) == nbrs(g, v)
        for u, v in rep.closed_vertex_pairs:
            assert nbrs(g, u) | {u} == nbrs(g, v) | {v}
        assert is_edge_twin_free(g) == (not merged)
        assert is_twin_free(g) == (not (rep.open_vertex_pairs or rep.closed_vertex_pairs))
        masks = edge_twin_masks(g)
        pair_set = set()
        for i, mask in enumerate(masks):
            for j in range(g.m):
                if (mask >> j) & 1:
                    pair_set.add((min(i, j), max(i, j)))
        assert pair_set == merged


def test_observation_examples_pass():
    for g in (K3, P4, C4, PAW, DIAMOND, K4, P5):
        assert check_observation1(g) == []


def test_open_twin_shapes_are_the_connected_four_vertex_graphs_but_the_claw():
    shapes = [named_graph(name) for name in ("P4", "C4", "paw", "diamond", "K4")]
    for n in range(6):
        for g in enumerate_graphs(EnumerationSpec(n=n)):
            expected = any(nx_isomorphic(g, shape) for shape in shapes)
            assert _is_open_twin_shape(g) == expected, g.edges


def test_observation_requires_connectivity():
    with pytest.raises(NotConnectedError):
        check_observation1(Graph(4, [(0, 1), (2, 3)]))


def test_observation_holds_on_all_small_connected_graphs():
    for n in range(1, 7):
        for g in enumerate_graphs(EnumerationSpec(n=n)):
            assert check_observation1(g) == [], g.edges


def _violates_closed_twin_uniqueness(g: Graph) -> bool:
    """True when a closed-twin pair with degree-2 non-shared ends is not unique.

    Closed edge-twins whose non-shared ends are leaves can come in bunches
    (stars show this), so only the degree-2 case carries a uniqueness claim.
    """
    pairs = twin_report(g).closed_edge_pairs
    counts = Counter(x for pair in pairs for x in pair)
    for e, f in pairs:
        shared = set(g.endpoints(e)) & set(g.endpoints(f))
        (v,) = shared
        u = next(x for x in g.endpoints(e) if x != v)
        w = next(x for x in g.endpoints(f) if x != v)
        if g.degree(u) == 2 == g.degree(w) and (counts[e] > 1 or counts[f] > 1):
            return True
    return False


def test_closed_twin_partner_unique_up_to_six_vertices():
    violators = []
    for n in range(1, 7):
        for g in enumerate_graphs(EnumerationSpec(n=n)):
            if _violates_closed_twin_uniqueness(g):
                violators.append(g)
    # the triangle is the lone exception: all three of its edges are
    # pairwise closed twins
    assert violators == [K3]


def _graphs_with_closed_edge_pairs(n: int):
    """Connected n-vertex graphs containing at least one closed edge-twin pair.

    Closed twins always share exactly one endpoint, and N[e] = N[f] says the
    graph avoids every slot of the complete graph where the two closed
    neighborhoods differ.  Enumerating supersets of each adjacent slot pair
    within the allowed slots visits exactly the wanted graphs.
    """
    slots = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(slots)}
    closed_adj = []
    for i, (u, v) in enumerate(slots):
        mask = 1 << i
        for j, (x, y) in enumerate(slots):
            if j != i and len({u, v} & {x, y}) == 1:
                mask |= 1 << j
        closed_adj.append(mask)
    full = (1 << len(slots)) - 1
    seen = set()
    for a, b in combinations(range(len(slots)), 2):
        base = (1 << a) | (1 << b)
        diff = closed_adj[a] ^ closed_adj[b]
        if diff & base:
            continue  # non-adjacent slots can never be closed twins
        free = full & ~(diff | base)
        sub = free
        while True:
            mask = base | sub
            if mask not in seen:
                seen.add(mask)
                g = Graph(n, [slots[i] for i in range(len(slots)) if (mask >> i) & 1])
                if is_connected(g):
                    yield g
            if sub == 0:
                break
            sub = (sub - 1) & free


def test_closed_twin_partner_unique_at_seven_vertices():
    checked = 0
    for g in _graphs_with_closed_edge_pairs(7):
        checked += 1
        assert not _violates_closed_twin_uniqueness(g), g.edges
    assert checked > 10000  # the inverted sweep must actually cover ground


def test_inverted_closed_pair_sweep_matches_direct_scan():
    for n in range(2, 6):
        direct = {
            g.edges
            for g in enumerate_graphs(EnumerationSpec(n=n))
            if twin_report(g).closed_edge_pairs
        }
        inverted = {g.edges for g in _graphs_with_closed_edge_pairs(n)}
        assert inverted == direct
