"""Feasibility predicates and the exact minimizer against brute force."""

import random

import pytest

from locdom import (
    EdgeRangeError,
    EnumerationSpec,
    Graph,
    InfeasibleError,
    LocdomError,
    Parameter,
    VertexRangeError,
    enumerate_graphs,
    is_dominating,
    is_edge_dominating,
    is_edge_locating,
    is_edge_total_dominating,
    is_edge_twin_free,
    is_locating,
    is_total_dominating,
    is_weak_edge_locating,
    parse_graph6,
    parse_parameter,
    bits,
    solve_min,
)
from locdom.solvers import PARAMETER_NAMES, _constraint_masks, _least_hitting_set
import conftest

C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
P3 = Graph(3, [(0, 1), (1, 2)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
P5 = Graph(5, [(i, i + 1) for i in range(4)])
K4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def star(k):
    return Graph(k + 1, [(0, v) for v in range(1, k + 1)])


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


REF_PREDICATES = {
    Parameter.DOM: conftest.ref_is_dominating,
    Parameter.TOTAL_DOM: conftest.ref_is_total_dominating,
    Parameter.LOC_DOM: lambda g, d: conftest.ref_is_dominating(g, d)
    and conftest.ref_is_locating(g, d),
    Parameter.LOC_TOTAL_DOM: lambda g, d: conftest.ref_is_total_dominating(g, d)
    and conftest.ref_is_locating(g, d),
    Parameter.EDGE_LOC_DOM: lambda g, d: conftest.ref_is_edge_dominating(g, d)
    and conftest.ref_is_edge_locating(g, d),
    Parameter.EDGE_LOC_TOTAL_DOM: lambda g, d: conftest.ref_is_edge_total_dominating(g, d)
    and conftest.ref_is_edge_locating(g, d),
    Parameter.WEAK_EDGE_LOC_DOM: lambda g, d: conftest.ref_is_edge_dominating(g, d)
    and conftest.ref_is_weak_edge_locating(g, d),
}


def test_parse_parameter_aliases():
    assert parse_parameter("weld") is Parameter.WEAK_EDGE_LOC_DOM
    assert parse_parameter("weak_edge_loc_dom") is Parameter.WEAK_EDGE_LOC_DOM
    assert parse_parameter(" ELTD ") is Parameter.EDGE_LOC_TOTAL_DOM
    assert parse_parameter("total_dom") is Parameter.TOTAL_DOM
    assert parse_parameter(Parameter.LOC_DOM) is Parameter.LOC_DOM
    with pytest.raises(LocdomError):
        parse_parameter("gamma")


def test_parameter_names_are_the_fourteen_aliases():
    # the CLI choices and the unknown-parameter message list these names
    assert PARAMETER_NAMES == {
        "dom", "domination", "tdom", "total_dom", "ld", "loc_dom", "ltd", "loc_total_dom",
        "eld", "edge_loc_dom", "eltd", "edge_loc_total_dom", "weld", "weak_edge_loc_dom",
    }


def test_parameter_properties():
    assert Parameter.EDGE_LOC_TOTAL_DOM.on_edges
    assert Parameter.EDGE_LOC_TOTAL_DOM.total
    assert Parameter.EDGE_LOC_TOTAL_DOM.locating
    assert not Parameter.DOM.on_edges
    assert not Parameter.DOM.locating
    assert Parameter.TOTAL_DOM.total and not Parameter.TOTAL_DOM.locating
    assert Parameter.WEAK_EDGE_LOC_DOM.on_edges and not Parameter.WEAK_EDGE_LOC_DOM.total
    assert Parameter.LOC_DOM.value == "ld"
    assert Parameter.WEAK_EDGE_LOC_DOM.value == "weld"


def test_vertex_predicates_on_small_graphs():
    assert is_dominating(star(3), [0])
    assert not is_total_dominating(star(3), [0])
    assert is_total_dominating(star(3), [0, 1])
    assert not is_dominating(P4, [0])
    assert is_dominating(P4, [1, 2])
    assert not is_locating(P4, [1])  # 0 and 2 both see exactly {1}
    assert is_locating(P4, [0, 3])
    assert is_locating(Graph(1), [])  # a single empty trace is still distinct
    assert not is_locating(Graph(2), [])


def test_edge_predicates_on_square():
    # opposite edges 0=(0,1), 3=(2,3)
    assert is_edge_dominating(C4, [0, 3])
    assert is_weak_edge_locating(C4, [0, 3])
    assert not is_edge_locating(C4, [0, 3])  # leftover twins 1, 2 collide
    # adjacent edges 0=(0,1), 1=(0,3)
    assert is_edge_dominating(C4, [0, 1])
    assert is_edge_locating(C4, [0, 1])
    assert is_weak_edge_locating(C4, [0, 1])
    # opposite edges are not adjacent to each other, so they cannot
    # total-dominate; an adjacent pair can
    assert not is_edge_total_dominating(C4, [0, 3])
    assert is_edge_total_dominating(C4, [0, 1])
    assert not is_edge_total_dominating(C4, [0])


def test_weak_location_exempts_twins_only_pairwise():
    # P_5 edges 0..3; edges 0 and 3 are not twins, so a shared empty trace
    # is a real collision for the weak predicate too
    assert not is_weak_edge_locating(P5, [1])
    assert is_weak_edge_locating(P5, [1, 2])
    # the star's edges are pairwise closed twins, every collision is exempt
    assert is_weak_edge_locating(star(4), [0])
    assert not is_edge_locating(star(4), [0])


# (predicate, its set-based reference, does it take edges)
PREDICATES = (
    (is_dominating, conftest.ref_is_dominating, False),
    (is_total_dominating, conftest.ref_is_total_dominating, False),
    (is_locating, conftest.ref_is_locating, False),
    (is_edge_dominating, conftest.ref_is_edge_dominating, True),
    (is_edge_total_dominating, conftest.ref_is_edge_total_dominating, True),
    (is_edge_locating, conftest.ref_is_edge_locating, True),
    (is_weak_edge_locating, conftest.ref_is_weak_edge_locating, True),
)


def test_predicates_match_reference_on_every_subset():
    for n in range(6):
        for g in enumerate_graphs(EnumerationSpec(n, connected_only=False, dedup_isomorphic=True)):
            for predicate, ref, on_edges in PREDICATES:
                for mask in range(1 << (g.m if on_edges else g.n)):
                    d = set(bits(mask))
                    assert predicate(g, d) == ref(g, d), (g.edges, predicate.__name__, d)


def test_predicates_reject_out_of_range_members():
    for predicate, _, on_edges in PREDICATES:
        error = EdgeRangeError if on_edges else VertexRangeError
        for bad in (-1, 4):
            with pytest.raises(error):
                predicate(C4, [0, bad])


def test_known_values():
    assert solve_min(Graph(2, [(0, 1)]), "dom").value == 1
    assert solve_min(Graph(2, [(0, 1)]), "tdom").value == 2
    assert solve_min(P3, "dom").value == 1
    assert solve_min(P3, "tdom").value == 2
    assert solve_min(C6, "tdom").value == 4
    assert solve_min(P4, "ld").value == 2
    assert solve_min(P4, "weld").value == 1
    assert solve_min(P4, "eld").value == 2
    assert solve_min(P5, "eltd").value == 2
    assert solve_min(C4, "eld").value == 2
    assert solve_min(C6, "weld").value == 3
    assert solve_min(C6, "eld").value == 3
    assert solve_min(C6, "eltd").value == 4
    assert solve_min(K4, "weld").value == 2
    assert solve_min(K4, "eld").value == 3
    for n in range(3, 7):
        assert solve_min(complete(n), "ld").value == n - 1
    for k in range(2, 6):
        assert solve_min(star(k), "ltd").value == k
        assert solve_min(star(k), "weld").value == 1


def test_witnesses_are_lexicographically_least():
    assert solve_min(P3, "dom").witness == {1}
    assert solve_min(C6, "weld").witness == {0, 1, 3}
    assert solve_min(C6, "eltd").witness == {0, 1, 2, 3}
    assert solve_min(K4, "weld").witness == {0, 1}
    res = solve_min(C6, "eld")
    assert res.parameter is Parameter.EDGE_LOC_DOM
    assert res.value == len(res.witness)


def test_empty_and_edgeless_graphs():
    for name in ("dom", "tdom", "ld", "ltd", "eld", "eltd", "weld"):
        res = solve_min(Graph(0), name)
        assert res.value == 0 and res.witness == frozenset()
    e3 = Graph(3)
    assert solve_min(e3, "dom").value == 3
    assert solve_min(e3, "ld").value == 3
    for name in ("eld", "eltd", "weld"):
        assert solve_min(e3, name).value == 0


def test_infeasible_cases():
    with pytest.raises(InfeasibleError) as exc:
        solve_min(Graph(1), "tdom")
    assert exc.value.reason == "isolated_vertex"
    assert str(exc.value) == (
        "infeasible: isolated_vertex (total domination needs every vertex to have a neighbour)"
    )
    with pytest.raises(InfeasibleError):
        solve_min(Graph(3, [(0, 1)]), "tdom")
    with pytest.raises(InfeasibleError):
        solve_min(Graph(3, [(0, 1)]), "ltd")
    with pytest.raises(InfeasibleError) as exc:
        solve_min(Graph(2, [(0, 1)]), "eltd")
    assert exc.value.reason == "isolated_edge"
    assert str(exc.value) == (
        "infeasible: isolated_edge (edge-total domination needs every edge"
        " to have an adjacent edge)"
    )
    with pytest.raises(InfeasibleError):
        solve_min(Graph(4, [(0, 1), (2, 3)]), "eltd")
    # non-total variants always have the full ground set as fallback
    assert solve_min(Graph(2, [(0, 1)]), "weld").value == 1


def _cross_check(g):
    for param, ref_pred in REF_PREDICATES.items():
        ground = g.m if param.on_edges else g.n
        expected = conftest.ref_minimum(ground, lambda d: ref_pred(g, d))
        try:
            res = solve_min(g, param)
        except InfeasibleError:
            assert expected is None, (g.edges, param)
            continue
        assert expected is not None, (g.edges, param)
        assert res.value == expected[0], (g.edges, param)
        assert res.witness == frozenset(expected[1]), (g.edges, param)


def test_minimizer_matches_brute_force_exhaustively():
    for g in enumerate_graphs(EnumerationSpec(n=4, connected_only=False)):
        _cross_check(g)
    for g in enumerate_graphs(EnumerationSpec(5, connected_only=False, dedup_isomorphic=True)):
        _cross_check(g)


def test_feasibility_is_closed_under_supersets():
    # The hitting-set solver rests on this: adding an element to a feasible
    # set never breaks covering or location.
    rng = random.Random(20261017)
    for _ in range(50):
        g = conftest.random_graph(rng, rng.randrange(2, 8), rng.uniform(0.2, 0.8))
        for param, ref_pred in REF_PREDICATES.items():
            ground = g.m if param.on_edges else g.n
            for _ in range(8):
                d = {x for x in range(ground) if rng.random() < 0.6}
                if not ref_pred(g, d):
                    continue
                for x in set(range(ground)) - d:
                    assert ref_pred(g, d | {x}), (g.edges, param, d, x)


def test_minimizer_matches_brute_force_on_random_graphs():
    rng = random.Random(20260825)
    seen = 0
    while seen < 60:
        g = conftest.random_graph(rng, rng.randrange(3, 8), rng.uniform(0.2, 0.8))
        if g.m > 12:
            continue
        seen += 1
        _cross_check(g)


def _random_family(rng: random.Random, ground: int) -> list[int]:
    """Nonempty masks on range(ground) of mixed density, from no graph.

    The first ground members form a symmetric block (j lies in member i
    exactly when i lies in member j), as the search requires; any diagonal
    is allowed, and up to 12 arbitrary members follow.  Some families are
    planted: an element in every member (optimum 1), a pair that meets
    every member (optimum at most 2), or every singleton (optimum ground).
    """
    density = rng.uniform(0.1, 0.7)
    family = [0] * ground

    def link(i: int, j: int) -> None:
        family[i] |= 1 << j
        family[j] |= 1 << i

    plant = rng.randrange(4)
    if plant == 3:
        for i in range(ground):
            link(i, i)
    else:
        for i in range(ground):
            for j in range(i, ground):
                if rng.random() < density:
                    link(i, j)
    for _ in range(rng.randrange(13)):
        family.append(sum(1 << x for x in range(ground) if rng.random() < density))
    if plant == 1:
        common = rng.randrange(ground)
        for i in range(ground):
            link(i, common)
        family[ground:] = [mask | 1 << common for mask in family[ground:]]
    elif plant == 2 and ground > 1:
        a, b = rng.sample(range(ground), 2)
        for i in range(ground):
            if not family[i] >> a & 1 and not family[i] >> b & 1:
                link(i, rng.choice((a, b)))
        family[ground:] = [
            mask if mask >> a & 1 or mask >> b & 1 else mask | 1 << rng.choice((a, b))
            for mask in family[ground:]
        ]
    for i in range(ground):
        if not family[i]:
            link(i, i)
    return [mask or 1 << rng.randrange(ground) for mask in family]


def test_least_hitting_set_matches_brute_force_on_random_families():
    rng = random.Random(20261018)
    optima = set()
    top_chosen = 0
    for _ in range(600):
        ground = rng.randrange(1, 9)
        family = _random_family(rng, ground)
        assert all(
            family[i] >> j & 1 == family[j] >> i & 1 for i in range(ground) for j in range(i)
        )
        expected = conftest.ref_minimum(
            ground, lambda d: all(any(mask >> x & 1 for x in d) for mask in family)
        )
        size, mask = _least_hitting_set(ground, family, 0)
        assert (size, tuple(bits(mask))) == expected, (ground, family)
        optima.add("ground" if size == ground >= 3 else size)
        top_chosen += mask >> ground - 1 & 1
    # The cases the search treats apart: the root alone, the last slot filled
    # at the root, every element needed, and the highest element chosen.
    assert {1, 2, 3, "ground"} <= optima
    assert top_chosen


# Values and least witnesses beyond brute-force reach, recorded from the
# leaf-checking solver that the hitting-set search replaced.
PINNED = [
    ("JjPOWjs?G@?", "weld", 5, (0, 1, 2, 9, 13)),  # two edge-twins
    ("Nk_PH?AcJG@CO?O?G??", "weld", 6, (0, 1, 2, 9, 11, 18)),  # three edge-twins
    ("KsGJCUOWoD?A", "eld", 5, (0, 7, 13, 14, 17)),
    ("OjQQI?@aH?_AO?QGA???@", "eld", 7, (0, 9, 11, 13, 14, 16, 17)),
    ("LkWoHGU?_oA?C_", "ltd", 5, (1, 3, 4, 5, 6)),
    ("NsG_OGo?__Y?Oc?BGOO", "ltd", 6, (2, 3, 5, 6, 11, 14)),
    ("MtDO`@O?OACO`??_?", "ld", 7, (1, 2, 3, 5, 6, 7, 9)),
    ("KkGGGcOWoIGC", "eltd", 6, (0, 4, 7, 9, 10, 14)),
    ("Oi`?aaC?KG?OG@?dA???G", "dom", 5, (0, 1, 3, 8, 11)),
    ("Lnq?S?Hg?`?A?@", "tdom", 5, (0, 3, 4, 9, 11)),
]


@pytest.mark.parametrize("graph6, name, value, witness", PINNED)
def test_pinned_values_on_larger_graphs(graph6, name, value, witness):
    g = parse_graph6(graph6)
    res = solve_min(g, name)
    assert (res.value, tuple(sorted(res.witness))) == (value, witness)
    assert REF_PREDICATES[parse_parameter(name)](g, set(witness))


def test_constraint_masks_start_with_a_symmetric_block():
    """_least_hitting_set reads the first ground members as their own transpose,
    so every family the solver builds must open with ground symmetric masks."""
    graphs = [
        g for n in range(6) for g in enumerate_graphs(EnumerationSpec(n=n, connected_only=False))
    ]
    graphs += [parse_graph6(graph6) for graph6, *_ in PINNED]
    for g in graphs:
        for param in Parameter:
            try:
                ground, family = _constraint_masks(g, param)
            except InfeasibleError:
                continue
            assert len(family) >= ground, (g, param)
            assert all(
                family[i] >> j & 1 == family[j] >> i & 1
                for i in range(ground)
                for j in range(i + 1, ground)
            ), (g, param)


def test_parameter_chains():
    rng = random.Random(5)
    for _ in range(50):
        g = conftest.random_connected_graph(rng, rng.randrange(2, 8))
        vals = {}
        for name in ("dom", "tdom", "ld", "ltd", "eld", "eltd", "weld"):
            try:
                vals[name] = solve_min(g, name).value
            except InfeasibleError:
                pass
        assert vals["dom"] <= vals["ld"] <= vals["eld"] + g.n  # sanity on presence
        assert vals["dom"] <= vals["ld"]
        if "tdom" in vals:
            assert vals["dom"] <= vals["tdom"]
        if "ltd" in vals:
            assert vals["ld"] <= vals["ltd"]
            assert vals["tdom"] <= vals["ltd"]
        assert vals["weld"] <= vals["eld"]
        if "eltd" in vals:
            assert vals["eld"] <= vals["eltd"]
        if is_edge_twin_free(g):
            assert vals["weld"] == vals["eld"]
