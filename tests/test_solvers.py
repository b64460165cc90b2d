"""Feasibility predicates and the exact minimizer against brute force."""

import random
from itertools import combinations

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
    is_connected,
    is_dominating,
    is_edge_dominating,
    is_edge_locating,
    is_edge_total_dominating,
    is_edge_twin_free,
    is_locating,
    is_total_dominating,
    is_weak_edge_locating,
    line_graph,
    named_graph,
    parse_graph6,
    parse_parameter,
    bits,
    solve_min,
    spider_weld_tree,
    subdivided_star_eltd,
)
from locdom import solvers
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
        assert solve_min(named_graph(f"K{n}"), "ld").value == n - 1
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
    exactly when i lies in member j), like a graph's covering masks; any
    diagonal is allowed, and up to 12 arbitrary members follow.  Some
    families are planted: an element in every member (optimum 1), a pair
    that meets every member (optimum at most 2), or every singleton
    (optimum ground).
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
    order = random.Random(20261030)  # apart, so the families stay the same
    optima = set()
    stops = set()
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
        # The answer does not depend on the members' order, on a repeated
        # member or on one that contains another, nor on which true lower
        # bound the search starts from.
        superset = order.choice(family) | order.getrandbits(ground)
        shuffled = family + [order.choice(family), superset]
        order.shuffle(shuffled)
        for first_k in (0, size, size - 1):
            assert _least_hitting_set(ground, shuffled, first_k) == (size, mask), (
                ground, shuffled, first_k,
            )
        widest = max(sum(m >> x & 1 for m in family) for x in range(ground))
        floor = max(1, -(-len(family) // widest))
        stops.add("floor" if size == floor else "exhausted")
        optima.add("ground" if size == ground >= 3 else size)
        top_chosen += mask >> ground - 1 & 1
    # The cases the search treats apart: an optimum at the counting floor
    # is found by the first decision, one above it only after a size that
    # fails; one element, the last one filled at the first position, every
    # element needed, and the highest element chosen.
    assert stops == {"floor", "exhausted"}
    assert {1, 2, 3, "ground"} <= optima
    assert top_chosen


def test_least_hitting_set_improves_on_the_first_set_it_meets():
    # Closed neighbourhoods of a claw whose centre is the last element:
    # {0, 1, 2} and {0, 3} come before {3} in lexicographic order, but only
    # {3} is smallest, so the witness is the least among the smallest sets.
    claw = [0b1001, 0b1010, 0b1100, 0b1111]
    assert _least_hitting_set(4, claw, 0) == (1, 0b1000)
    # Member 0 is {1} and member 1 is {0, 1}: {0, 1} comes before {1}, and
    # element 0, tried first at the one position, leaves member 0 unhit.
    assert _least_hitting_set(2, [0b10, 0b11], 0) == (1, 0b10)


# Values and least witnesses beyond brute-force reach.  The first ten were
# recorded from the leaf-checking solver that the hitting-set search
# replaced, the m = 25..31 edge rows from the search by increasing size that
# the single branch-and-bound pass replaced.
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
    ("Jzo}VGxiLi_", "eld", 7, (0, 1, 2, 18, 19, 28, 30)),  # m 31
    ("Jzo}VGxiLi_", "eltd", 7, (0, 1, 2, 18, 19, 28, 30)),
    ("Jzo}VGxiLi_", "weld", 7, (0, 1, 2, 18, 19, 28, 30)),
    ("JOKgnkQGxz?", "eld", 6, (0, 1, 8, 14, 15, 20)),  # m 25
    ("JOKgnkQGxz?", "eltd", 6, (0, 1, 8, 14, 15, 20)),
    ("JOKgnkQGxz?", "weld", 6, (0, 1, 8, 14, 15, 20)),
    ("JJ[vb|{QiP_", "eld", 6, (1, 2, 20, 21, 27, 30)),  # m 31
    ("JJ[vb|{QiP_", "eltd", 6, (1, 2, 20, 21, 27, 30)),
    ("JJ[vb|{QiP_", "weld", 6, (1, 2, 20, 21, 27, 30)),
]


@pytest.mark.parametrize("graph6, name, value, witness", PINNED)
def test_pinned_values_on_larger_graphs(graph6, name, value, witness):
    g = parse_graph6(graph6)
    res = solve_min(g, name)
    assert (res.value, tuple(sorted(res.witness))) == (value, witness)
    assert REF_PREDICATES[parse_parameter(name)](g, set(witness))


def test_constraint_masks_are_a_sorted_antichain():
    """No member of a family the solver builds contains another or repeats,
    and the members are sorted by size and then by highest element."""
    graphs = [
        g for n in range(6) for g in enumerate_graphs(EnumerationSpec(n=n, connected_only=False))
    ]
    graphs += [parse_graph6(graph6) for graph6, *_ in PINNED]
    for g in graphs:
        for param in Parameter:
            _, family = _family(g, param)
            assert not any(
                low & high == low for i, high in enumerate(family) for low in family[:i]
            ), (g, param)
            sizes = [(mask.bit_count(), mask.bit_length()) for mask in family]
            assert sizes == sorted(sizes), (g, param)


def _family(g, param):
    """The ground size and the family that _constraint_masks builds for g and
    param, from the key solve_min passes it.  The twin pairs are exempt for
    every weld graph here; solve_min exempts none on an edge-twin-free graph,
    where no separation mask is a twin pair."""
    adj = g.eadj if param.on_edges else g.vadj
    weak = param is Parameter.WEAK_EDGE_LOC_DOM
    return len(adj), _constraint_masks(adj, param.total, param.locating, weak)


def _reference_family(g, param):
    """The covers, in element order, and the set of inclusion-minimal
    members of the covers and the separation masks, as bitmasks, from the
    definitions.

    Element i is dominated when D meets N[i] (N(i) for the total variants);
    a and b are separated unless D misses a, b and every element adjacent to
    just one of them.  The weak variant exempts edge-twin pairs.
    """
    ground = g.m if param.on_edges else g.n
    nbrs = conftest.edge_nbrs if param.on_edges else conftest.nbrs
    around = [frozenset(nbrs(g, i)) for i in range(ground)]
    covers = [a if param.total else a | {i} for i, a in enumerate(around)]
    members = set(covers)
    if param.locating:
        exempt = conftest.ref_edge_twin_pairs(g) if param is Parameter.WEAK_EDGE_LOC_DOM else set()
        members |= {
            around[a] ^ around[b] | {a, b}
            for a, b in combinations(range(ground), 2)
            if (a, b) not in exempt
        }
    return list(map(_as_mask, covers)), {
        _as_mask(s) for s in members if not any(t < s for t in members)
    }


def _as_mask(members):
    return sum(1 << x for x in members)


def test_constraint_masks_match_the_definitions():
    """The family holds each inclusion-minimal member of the covers and the
    separation masks once.  Pairs without a common neighbour get no mask, so
    this also checks that those masks are never inclusion-minimal.  An
    instance with an empty cover is infeasible, and solve_min says so."""
    rng = random.Random(20261021)
    graphs = [
        g
        for n in range(7)
        for g in enumerate_graphs(EnumerationSpec(n, connected_only=False, dedup_isomorphic=True))
    ]
    graphs += [parse_graph6(graph6) for graph6 in dict.fromkeys(row[0] for row in PINNED)]
    graphs += [
        conftest.random_connected_graph(rng, rng.randrange(10, 17), 0.05) for _ in range(20)
    ]
    for g in graphs:
        for param in Parameter:
            covers, minimal = _reference_family(g, param)
            if 0 in covers:  # an element no set covers
                with pytest.raises(InfeasibleError):
                    solve_min(g, param)
                continue
            _, family = _family(g, param)
            assert len(family) == len(minimal), (g, param)
            assert set(family) == minimal, (g, param)


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


@pytest.fixture
def searches(monkeypatch):
    """Clear solve_min's memo, and record the ground size of every search it
    runs from then on."""
    solvers._SOLVED.clear()
    grounds = []
    search = solvers._least_hitting_set

    def counted(ground, family, first_k):
        grounds.append(ground)
        return search(ground, family, first_k)

    monkeypatch.setattr(solvers, "_least_hitting_set", counted)
    yield grounds
    solvers._SOLVED.clear()


@pytest.fixture
def builds(searches, monkeypatch):
    """With the searches fixture's cleared memo, record the ground size of
    every family solve_min builds from then on."""
    grounds = []
    build = solvers._constraint_masks

    def counted(adj, total, locating, weak):
        grounds.append(len(adj))
        return build(adj, total, locating, weak)

    monkeypatch.setattr(solvers, "_constraint_masks", counted)
    return grounds


def _answer(g, name):
    try:
        res = solve_min(g, name)
    except InfeasibleError as exc:
        return exc.reason
    return res.value, tuple(sorted(res.witness))


def _edge_twin_free_sample():
    graphs = [P5, C6, named_graph("C5"), named_graph("K5")]
    graphs += [parse_graph6(graph6) for graph6 in ("KsGJCUOWoD?A", "KkGGGcOWoIGC")]
    assert all(is_edge_twin_free(g) for g in graphs)
    return graphs


def test_line_graph_parameters_reuse_the_edge_search(searches, builds):
    # L(G)'s vertex adjacency is G's edge adjacency, so ld(L(G)) and
    # ltd(L(G)) are eld(G) and eltd(G) as hitting-set instances, and the
    # second solve of each pair finds the first in the memo before it
    # builds a family.
    for g in _edge_twin_free_sample():
        line = line_graph(g).line
        for edge, vertex in (("eld", "ld"), ("eltd", "ltd")):
            solvers._SOLVED.clear()
            searches.clear()
            builds.clear()
            assert _answer(g, edge) == _answer(line, vertex), (g.edges, edge)
            assert searches == builds == [g.m], (g.edges, edge)


def test_weld_reuses_eld_only_without_edge_twins(searches, builds):
    for g in _edge_twin_free_sample():
        for order in (("eld", "weld"), ("weld", "eld")):
            solvers._SOLVED.clear()
            searches.clear()
            builds.clear()
            first, second = (_answer(g, name) for name in order)
            assert first == second and searches == builds == [g.m], (g.edges, order)
    # K_{1,3}'s edges are pairwise twins: weld drops every separation mask,
    # so its family differs from eld's and it runs a search of its own.
    claw = star(3)
    assert not is_edge_twin_free(claw)
    solvers._SOLVED.clear()
    searches.clear()
    builds.clear()
    assert _answer(claw, "eld") == (2, (0, 1))
    assert _answer(claw, "weld") == (1, (0,))
    assert searches == builds == [3, 3]


def _counting_floor(ground):
    """The least k with 2^k - 1 distinct nonempty traces for ground - k elements."""
    return next(k for k in range(ground + 1) if (1 << k) - 1 >= ground - k)


def test_total_variants_start_from_the_plain_value(searches, monkeypatch):
    # A total set is a plain one, so dom <= tdom, ld <= ltd and eld <= eltd:
    # a total search starts from the plain value on the same adjacency when
    # the memo holds it, and from the counting floor when it does not.  The
    # floor is read from the key, so weld without edge-twins, eld's key,
    # starts from eld's counting floor.
    floors = []
    search = solvers._least_hitting_set

    def recorded(ground, family, first_k):
        floors.append(first_k)
        return search(ground, family, first_k)

    monkeypatch.setattr(solvers, "_least_hitting_set", recorded)
    for g in _edge_twin_free_sample():
        counts = 0, _counting_floor(g.n), _counting_floor(g.m)
        for (plain, total), count in zip((("dom", "tdom"), ("ld", "ltd"), ("eld", "eltd")), counts):
            solvers._SOLVED.clear()
            floors.clear()
            cold = _answer(g, total)
            solvers._SOLVED.clear()
            value = _answer(g, plain)[0]
            assert _answer(g, total) == cold, (g.edges, total)
            assert floors == [count, count, value], (g.edges, total)
        # ltd of L(G) reads eld's entry, since L(G)'s vertex adjacency is G's edge adjacency
        solvers._SOLVED.clear()
        floors.clear()
        value = _answer(g, "eld")[0]
        _answer(line_graph(g).line, "ltd")
        assert floors[1] == value
        solvers._SOLVED.clear()
        floors.clear()
        _answer(g, "weld")
        assert floors == [_counting_floor(g.m)], g.edges
    # the pairs of a star's edges are exempt, which voids the counting floor
    solvers._SOLVED.clear()
    floors.clear()
    assert _answer(star(3), "weld") == (1, (0,))
    assert floors == [0]
    # the floor is read with get: dom solved after eld stays the more recent
    g = P5
    solvers._SOLVED.clear()
    for name in ("eld", "dom", "eltd"):
        solve_min(g, name)
    assert list(solvers._SOLVED) == [
        (g.eadj, False, True, False), (g.vadj, False, False, False), (g.eadj, True, True, False)
    ]


def test_solve_order_does_not_change_results(searches):
    # Forward and reverse over the seven parameters and ld, ltd of L(G),
    # each from a cleared memo, and each solve again alone: every answer
    # must be the same whichever solve ran the search.
    rng = random.Random(20261020)
    graphs = [parse_graph6(graph6) for graph6 in dict.fromkeys(row[0] for row in PINNED)]
    graphs += [conftest.random_connected_graph(rng, n) for n in (7, 8, 9) for _ in range(8)]
    names = ("dom", "tdom", "ld", "ltd", "eld", "eltd", "weld")
    shared = 0
    for g in graphs:
        line = line_graph(g).line
        solves = [(g, name) for name in names] + [(line, "ld"), (line, "ltd")]
        answers = []
        for order in (solves, solves[::-1]):
            solvers._SOLVED.clear()
            searches.clear()
            answers.append({(t is line, name): _answer(t, name) for t, name in order})
            shared += len(order) - len(searches)
        alone = {}
        for t, name in solves:
            solvers._SOLVED.clear()
            alone[t is line, name] = _answer(t, name)
        assert answers[0] == answers[1] == alone, g.edges
    assert shared  # some solve took another's answer


def test_memo_stays_within_its_bound(searches):
    bound = solvers._SOLVED_BOUND
    kept = named_graph("P3")
    for n in range(1, 101):
        solve_min(named_graph(f"P{n}"), "dom")
        assert len(solvers._SOLVED) <= bound
        if n % (bound // 2) == 0:
            solve_min(kept, "dom")  # in use, so never the least recent
    assert len(solvers._SOLVED) == bound
    assert len(searches) == 100  # P3 after P3 ran no search
    # the last bound distinct instances are kept, and an older one is not
    searches.clear()
    solve_min(named_graph("P100"), "dom")
    solve_min(kept, "dom")
    assert searches == []
    solve_min(named_graph("P50"), "dom")
    assert searches == [50]


# Sparse instances, on which the search took longest for its size: values
# and least witnesses recorded from the solver before solve_min kept a memo,
# the last (m = 45, value 2m/3) from the lexicographic branch and bound that
# the two-phase search replaced, which took 8-11 s for it.
SPARSE_PINNED = [
    (named_graph("P41"), "eld", 16, (1, 3, 6, 8, 11, 13, 16, 18, 21, 23, 26, 28, 31, 33, 36, 38)),
    (spider_weld_tree(6, 5), "weld", 16, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 18, 21, 24, 27, 30)),
    (
        subdivided_star_eltd(11), "eltd", 22,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31),
    ),
    (
        subdivided_star_eltd(15), "eltd", 30,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
         17, 19, 21, 23, 25, 27, 29, 31, 33, 35, 37, 39, 41, 43),
    ),
]


def test_sparse_pins_hold_cold_and_warm(searches):
    for g, name, value, witness in SPARSE_PINNED:
        assert REF_PREDICATES[parse_parameter(name)](g, set(witness))
    for _ in ("cold", "warm"):
        for g, name, value, witness in SPARSE_PINNED:
            assert _answer(g, name) == (value, witness), name
        # each instance was searched once, when the memo was cold
        assert searches == [g.m for g, *_ in SPARSE_PINNED]


# Least witnesses of eld, weld and ld on 20 random 25-vertex trees (vertex
# v >= 1 joins a uniform earlier vertex, random.Random(20261021)), recorded
# from the solver before solve_min looked its memo up by adjacency.
TREE_PINS = [
    ((0, 2, 3, 7, 9, 10, 11, 13, 16, 18), (0, 1, 3, 10, 11, 13, 14, 18),
     (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 14, 21)),
    ((0, 3, 4, 6, 7, 8, 10, 12, 19, 20), (1, 2, 3, 4, 6, 7, 12, 19, 20),
     (0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 13, 14, 16, 19)),
    ((0, 1, 2, 8, 10, 15, 16, 18, 19, 20, 22), (1, 2, 6, 8, 10, 11, 22),
     (0, 1, 2, 3, 4, 5, 7, 8, 10, 12, 13, 14, 18, 19, 22)),
    ((0, 4, 5, 8, 9, 11, 12, 13, 15, 17, 21), (0, 2, 4, 5, 6, 7, 8, 15, 21),
     (0, 3, 4, 5, 6, 7, 8, 9, 12, 13, 14, 16, 17, 23)),
    ((1, 2, 6, 7, 11, 13, 14, 15, 21), (1, 2, 4, 5, 6, 7, 13, 15, 20),
     (3, 4, 6, 8, 9, 10, 11, 14, 15, 19, 20)),
    ((0, 2, 3, 8, 10, 13, 14, 16, 18, 19), (0, 1, 3, 4, 12, 13, 14, 18, 19),
     (0, 1, 2, 3, 7, 8, 9, 10, 12, 13, 16, 17, 18)),
    ((0, 1, 2, 7, 8, 9, 12, 13, 14, 22), (0, 1, 2, 7, 8, 9, 12, 14, 17),
     (0, 1, 2, 4, 5, 6, 7, 10, 12, 13, 15, 19, 20)),
    ((1, 2, 3, 5, 8, 10, 13, 15, 19, 21), (0, 1, 3, 5, 7, 10, 15, 19, 21),
     (0, 1, 2, 3, 4, 5, 7, 8, 11, 12, 15, 17, 20)),
    ((1, 2, 4, 6, 7, 11, 12, 13, 14, 18), (1, 2, 4, 6, 7, 11, 12, 13, 14, 18),
     (1, 2, 3, 7, 8, 10, 12, 13, 14, 19, 23)),
    ((0, 3, 7, 10, 11, 14, 16, 18, 19, 21), (0, 5, 6, 7, 9, 14, 21),
     (0, 1, 2, 4, 5, 6, 7, 8, 12, 13, 16, 17, 18, 19, 21)),
    ((0, 5, 8, 11, 12, 13, 14, 19, 20), (0, 2, 5, 8, 11, 12, 13, 19, 20),
     (1, 2, 3, 4, 7, 8, 9, 12, 13, 16, 19)),
    ((1, 3, 5, 7, 8, 12, 13, 15, 17, 18), (0, 1, 5, 7, 8, 12, 15, 17, 18),
     (1, 2, 4, 5, 6, 7, 9, 10, 11, 15, 17, 18)),
    ((0, 1, 2, 7, 8, 10, 11, 14, 19, 22), (0, 1, 4, 5, 7, 14, 15, 19),
     (0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 14, 17, 19)),
    ((0, 5, 6, 7, 9, 13, 17, 18, 21), (0, 4, 5, 6, 12, 13, 15, 17),
     (0, 1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 15, 16, 21)),
    ((0, 1, 3, 6, 7, 8, 10, 12, 14, 18, 21), (0, 1, 3, 5, 6, 11, 18, 19),
     (1, 2, 3, 5, 6, 7, 8, 12, 13, 14, 16, 17, 20, 21)),
    ((1, 4, 5, 7, 8, 10, 13, 14, 16, 18, 21), (2, 3, 5, 7, 9, 14, 21),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 16, 19, 20)),
    ((0, 3, 5, 6, 9, 12, 14, 18, 20, 21), (0, 1, 5, 9, 10, 11, 20, 21),
     (1, 2, 3, 6, 8, 9, 10, 11, 12, 16, 17, 19)),
    ((0, 6, 7, 9, 11, 15, 16, 19, 21), (0, 4, 6, 9, 11, 15, 16, 19),
     (0, 1, 2, 4, 6, 8, 10, 11, 12, 15, 16, 20, 23)),
    ((0, 2, 3, 4, 6, 8, 13, 14, 15, 17, 19), (0, 2, 6, 8, 13, 14, 15, 17, 19),
     (1, 2, 3, 4, 7, 8, 11, 12, 16, 17, 18, 19)),
    ((0, 3, 4, 7, 8, 9, 10, 11, 14, 15, 17, 18), (0, 4, 6, 7, 8, 14, 15, 17),
     (0, 1, 2, 3, 7, 8, 9, 10, 12, 13, 14, 15, 16, 19)),
]


def test_tree_pins_hold_cold_and_warm(searches):
    rng = random.Random(20261021)
    trees = [conftest.random_tree(rng, 25) for _ in TREE_PINS]
    for g, witnesses in zip(trees, TREE_PINS):
        for name, witness in zip(("eld", "weld", "ld"), witnesses):
            assert REF_PREDICATES[parse_parameter(name)](g, set(witness)), name
        cold = len(searches)
        for _ in ("cold", "warm"):
            for name, witness in zip(("eld", "weld", "ld"), witnesses):
                assert _answer(g, name) == (len(witness), witness), name
        # weld shares eld's search only on an edge-twin-free tree
        assert len(searches) - cold == 3 - is_edge_twin_free(g)


def _definition_rows(g, param):
    """The ground size and the sets that a feasible set must meet, written
    from g.n, g.edges and the definitions alone: each element's closed
    neighbourhood (its open one when total) and, for the locating variants,
    each pair's N(a) ^ N(b) | {a, b}, except, for weld, the pairs of
    edge-twins (equal open or closed edge neighbourhoods)."""
    if param.on_edges:
        ends = [set(edge) for edge in g.edges]
        around = [{f for f, other in enumerate(ends) if f != e and ends[e] & other}
                  for e in range(len(ends))]
    else:
        around = [set() for _ in range(g.n)]
        for u, v in g.edges:
            around[u].add(v)
            around[v].add(u)
    rows = [a if param.total else a | {i} for i, a in enumerate(around)]
    if param.locating:
        for a, b in combinations(range(len(around)), 2):
            twins = around[a] == around[b] or around[a] | {a} == around[b] | {b}
            if not (twins and param is Parameter.WEAK_EDGE_LOC_DOM):
                rows.append(around[a] ^ around[b] | {a, b})
    return len(around), rows


def test_values_match_the_highs_integer_program():
    """Values beyond brute-force reach against an independent exact solver:
    the hitting-set integer program, solved to a zero gap by HiGHS."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    rng = random.Random(20261020)
    graphs = []
    while len(graphs) < 12:  # connected G(9, 1/2), by rejection
        g = conftest.random_graph(rng, 9, 0.5)
        if is_connected(g):
            graphs.append(g)
    tree = conftest.random_tree(random.Random(20261020), 31)
    graphs += [spider_weld_tree(3, 6), subdivided_star_eltd(12), tree]
    for g in graphs:
        for param in Parameter:
            ground, rows = _definition_rows(g, param)
            matrix = np.zeros((len(rows), ground))
            for r, row in enumerate(rows):
                matrix[r, list(row)] = 1
            program = milp(
                np.ones(ground),
                integrality=np.ones(ground),
                bounds=Bounds(0, 1),
                constraints=LinearConstraint(matrix, lb=1),
                options={"mip_rel_gap": 0},
            )
            assert program.status == 0, (g, param, program.message)
            result = solve_min(g, param)
            assert round(program.fun) == result.value, (g, param)
            assert all(row & result.witness for row in rows), (g, param)
    # the tree's edge-twin exemptions lower its value, so weld's rows count
    assert solve_min(tree, "weld").value < solve_min(tree, "eld").value
