"""Enumeration, isomorphism tools, the twin census, and bound checking."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import networkx as nx
import pytest

from locdom import (
    SKIP_REASONS,
    THEOREMS,
    BoundCheck,
    BoundReport,
    EnumerationSpec,
    Graph,
    LocdomError,
    SizeLimitError,
    TheoremSummary,
    canonical_form,
    check_graph,
    enumerate_graphs,
    iter_reports,
    named_graph,
    open_edge_twin_census,
    report_lines,
    twin_report,
)
from locdom.verify import _THEOREMS, _classified, _open_twin_masks, _relabelings
from conftest import nx_isomorphic, random_graph

# labeled graph counts on n vertices: all, and connected
ALL_COUNTS = {1: 1, 2: 2, 3: 8, 4: 64, 5: 1024}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
# unlabeled counts for the dedup mode (OEIS A000088 and A001349)
UNLABELED_ALL = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
UNLABELED_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def test_spec_validation():
    with pytest.raises(SizeLimitError):
        EnumerationSpec(n=9)
    with pytest.raises(SizeLimitError):
        EnumerationSpec(n=-1)
    with pytest.raises(LocdomError):
        EnumerationSpec(n=4, shard=(2, 2))
    with pytest.raises(LocdomError):
        EnumerationSpec(n=4, shard=(0, 0))
    with pytest.raises(LocdomError):
        EnumerationSpec(n=4, shard=(-1, 3))


def test_labeled_counts():
    for n, want in ALL_COUNTS.items():
        assert sum(1 for _ in enumerate_graphs(EnumerationSpec(n=n, connected_only=False))) == want
    for n, want in CONNECTED_COUNTS.items():
        if n <= 5:
            assert sum(1 for _ in enumerate_graphs(EnumerationSpec(n=n))) == want


def test_unlabeled_counts():
    for n, want in UNLABELED_ALL.items():
        spec = EnumerationSpec(n=n, connected_only=False, dedup_isomorphic=True)
        assert sum(1 for _ in enumerate_graphs(spec)) == want
    for n, want in UNLABELED_CONNECTED.items():
        spec = EnumerationSpec(n=n, dedup_isomorphic=True)
        assert sum(1 for _ in enumerate_graphs(spec)) == want


def test_enumerated_graphs_have_right_order_and_kind():
    for g in enumerate_graphs(EnumerationSpec(n=3, connected_only=False)):
        assert g.n == 3
    connected = list(enumerate_graphs(EnumerationSpec(n=3)))
    assert len(connected) == 4
    # the triangle and the three labelings of the path
    assert sum(1 for g in connected if g.m == 3) == 1
    assert sum(1 for g in connected if g.m == 2) == 3


def test_shards_partition_the_stream():
    whole = [g.edges for g in enumerate_graphs(EnumerationSpec(n=4, connected_only=False))]
    for total in (2, 3, 4):
        pieces = [
            [
                g.edges
                for g in enumerate_graphs(
                    EnumerationSpec(n=4, connected_only=False, shard=(i, total))
                )
            ]
            for i in range(total)
        ]
        merged = [e for piece in pieces for e in piece]
        assert sorted(merged) == sorted(whole)
        assert len(merged) == len(whole)  # pairwise disjoint
    conn_whole = [g.edges for g in enumerate_graphs(EnumerationSpec(n=5))]
    conn_pieces = [
        [g.edges for g in enumerate_graphs(EnumerationSpec(n=5, shard=(i, 2)))]
        for i in range(2)
    ]
    assert sorted(conn_pieces[0] + conn_pieces[1]) == sorted(conn_whole)


def test_shards_balance_the_connected_stream():
    whole = CONNECTED_COUNTS[6]
    for total in range(2, 7):
        sizes = [
            sum(1 for _ in enumerate_graphs(EnumerationSpec(n=6, shard=(i, total))))
            for i in range(total)
        ]
        assert sum(sizes) == whole
        assert max(sizes) <= 1.02 * min(sizes), (total, sizes)


def _first_per_class(graphs):
    """The slow dedup: keep the first graph of each canonical form."""
    seen = set()
    for g in graphs:
        form = canonical_form(g)
        if form not in seen:
            seen.add(form)
            yield g


def test_dedup_keeps_first_mask_per_class():
    for n in range(0, 6):
        for connected_only in (True, False):
            for total in (1, 2, 3):
                for i in range(total):
                    spec = EnumerationSpec(n, connected_only, shard=(i, total))
                    dedup = EnumerationSpec(n, connected_only, True, (i, total))
                    want = [g.edges for g in _first_per_class(enumerate_graphs(spec))]
                    assert [g.edges for g in enumerate_graphs(dedup)] == want


def test_relabelings_walk_every_permutation_once():
    rng = random.Random(7)
    for n in range(0, 7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for _ in range(5):
            mask = rng.getrandbits(len(pairs))
            edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
            want = sorted(
                sum(1 << pairs.index(tuple(sorted((perm[u], perm[v])))) for u, v in edges)
                for perm in permutations(range(n))
            )
            assert sorted(_relabelings(mask, n)) == want


def test_class_index_is_the_isomorphism_class():
    # Two masks share a class index exactly when their canonical forms agree.
    for n in range(0, 6):
        spec = EnumerationSpec(n, connected_only=False)
        form_of_class, class_of_form = {}, {}
        for (c, _), g in zip(_classified(spec), enumerate_graphs(spec), strict=True):
            form = canonical_form(g)
            assert form_of_class.setdefault(c, form) == form
            assert class_of_form.setdefault(form, c) == c
        assert len(form_of_class) == UNLABELED_ALL.get(n, 1)


def test_dedup_matches_graph_atlas_at_six_vertices():
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes() == 6]
    for connected_only in (True, False):
        spec = EnumerationSpec(n=6, connected_only=connected_only, dedup_isomorphic=True)
        unmatched = [h for h in atlas if nx.is_connected(h) or not connected_only]
        for g in enumerate_graphs(spec):
            h = nx.Graph(g.edges)
            h.add_nodes_from(range(6))
            (match,) = [a for a in unmatched if nx.is_isomorphic(a, h)]
            unmatched.remove(match)
        assert unmatched == []


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(20260825)
    for _ in range(40):
        n = rng.randrange(1, 8)
        g = random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_form(g) == canonical_form(h)
        assert nx_isomorphic(g, h)


def test_isomorphism_examples():
    p4 = named_graph("P4")
    relabeled = Graph(4, [(2, 0), (0, 3), (3, 1)])
    assert nx_isomorphic(p4, relabeled)
    assert not nx_isomorphic(p4, named_graph("K1,3"))  # same n, m; different degrees
    assert not nx_isomorphic(p4, named_graph("C4"))
    assert not nx_isomorphic(p4, named_graph("P3"))
    with pytest.raises(SizeLimitError):
        canonical_form(Graph(9))


def test_inverted_open_twin_scan_matches_direct_scan():
    # every labeled graph, disconnected ones included: two disjoint edges
    # are open twins of each other
    for n in range(6):
        slot = {p: i for i, p in enumerate(combinations(range(n), 2))}
        direct = {
            sum(1 << slot[e] for e in g.edges)
            for g in enumerate_graphs(EnumerationSpec(n=n, connected_only=False))
            if twin_report(g).open_edge_pairs
        }
        assert _open_twin_masks(n) == direct, n
    assert (1 << 0 | 1 << 5) in _open_twin_masks(4)  # the matching 01, 23


def test_open_twin_census_is_the_five_shapes():
    census = open_edge_twin_census(7)
    assert len(census) == 5
    targets = [named_graph(s) for s in ("P4", "C4", "paw", "diamond", "K4")]
    for rep in census:
        assert rep.n == 4
        assert sum(1 for t in targets if nx_isomorphic(rep, t)) == 1
    # distinct classes
    assert len({canonical_form(rep) for rep in census}) == 5
    with pytest.raises(SizeLimitError):
        open_edge_twin_census(9)


def test_theorem_names_and_skip_reasons_are_frozen():
    assert THEOREMS == (
        "weld_half",
        "eld_half",
        "eltd_two_thirds",
        "cor_ld_line",
        "cor_ltd_line",
        "obs1",
        "ore_half",
        "cockayne_two_thirds",
        "size6_eld3",
    )
    assert set(SKIP_REASONS) == {
        "isolated_edge",
        "isolated_vertex",
        "not_edge_twin_free",
        "disconnected",
        "size_mismatch",
    }


def test_skip_reasons_cover_every_theorem_row():
    named = {reason for row in _THEOREMS.values() for reason, _ in row.preconditions}
    assert set(SKIP_REASONS) == named


def test_check_graph_records():
    c6 = named_graph("C6")
    rep = check_graph(c6, "weld_half")
    assert rep.skipped_reason is None
    chk = rep.check
    assert chk == BoundCheck(parameter="weld", value=3, bound=Fraction(3), holds=True)
    assert (rep.graph6, rep.n, rep.m) == ("EhEG", 6, 6)

    assert check_graph(Graph(2, [(0, 1)]), "weld_half").skipped_reason == "isolated_edge"
    assert check_graph(named_graph("P4"), "eld_half").skipped_reason == "not_edge_twin_free"
    assert check_graph(Graph(4, [(0, 1), (2, 3)]), "obs1").skipped_reason == "disconnected"
    assert check_graph(c6, "size6_eld3").check.holds
    assert check_graph(named_graph("P4"), "size6_eld3").skipped_reason == "size_mismatch"
    assert check_graph(Graph(3), "ore_half").skipped_reason == "isolated_vertex"
    assert check_graph(Graph(1), "cockayne_two_thirds").skipped_reason == "isolated_vertex"
    assert check_graph(Graph(2, [(0, 1)]), "cockayne_two_thirds").skipped_reason == "isolated_edge"
    assert check_graph(named_graph("P3"), "cockayne_two_thirds").check.value == 2

    with pytest.raises(LocdomError):
        check_graph(c6, "no_such_theorem")


@pytest.mark.parametrize("name", ("K8", "K9"))
def test_every_theorem_reports_on_large_complete_graphs(name):
    # L(K8) has 168 edges and L(K9) 36 vertices: past the size caps that once
    # stopped the line-graph corollaries.
    g = named_graph(name)
    for theorem in THEOREMS:
        rep = check_graph(g, theorem)
        assert (rep.n, rep.m) == (g.n, g.m)
        if theorem == "size6_eld3":
            assert rep.skipped_reason == "size_mismatch"
        else:
            assert rep.skipped_reason is None and rep.check.holds
    assert check_graph(g, "cor_ld_line").check.value == 6
    assert check_graph(g, "cor_ltd_line").check.value == 6


def test_check_graph_line_corollaries():
    p5 = named_graph("P5")
    rep = check_graph(p5, "cor_ld_line")
    chk = rep.check
    # L(P_5) = P_4 whose location-domination number is 2, against bound 4/2
    assert chk.parameter == "ld" and chk.value == 2 and chk.bound == Fraction(2)
    assert chk.holds
    rep2 = check_graph(p5, "cor_ltd_line")
    chk2 = rep2.check
    assert chk2.parameter == "ltd" and chk2.value == 2
    assert chk2.bound == Fraction(8, 3)


def test_summary_counts_and_serialisation():
    summary = TheoremSummary("weld_half")
    summary.add(check_graph(named_graph("C6"), "weld_half"))
    summary.add(check_graph(Graph(2, [(0, 1)]), "weld_half"))
    assert summary.checked == 1
    assert summary.skipped == {"isolated_edge": 1}
    assert summary.violations == []
    assert summary.to_json() == (
        '{"theorem": "weld_half", "checked": 1,'
        ' "skipped": {"isolated_edge": 1}, "violations": []}'
    )


def test_summary_registers_violations():
    summary = TheoremSummary("weld_half")
    fake = BoundReport(
        graph6="FAKE",
        n=5,
        m=5,
        check=BoundCheck("weld", 9, Fraction(5, 2), False),
        skipped_reason=None,
    )
    summary.add(fake)
    assert summary.checked == 1
    assert summary.violations == ["FAKE"]
    assert '"violations": ["FAKE"]' in summary.to_json()


def test_verify_theorem_small_sweep():
    graphs = list(enumerate_graphs(EnumerationSpec(n=4)))
    summary = TheoremSummary("weld_half")
    reports = list(iter_reports(graphs, "weld_half", summary))
    assert len(reports) == 38
    assert summary.checked == 38
    assert summary.skipped == {}
    assert summary.violations == []
    summary2 = TheoremSummary("eld_half")
    list(iter_reports(graphs, "eld_half", summary2))
    assert summary2.checked == 0  # every connected 4-vertex graph has edge-twins
    assert summary2.skipped["not_edge_twin_free"] == 38


def test_iter_reports_streams_and_feeds_summary():
    graphs = enumerate_graphs(EnumerationSpec(n=3))
    summary = TheoremSummary("ore_half")
    seen = 0
    for rep in iter_reports(graphs, "ore_half", summary):
        seen += 1
        assert rep.skipped_reason is None
    assert seen == 4
    assert summary.checked == 4


def test_report_stream_is_deterministic():
    def run():
        graphs = enumerate_graphs(EnumerationSpec(n=4))
        return "".join(line + "\n" for line in report_lines(iter_reports(graphs, "weld_half")))

    first, second = run(), run()
    assert first == second
    assert first.count("\n") == 38
