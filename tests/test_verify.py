"""Enumeration, isomorphism tools, the twin census, and bound checking."""

import pickle
import random
from collections import defaultdict
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
    report_lines,
    twin_report,
)
from locdom.verify import _class_table, _dealt, _orbit, census_lines
from conftest import class_reps, nx_isomorphic, random_graph

# labeled graph counts on n vertices: all, and connected
ALL_COUNTS = {1: 1, 2: 2, 3: 8, 4: 64, 5: 1024}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
# unlabeled counts for the dedup mode (OEIS A000088 and A001349)
UNLABELED_ALL = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
UNLABELED_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
# self-complementary unlabeled graphs (OEIS A000171)
SELF_COMPLEMENTARY = {1: 1, 2: 0, 3: 0, 4: 1, 5: 2, 6: 0}


def test_spec_validation():
    # bad input raises however a spec is built: positional, keyword, _replace
    # or _make; a non-integer order or shard entry is bad input too
    spec = EnumerationSpec(4)
    bad_orders = ((9, SizeLimitError), (-1, SizeLimitError), (3.5, LocdomError), ("4", LocdomError))
    for bad_n, error in bad_orders:
        for build in (
            lambda: EnumerationSpec(bad_n),
            lambda: EnumerationSpec(n=bad_n),
            lambda: spec._replace(n=bad_n),
            lambda: EnumerationSpec._make((bad_n, True, False, (0, 1))),
        ):
            with pytest.raises(error):
                build()
    for bad_shard in ((2, 2), (0, 0), (-1, 3), (0, 1.5), (1.0, 2)):
        for build in (
            lambda: EnumerationSpec(4, True, False, bad_shard),
            lambda: EnumerationSpec(n=4, shard=bad_shard),
            lambda: spec._replace(shard=bad_shard),
            lambda: EnumerationSpec._make((4, True, False, bad_shard)),
        ):
            with pytest.raises(LocdomError):
                build()
    # a good spec is the same record whichever way it is built
    good = EnumerationSpec(5, False, True, (1, 3))
    assert good == EnumerationSpec(n=5, connected_only=False, dedup_isomorphic=True, shard=(1, 3))
    assert good == spec._replace(n=5, connected_only=False, dedup_isomorphic=True, shard=(1, 3))
    assert good == EnumerationSpec._make(good) == pickle.loads(pickle.dumps(good))
    assert type(spec._replace(n=5)) is EnumerationSpec


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
    # _dealt deals the shards that enumerate_graphs turns into Graphs
    whole = CONNECTED_COUNTS[6]
    for total in range(2, 7):
        sizes = [
            sum(1 for _ in _dealt(EnumerationSpec(n=6, shard=(i, total)))[2])
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


def test_dedup_shards_partition_the_classes():
    # canonical_form is the slow oracle for the unsharded dedup in _dealt;
    # shard i of t deals every t-th class of it from the i-th, so the shards
    # partition the classes.  The per-graph stream over each dedup shard is
    # the oracle for the census over it, and the shard summaries add up to
    # the unsharded one.
    for n in range(0, 6):
        for connected_only in (True, False):
            spec = EnumerationSpec(n, connected_only)
            want = [g.edges for g in _first_per_class(enumerate_graphs(spec))]
            for theorem in THEOREMS:
                totals = []
                for total in (1, 2, 3, 4):
                    added = TheoremSummary(theorem)
                    for i in range(total):
                        dedup = EnumerationSpec(n, connected_only, True, (i, total))
                        assert [g.edges for g in enumerate_graphs(dedup)] == want[i::total]
                        census, per_graph = TheoremSummary(theorem), TheoremSummary(theorem)
                        reports = iter_reports(enumerate_graphs(dedup), theorem, per_graph)
                        want_lines = "".join(line + "\n" for line in report_lines(reports))
                        lines = "".join(census_lines([dedup], theorem, census))
                        assert lines == want_lines, (theorem, dedup)
                        assert census.to_json() == per_graph.to_json(), (theorem, dedup)
                        added.checked += census.checked
                        added.skipped += census.skipped
                        added.violations += census.violations
                    added.violations.sort()
                    totals.append(added.to_json())
                assert totals == totals[:1] * 4, (theorem, n, connected_only)


def test_orbit_meets_every_relabeling_once():
    # n = 7 splits its 21 slots unevenly between the two halves of each table
    rng = random.Random(7)
    for n in range(0, 8):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for _ in range(5):
            mask = rng.getrandbits(len(pairs))
            edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
            want = sorted({
                sum(1 << pairs.index(tuple(sorted((perm[u], perm[v])))) for u, v in edges)
                for perm in permutations(range(n))
            })
            assert sorted(_orbit(mask, n, defaultdict(int), 1)) == want


def test_class_table_counts_at_seven_vertices():
    # OEIS A000088 (1,044 classes), A001349 (853 connected) and A000171 (no
    # self-complementary class), read off the table's least mask per class
    classes, connected, least = _class_table(7)
    assert len({classes[m] for m in least}) == len(least) == len(connected) - 2 == 1044
    assert sum(connected[classes[m]] for m in least) == 853
    full = len(classes) - 1
    assert not any(classes[full ^ m] == classes[m] for m in least)


def test_canonical_form_is_the_least_relabeling_at_eight_vertices():
    rng = random.Random(20261019)
    slot = {e: k for k, e in enumerate(combinations(range(8), 2))}
    for p in (0.3, 0.5, 0.7):
        g = random_graph(rng, 8, p)
        want = min(
            sum(1 << slot[tuple(sorted((perm[u], perm[v])))] for u, v in g.edges)
            for perm in permutations(range(8))
        )
        assert canonical_form(g) == want


def test_complement_classes_pair_by_xor():
    # The complement of a class-c mask is in class c ^ 1, or in c itself
    # exactly when the class is self-complementary.  Every shard and filter
    # reads the one table built per order, and the shards deal every mask
    # once; running the filters connected, all, connected again shows that
    # neither filter's flags leak into the other through the shared table.
    _class_table.cache_clear()
    for n in range(1, 7):
        full = (1 << n * (n - 1) // 2) - 1
        table = None
        passes = []
        for connected_only in (True, False, True):
            for total in (1, 3):
                dealt = []
                for i in range(total):
                    spec = EnumerationSpec(n, connected_only, shard=(i, total))
                    classes, count, masks = _dealt(spec)
                    assert table is None or table is classes
                    table = classes
                    dealt.extend(masks)
                assert 0 not in table and max(table) < count  # every slot marked
                # OEIS A001187 connected, A006125 all
                assert len(dealt) == (CONNECTED_COUNTS[n] if connected_only else full + 1)
                passes.append(sorted(dealt))
                if not connected_only:
                    assert passes[-1] == list(range(full + 1))
        assert passes[0] == passes[1] == passes[4] == passes[5]
        assert _class_table.cache_info().misses == n  # one build per order 1..n
        class_of = dict(enumerate(table))
        self_complementary, member = set(), {}
        for mask, c in class_of.items():
            member.setdefault(c, mask)
            if class_of[full ^ mask] == c:
                self_complementary.add(c)
            else:
                assert class_of[full ^ mask] == c ^ 1, (n, mask)
        assert len(self_complementary) == SELF_COMPLEMENTARY[n]
        # the first mask met per class is its least, which the fill records
        assert sorted(member.values()) == _class_table(n)[2]
        # a self-complementary class keeps its own index, and c ^ 1 marks no mask
        assert not {c ^ 1 for c in self_complementary} & set(table)
        for c, mask in member.items():
            h = nx.Graph(p for k, p in enumerate(combinations(range(n), 2)) if mask >> k & 1)
            h.add_nodes_from(range(n))
            assert nx.is_isomorphic(h, nx.complement(h)) == (c in self_complementary)
    # P4 and C5 are self-complementary, and so is the class of their masks
    for name in ("P4", "C5"):
        g = named_graph(name)
        classes, _, _ = _dealt(EnumerationSpec(g.n, connected_only=False))
        mask = sum(1 << k for k, p in enumerate(combinations(range(g.n), 2)) if p in g.edges)
        c = classes[mask]
        assert c % 2 == 0 and classes[(1 << g.n * (g.n - 1) // 2) - 1 ^ mask] == c
        assert c ^ 1 not in classes


def test_class_index_is_the_isomorphism_class():
    # Two masks share a class index exactly when their canonical forms agree.
    for n in range(0, 6):
        spec = EnumerationSpec(n, connected_only=False)
        form_of_class, class_of_form = {}, {}
        classes, _, masks = _dealt(spec)
        for mask, g in zip(masks, enumerate_graphs(spec), strict=True):
            c, form = classes[mask], canonical_form(g)
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


def test_open_twin_census_is_the_five_shapes():
    # 143 connected classes for n <= 6 and 853 at n = 7 (OEIS A001349)
    assert len(class_reps(7)) == 143 + 853
    census = [g for g in class_reps(7) if twin_report(g).open_edge_pairs]
    assert len(census) == 5
    targets = [named_graph(s) for s in ("P4", "C4", "paw", "diamond", "K4")]
    for rep in census:
        assert rep.n == 4
        assert sum(1 for t in targets if nx_isomorphic(rep, t)) == 1
    # distinct classes
    assert len({canonical_form(rep) for rep in census}) == 5


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


def test_bound_report_fields_and_checks():
    chk = BoundCheck("weld", 3, Fraction(3), True)
    checked = BoundReport(graph6="EhEG", n=6, m=6, check=chk, skipped_reason=None)
    assert checked == BoundReport("EhEG", 6, 6, chk, None)
    assert checked.checks == (chk,)
    skipped = BoundReport("A_", 2, 1, None, "isolated_edge")
    assert skipped == BoundReport(graph6="A_", n=2, m=1, check=None, skipped_reason="isolated_edge")
    assert skipped.checks == ()
    with pytest.raises(AttributeError):
        skipped.n = 3


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
