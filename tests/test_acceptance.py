"""Top-level acceptance checks, one test and one printed verdict line each.

Every comparison is exact (integers and fractions, tolerance zero).  The
exhaustive sweeps cover all connected graphs on up to six vertices and read
the census that `locdom verify --max-n 6` writes, one check per isomorphism
class; criterion 9 is the one per-graph oracle run, which must give the same
bytes.  The size-six census additionally covers the seven-vertex trees, the
only other connected graphs with exactly six edges.  The open-twin census
reads one graph per isomorphism class up to seven vertices.
"""

import random
import time
from itertools import chain

import networkx as nx
import pytest

from locdom import (
    EnumerationSpec,
    Graph,
    TheoremSummary,
    enumerate_graphs,
    is_edge_locating,
    is_edge_total_dominating,
    is_edge_twin_free,
    is_twin_free,
    iter_reports,
    line_graph,
    named_graph,
    parse_graph6,
    report_lines,
    solve_min,
    spider_weld_tree,
    subdivided_star_eltd,
    tree_eltd_construct,
    twin_report,
    write_graph6,
)
from locdom.verify import census_lines
from conftest import (
    class_reps,
    nx_isomorphic,
    random_connected_graph,
    random_graph_capped,
    to_networkx,
)

# the connected graphs on 1..6 vertices, as `locdom verify --max-n 6` reads them
SWEEP_SPECS = [EnumerationSpec(n=n) for n in range(1, 7)]
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}


def _finish(num: int, label: str, ok: bool, note: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{note}]" if note else ""
    print(f"ACCEPTANCE {num} ({label}): {verdict}{suffix}")
    assert ok, f"acceptance criterion {num} ({label}) failed: {note}"


def _run_theorem(theorem: str):
    """The census stream and summary of `locdom verify --max-n 6`, without the
    summary line."""
    summary = TheoremSummary(theorem)
    return "".join(census_lines(SWEEP_SPECS, summary)), summary


def _trees(n: int) -> list[Graph]:
    if n == 1:
        return [Graph(1)]
    return [
        Graph(n, sorted(tuple(sorted(e)) for e in t.edges()))
        for t in nx.nonisomorphic_trees(n)
    ]


@pytest.fixture(scope="module")
def weld_sweep():
    start = time.perf_counter()
    text, summary = _run_theorem("weld_half")
    return text, summary, time.perf_counter() - start


def test_criterion_1_weld_half_bound(weld_sweep):
    text, summary, elapsed = weld_sweep
    ok = (
        summary.violations == []
        and summary.checked == 27475
        and dict(summary.skipped) == {"isolated_edge": 1}
        and elapsed < 600.0
    )
    _finish(
        1,
        "weld bound m/2 on all connected graphs up to n=6",
        ok,
        f"checked={summary.checked}, violations={len(summary.violations)}, {elapsed:.1f}s",
    )


def test_criterion_2_strict_bounds():
    _, eld = _run_theorem("eld_half")
    _, eltd = _run_theorem("eltd_two_thirds")
    expected_skips = {"isolated_edge": 1, "not_edge_twin_free": 3848}
    ok = (
        eld.violations == []
        and eltd.violations == []
        and eld.checked == eltd.checked == 23627
        and dict(eld.skipped) == dict(eltd.skipped) == expected_skips
    )
    _finish(
        2,
        "strict eld m/2 and eltd 2m/3 bounds on edge-twin-free graphs",
        ok,
        f"checked={eld.checked} each, violations={len(eld.violations)}+{len(eltd.violations)}",
    )


def test_criterion_3_line_graph_consistency():
    rng = random.Random(20260825)
    mismatches = 0
    produced = 0
    while produced < 1000:
        g = random_connected_graph(rng, rng.randrange(3, 8), extra_edge_chance=0.15)
        if not 2 <= g.m <= 9:
            continue
        produced += 1
        line = line_graph(g).line
        if solve_min(g, "eld").value != solve_min(line, "ld").value:
            mismatches += 1
        if solve_min(g, "eltd").value != solve_min(line, "ltd").value:
            mismatches += 1
        if is_edge_twin_free(g) != is_twin_free(line):
            mismatches += 1
    _finish(
        3,
        "edge parameters transfer to the line graph on 1000 random graphs",
        mismatches == 0 and produced == 1000,
        f"graphs={produced}, mismatches={mismatches}",
    )


def test_criterion_4_open_twin_census():
    census = [g for g in class_reps(7) if twin_report(g).open_edge_pairs]
    targets = [named_graph(s) for s in ("P4", "C4", "paw", "diamond", "K4")]
    ok = len(census) == 5 and all(
        sum(1 for rep in census if nx_isomorphic(rep, t)) == 1 for t in targets
    )
    _finish(
        4,
        "connected graphs with open edge-twins up to n=7 are the five known shapes",
        ok,
        f"classes={len(census)}",
    )


def test_criterion_5_extremal_exactness():
    ok = True
    for k2 in range(5):
        for k4 in range(5):
            if not 1 <= k2 + k4 <= 4:
                continue
            got = solve_min(spider_weld_tree(k2, k4), "weld").value
            ok = ok and got == k2 + 2 * k4
    for k in range(2, 6):
        ok = ok and solve_min(subdivided_star_eltd(k), "eltd").value == 2 * k
    ok = ok and solve_min(named_graph("C6"), "eltd").value == 4
    ok = ok and solve_min(named_graph("P5"), "eltd").value == 2
    # The K_4 entry: its weak value is 2 because the only trace collision
    # left by two adjacent edges is an exempt open-twin pair; the value 3
    # belongs to the strict variant.  Both are asserted; see README.
    ok = ok and solve_min(named_graph("K4"), "weld").value == 2
    ok = ok and solve_min(named_graph("K4"), "eld").value == 3
    for n in range(3, 7):
        ok = ok and solve_min(named_graph(f"K{n}"), "ld").value == n - 1
        ok = ok and solve_min(named_graph(f"K1,{n - 1}"), "ltd").value == n - 1
    _finish(
        5,
        "extremal family values are exact",
        ok,
        "K_4 entry corrected: weld=2, strict eld=3; see README",
    )


def test_criterion_6_size_six_census():
    _, summary = _run_theorem("size6_eld3")
    # connected graphs with six edges also live on seven vertices: the trees
    for _ in iter_reports(_trees(7), summary):
        pass
    ok = (
        summary.violations == []
        and summary.checked == 2353
        and dict(summary.skipped)
        == {"size_mismatch": 23610, "not_edge_twin_free": 1524}
    )
    _finish(
        6,
        "every connected edge-twin-free graph with m=6 has strict value 3",
        ok,
        f"checked={summary.checked}, violations={len(summary.violations)}",
    )


def test_criterion_7_tree_construction():
    failures = 0
    etf_seen = 0
    small_diameter = []
    for n in range(1, 13):
        trees = _trees(n)
        if len(trees) != TREE_COUNTS[n]:
            failures += 1
        for g in trees:
            if not is_edge_twin_free(g):
                continue
            etf_seen += 1
            if nx.diameter(to_networkx(g)) < 4:
                small_diameter.append(g)
                continue
            picked = tree_eltd_construct(g)
            good = (
                is_edge_total_dominating(g, picked)
                and is_edge_locating(g, picked)
                and 3 * len(picked) <= 2 * g.m
                and len(picked) >= solve_min(g, "eltd").value
            )
            if not good:
                failures += 1
    # the only edge-twin-free trees the construction cannot serve are the
    # one- and two-vertex trees, whose diameter is below four
    if [(g.n, g.m) for g in small_diameter] != [(1, 0), (2, 1)]:
        failures += 1
    _finish(
        7,
        "tree construction is feasible, within 2m/3, and consistent on all trees up to n=12",
        failures == 0 and etf_seen == 166,
        f"edge-twin-free trees={etf_seen}, failures={failures}",
    )


def test_criterion_8_classical_bounds():
    _, ore = _run_theorem("ore_half")
    _, cockayne = _run_theorem("cockayne_two_thirds")
    ok = (
        ore.violations == []
        and cockayne.violations == []
        and ore.checked == 27475
        and dict(ore.skipped) == {"isolated_vertex": 1}
        and cockayne.checked == 27474
        and dict(cockayne.skipped) == {"isolated_vertex": 1, "isolated_edge": 1}
    )
    _finish(
        8,
        "domination n/2 and total domination 2n/3 sanity bounds",
        ok,
        f"checked={ore.checked}+{cockayne.checked}",
    )


def test_criterion_9_determinism_and_roundtrip(weld_sweep):
    first_text, _, _ = weld_sweep
    second_text, _ = _run_theorem("weld_half")
    # the oracle: check_graph on every labeled graph, one at a time
    graphs = chain.from_iterable(map(enumerate_graphs, SWEEP_SPECS))
    per_graph = "".join(report_lines(iter_reports(graphs, TheoremSummary("weld_half"))))
    deterministic = first_text == second_text == per_graph

    rng = random.Random(42)
    bad = 0
    for _ in range(10000):
        g = random_graph_capped(rng, rng.randrange(0, 21))
        if parse_graph6(write_graph6(g)) != g:
            bad += 1
    _finish(
        9,
        "census, its rerun and the per-graph run byte-identical; 10000 graph6 round-trips",
        deterministic and bad == 0,
        f"stream_bytes={len(first_text)}, roundtrip_failures={bad}",
    )
