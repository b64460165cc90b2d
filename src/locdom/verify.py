"""Exhaustive small-graph enumeration and the bound-checking harness.

Labeled graphs on n vertices are the masks 0..2^C(n,2)-1 over the
lexicographic list of vertex pairs, so a census is a plain integer loop.
One classifying scan serves every stream: it keeps a class-index table
with one 16-bit slot per labeled mask, and the first time a mask of an
unseen isomorphism class comes up, it tests that mask's connectivity and
writes the new class index into all n! relabelings of it (orbit marking,
Read, "Every one a winner", 1978).  Every later mask of the class is
classified by one table read, with no BFS and no Graph.  The relabelings
are walked by adjacent label swaps in Steinhaus-Johnson-Trotter order,
each swap two delta swaps on the mask.  The table is 64 KB at n = 6 and
4 MB at n = 7; on CPython 3.11 the scan takes about 0.07 s at n = 6 and
4 s at n = 7.  At n = 8 the table would be 512 MB, and the labeled loop
over 2^28 masks is impractical anyway; that wants canonical augmentation.

Sharding deals the masks that pass the connectivity filter round-robin for
embarrassingly parallel runs; each shard still scans every mask.
Isomorphism dedup (off by default) keeps the first mask of each class
within the shard.  `enumerated_reports`, which `locdom verify` runs, solves
each class once and reuses the verdict for every later member, writing
their graph6 straight from the mask.  That is sound only because the
verdict of every registered theorem (n, m, skip reason, value, bound and
holds) is an isomorphism invariant; a theorem added here must keep it so.

Each named check takes one graph to a report: either a skip record naming
the failed precondition, or one value/bound/holds record per asserted
inequality.  Violations are data, not exceptions.  A violation of any of
the registered bounds would falsify published mathematics, so the harness
treats them as reportable events and the callers decide how loudly to
fail.

The open-edge-twin census inverts the quantifier instead of scanning every
graph: a pair of disjoint edge slots of K_n is an open twin pair exactly
in the supersets of the pair avoiding the symmetric difference of the
slots' K_n neighbourhoods, so candidates are enumerated directly from each
pair's constraint set.  That turns the n = 7 census from millions of
graphs into about 13 thousand candidate masks.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .codec import mask_graph6, write_graph6
from .core import Graph, bits, is_connected, masks_connected
from .errors import LocdomError, SizeLimitError
from .linegraph import line_graph
from .solvers import Parameter, solve_min
from .twins import check_observation1, is_edge_twin_free

MAX_ENUM_VERTICES = 8

THEOREMS = (
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

SKIP_REASONS = (
    "isolated_edge",
    "isolated_vertex",
    "not_edge_twin_free",
    "disconnected",
    "size_mismatch",
)


@dataclass(frozen=True)
class EnumerationSpec:
    """What to enumerate: order, connectivity filter, dedup, shard."""

    n: int
    connected_only: bool = True
    dedup_isomorphic: bool = False
    shard: tuple[int, int] = (0, 1)

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_ENUM_VERTICES:
            raise SizeLimitError(
                f"exhaustive enumeration supports 0 <= n <= {MAX_ENUM_VERTICES}, got {self.n}"
            )
        index, total = self.shard
        if total < 1 or not 0 <= index < total:
            raise LocdomError(f"bad shard {self.shard}: need 0 <= index < total")


@lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@lru_cache(maxsize=None)
def _pair_index(n: int) -> dict[tuple[int, int], int]:
    return {p: i for i, p in enumerate(_pair_table(n))}


@lru_cache(maxsize=None)
def _plain_changes(n: int) -> tuple[int, ...]:
    """Steinhaus-Johnson-Trotter: swapping labels i, i + 1 for each i in turn
    walks through all n! relabelings, each once."""
    if n <= 1:
        return ()
    sub = _plain_changes(n - 1)
    out: list[int] = []
    for k in range(len(sub) + 1):
        # label n - 1 sweeps down and back up between the moves of the rest
        out.extend(range(n - 2, -1, -1) if k % 2 == 0 else range(n - 1))
        if k < len(sub):
            out.append(sub[k] + (k % 2 == 0))
    return tuple(out)


@lru_cache(maxsize=None)
def _label_swaps(n: int) -> tuple[tuple[int, int, int], ...]:
    """Per i, delta-swap masks that exchange labels i and i + 1 in an edge mask.

    Slot (k, i) sits one before (k, i + 1) for k < i, and (i, k) sits
    n - i - 2 before (i + 1, k) for k > i + 1; (i, i + 1) stays put.
    """
    index = _pair_index(n)
    return tuple(
        (
            sum(1 << index[(k, i)] for k in range(i)),
            sum(1 << index[(i, k)] for k in range(i + 2, n)),
            n - i - 2,
        )
        for i in range(n - 1)
    )


def _relabelings(mask: int, n: int) -> Iterator[int]:
    """Yield the edge mask remapped by each of the n! permutations of range(n)."""
    swaps = _label_swaps(n)
    yield mask
    for i in _plain_changes(n):
        low, high, shift = swaps[i]
        t = ((mask >> 1) ^ mask) & low
        mask ^= t | t << 1
        t = ((mask >> shift) ^ mask) & high
        mask ^= t | t << shift
        yield mask


def _classified(spec: EnumerationSpec) -> Iterator[tuple[int, int]]:
    """Yield (class index, mask) for each mask that spec enumerates, in scan order.

    Class indices count from 1 in order of first appearance.  Shard (i, t)
    keeps the masks at positions i, i + t, i + 2t, ... of the stream that
    passes the connectivity filter; with dedup only the first of each
    class within the shard is kept.
    """
    n = spec.n
    size = 1 << len(_pair_table(n))
    classes = array("H", bytes(2 * size))
    passes = [False]  # per class index: does it pass the connectivity filter
    shard_index, shard_total = spec.shard
    yielded: set[int] | None = set() if spec.dedup_isomorphic else None
    position = -1
    for mask in range(size):
        c = classes[mask]
        if not c:
            c = len(passes)
            passes.append(not spec.connected_only or masks_connected(_mask_graph(n, mask).vadj))
            for r in _relabelings(mask, n):
                classes[r] = c
        if not passes[c]:
            continue
        position += 1
        if position % shard_total != shard_index:
            continue
        if yielded is not None:
            if c in yielded:
                continue
            yielded.add(c)
        yield c, mask


def _mask_graph(n: int, mask: int) -> Graph:
    pairs = _pair_table(n)
    return Graph._from_canonical(n, tuple(pairs[i] for i in bits(mask)))


def enumerate_graphs(spec: EnumerationSpec) -> Iterator[Graph]:
    """Yield every labeled graph on exactly spec.n vertices, filtered per spec.

    Shard (i, t) keeps the masks at positions i, i + t, i + 2t, ... of the
    stream that passes the connectivity filter, so the t shards partition
    the unsharded stream and their sizes differ by at most one; each shard
    still scans every mask.  With dedup each isomorphism class is
    represented by its first mask in scan order (within the shard).
    """
    for _, mask in _classified(spec):
        yield _mask_graph(spec.n, mask)


def canonical_form(g: Graph) -> int:
    """Minimum edge mask over all vertex relabelings; comparable within one n."""
    if g.n > MAX_ENUM_VERTICES:
        raise SizeLimitError(
            f"canonical forms are computed by permutation search, capped at n <= {MAX_ENUM_VERTICES}"
        )
    index = _pair_index(g.n)
    return min(_relabelings(sum(1 << index[e] for e in g.edges), g.n))


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(x.bit_count() for x in a.vadj) != sorted(x.bit_count() for x in b.vadj):
        return False
    return canonical_form(a) == canonical_form(b)


def graphs_with_open_edge_twins(n: int, connected_only: bool = True) -> list[Graph]:
    """Every labeled graph on n vertices containing an open edge-twin pair.

    Built by inverting the pair quantifier (see module docstring) rather
    than scanning all 2^C(n,2) graphs, then deduplicated by mask and
    filtered for connectivity.
    """
    if not 0 <= n <= MAX_ENUM_VERTICES:
        raise SizeLimitError(
            f"open-twin inversion supports 0 <= n <= {MAX_ENUM_VERTICES}, got {n}"
        )
    pairs = _pair_table(n)
    count = len(pairs)
    full = (1 << count) - 1
    adj_slots = []
    for u, v in pairs:
        mask = 0
        for j, (x, y) in enumerate(pairs):
            if (x, y) != (u, v) and len({u, v} & {x, y}) == 1:
                mask |= 1 << j
        adj_slots.append(mask)
    hits: set[int] = set()
    for a in range(count):
        for b in range(a + 1, count):
            diff = adj_slots[a] ^ adj_slots[b]
            base = (1 << a) | (1 << b)
            if diff & base:
                continue  # slots share an endpoint: never open twins
            free = full & ~(diff | base)
            sub = free
            while True:
                hits.add(base | sub)
                if sub == 0:
                    break
                sub = (sub - 1) & free
    out = []
    for mask in sorted(hits):
        g = Graph._from_canonical(n, tuple(pairs[i] for i in bits(mask)))
        if connected_only and not is_connected(g):
            continue
        out.append(g)
    return out


def open_edge_twin_census(max_n: int) -> list[Graph]:
    """Connected graphs with open edge-twins, one representative per class.

    Representatives are ordered by (order, canonical form); the expected
    outcome for any max_n >= 4 is the five four-vertex shapes and nothing
    else.
    """
    reps: dict[tuple[int, int], Graph] = {}
    for n in range(1, max_n + 1):
        for g in graphs_with_open_edge_twins(n, connected_only=True):
            key = (n, canonical_form(g))
            if key not in reps:
                reps[key] = g
    return [reps[key] for key in sorted(reps)]


@dataclass(frozen=True)
class BoundCheck:
    parameter: str
    value: int
    bound: Fraction
    holds: bool


@dataclass(frozen=True)
class BoundReport:
    graph6: str
    n: int
    m: int
    checks: tuple[BoundCheck, ...]
    skipped_reason: str | None


def _has_isolated_edge(g: Graph) -> bool:
    return any(adj == 0 for adj in g.eadj)


def _has_isolated_vertex(g: Graph) -> bool:
    return any(adj == 0 for adj in g.vadj)


def _weld_half(g: Graph):
    if _has_isolated_edge(g):
        return [], "isolated_edge"
    value = solve_min(g, Parameter.WEAK_EDGE_LOC_DOM).value
    return [BoundCheck("weld", value, Fraction(g.m, 2), 2 * value <= g.m)], None


def _eld_half(g: Graph):
    if _has_isolated_edge(g):
        return [], "isolated_edge"
    if not is_edge_twin_free(g):
        return [], "not_edge_twin_free"
    value = solve_min(g, Parameter.EDGE_LOC_DOM).value
    return [BoundCheck("eld", value, Fraction(g.m, 2), 2 * value <= g.m)], None


def _eltd_two_thirds(g: Graph):
    if _has_isolated_edge(g):
        return [], "isolated_edge"
    if not is_edge_twin_free(g):
        return [], "not_edge_twin_free"
    value = solve_min(g, Parameter.EDGE_LOC_TOTAL_DOM).value
    return [BoundCheck("eltd", value, Fraction(2 * g.m, 3), 3 * value <= 2 * g.m)], None


def _cor_ld_line(g: Graph):
    # L(g) is twin-free without isolated vertices exactly when g is
    # edge-twin-free without isolated edges, so the preconditions are
    # evaluated on the base graph.
    if _has_isolated_edge(g):
        return [], "isolated_edge"
    if not is_edge_twin_free(g):
        return [], "not_edge_twin_free"
    line = line_graph(g).line
    value = solve_min(line, Parameter.LOC_DOM).value
    return [BoundCheck("ld", value, Fraction(line.n, 2), 2 * value <= line.n)], None


def _cor_ltd_line(g: Graph):
    if _has_isolated_edge(g):
        return [], "isolated_edge"
    if not is_edge_twin_free(g):
        return [], "not_edge_twin_free"
    line = line_graph(g).line
    value = solve_min(line, Parameter.LOC_TOTAL_DOM).value
    return [BoundCheck("ltd", value, Fraction(2 * line.n, 3), 3 * value <= 2 * line.n)], None


def _obs1(g: Graph):
    if not is_connected(g):
        return [], "disconnected"
    violations = check_observation1(g)
    return [BoundCheck("obs1", len(violations), Fraction(0), not violations)], None


def _ore_half(g: Graph):
    if _has_isolated_vertex(g):
        return [], "isolated_vertex"
    value = solve_min(g, Parameter.DOM).value
    return [BoundCheck("dom", value, Fraction(g.n, 2), 2 * value <= g.n)], None


def _cockayne_two_thirds(g: Graph):
    # Stated for connected graphs of order at least 3; the two tiny
    # connected graphs are skipped under the reason that names their shape.
    if not is_connected(g):
        return [], "disconnected"
    if g.n <= 1:
        return [], "isolated_vertex"
    if g.n == 2:
        return [], "isolated_edge"
    value = solve_min(g, Parameter.TOTAL_DOM).value
    return [BoundCheck("tdom", value, Fraction(2 * g.n, 3), 3 * value <= 2 * g.n)], None


def _size6_eld3(g: Graph):
    if g.m != 6:
        return [], "size_mismatch"
    if not is_connected(g):
        return [], "disconnected"
    if _has_isolated_edge(g):
        return [], "isolated_edge"
    if not is_edge_twin_free(g):
        return [], "not_edge_twin_free"
    value = solve_min(g, Parameter.EDGE_LOC_DOM).value
    return [BoundCheck("eld", value, Fraction(3), value == 3)], None


_THEOREMS = {
    "weld_half": _weld_half,
    "eld_half": _eld_half,
    "eltd_two_thirds": _eltd_two_thirds,
    "cor_ld_line": _cor_ld_line,
    "cor_ltd_line": _cor_ltd_line,
    "obs1": _obs1,
    "ore_half": _ore_half,
    "cockayne_two_thirds": _cockayne_two_thirds,
    "size6_eld3": _size6_eld3,
}


def check_graph(g: Graph, theorem: str) -> BoundReport:
    """Evaluate one named bound on one graph; skips are reported, not raised."""
    try:
        fn = _THEOREMS[theorem]
    except KeyError:
        raise LocdomError(
            f"unknown theorem {theorem!r}; expected one of {list(THEOREMS)}"
        ) from None
    checks, skip = fn(g)
    return BoundReport(
        graph6=write_graph6(g), n=g.n, m=g.m, checks=tuple(checks), skipped_reason=skip
    )


@dataclass
class TheoremSummary:
    """Running counters for one verification pass."""

    theorem: str
    checked: int = 0
    skipped: Counter = field(default_factory=Counter)
    violations: list[str] = field(default_factory=list)

    def add(self, report: BoundReport) -> None:
        if report.skipped_reason is not None:
            self.skipped[report.skipped_reason] += 1
            return
        self.checked += 1
        if any(not chk.holds for chk in report.checks):
            self.violations.append(report.graph6)

    def to_json(self) -> str:
        return json.dumps(
            {
                "theorem": self.theorem,
                "checked": self.checked,
                "skipped": {k: self.skipped[k] for k in sorted(self.skipped)},
                "violations": self.violations,
            }
        )


def iter_reports(
    graphs: Iterable[Graph], theorem: str, summary: "TheoremSummary | None" = None
) -> Iterator[BoundReport]:
    """Streaming map of check_graph, optionally feeding a running summary."""
    for g in graphs:
        report = check_graph(g, theorem)
        if summary is not None:
            summary.add(report)
        yield report


def enumerated_reports(
    specs: Iterable[EnumerationSpec], theorem: str, summary: "TheoremSummary | None" = None
) -> Iterator[BoundReport]:
    """The reports of iter_reports over enumerate_graphs(spec) for each spec in turn,
    with check_graph run once per isomorphism class.

    Later members of a class reuse the first member's checks and skip
    reason, and their graph6 is written straight from the mask, so no
    Graph is built for them.
    """
    for spec in specs:
        verdicts: dict[int, tuple[tuple[BoundCheck, ...], str | None]] = {}
        for c, mask in _classified(spec):
            verdict = verdicts.get(c)
            if verdict is None:
                report = check_graph(_mask_graph(spec.n, mask), theorem)
                verdicts[c] = report.checks, report.skipped_reason
            else:
                report = BoundReport(
                    mask_graph6(spec.n, mask), spec.n, mask.bit_count(), *verdict
                )
            if summary is not None:
                summary.add(report)
            yield report
