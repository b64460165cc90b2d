"""Exhaustive small-graph enumeration and the bound-checking harness.

Labeled graphs on n vertices are the masks 0..2^C(n,2)-1 over the
lexicographic list of vertex pairs, so a census is a plain integer loop
with a bitset connectivity filter.  Sharding deals the filtered masks
round-robin for embarrassingly parallel runs.  Isomorphism dedup (off by
default, the bound checks are label-invariant anyway) is orbit marking
(Read, "Every one a winner", 1978): a bitmap holds one bit per labeled
mask, and when a mask is yielded all n! relabelings of it are marked, so
no other member of its class is ever tested or built.  On CPython 3.11
that takes about 0.2 s at n = 6 and 10 s at n = 7; n = 8 is impractical
this way (a Python loop over 2^28 masks, a 32 MB bitmap) and wants
canonical augmentation instead.

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
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Iterator

from .codec import write_graph6
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


def enumerate_graphs(spec: EnumerationSpec) -> Iterator[Graph]:
    """Yield every labeled graph on exactly spec.n vertices, filtered per spec.

    Shard (i, t) keeps the masks at positions i, i + t, i + 2t, ... of the
    stream that passes the connectivity filter, so the t shards partition
    the unsharded stream and their sizes differ by at most one; each shard
    still runs the filter on every mask.  With dedup each isomorphism class
    is represented by its first mask in scan order (within the shard); the
    rest of its orbit is marked when it is yielded and skipped unbuilt.
    """
    n = spec.n
    pairs = _pair_table(n)
    shard_index, shard_total = spec.shard
    marked = bytearray(((1 << len(pairs)) + 7) >> 3) if spec.dedup_isomorphic else None
    position = -1
    for mask in range(1 << len(pairs)):
        if marked is not None and marked[mask >> 3] >> (mask & 7) & 1:
            position += 1  # orbit-mates of a yielded graph pass the filter too
            continue
        if spec.connected_only:
            vadj = [0] * n
            mm = mask
            while mm:
                lowbit = mm & -mm
                u, v = pairs[lowbit.bit_length() - 1]
                vadj[u] |= 1 << v
                vadj[v] |= 1 << u
                mm ^= lowbit
            if not masks_connected(vadj):
                continue
        if shard_total > 1:
            position += 1
            if position % shard_total != shard_index:
                continue
        if marked is not None:
            for r in _relabelings(mask, n):
                marked[r >> 3] |= 1 << (r & 7)
        yield Graph._from_canonical(n, tuple(pairs[i] for i in bits(mask)))


@lru_cache(maxsize=None)
def _perm_tables(n: int) -> tuple[tuple[int, ...], ...]:
    pairs = _pair_table(n)
    index = _pair_index(n)
    tables = []
    for p in permutations(range(n)):
        tables.append(
            tuple(
                index[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])]
                for u, v in pairs
            )
        )
    return tuple(tables)


def _relabelings(kmask: int, n: int) -> Iterator[int]:
    """Yield the edge mask kmask remapped by each permutation of range(n)."""
    slots = list(bits(kmask))
    for table in _perm_tables(n):
        r = 0
        for i in slots:
            r |= 1 << table[i]
        yield r


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

