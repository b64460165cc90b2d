"""Exhaustive small-graph enumeration and the bound-checking harness.

Labeled graphs on n vertices are the masks 0..2^C(n,2)-1 over
`core.pair_table(n)`, so a census is a plain integer loop.
One classifying scan serves every stream: it keeps a class-index table
with one 16-bit slot per labeled mask.  The first mask of an unseen
isomorphism class gets its connectivity and its complement's tested, and
writes the new class index into all n! relabelings of itself (orbit
marking, Read, "Every one a winner", 1978).  The complement class is
paired, not walked: its index is the class's index ^ 1, read off the
complement's slot.  Every later mask takes one or two table reads, with no
BFS and no Graph.  The relabelings are walked by adjacent label swaps in
Steinhaus-Johnson-Trotter order, each swap two lookups in per-n tables
over the low and high halves of the mask.  The table is 64 KB at n = 6 and
4 MB at n = 7; on CPython 3.11 the scan takes about 0.02 s at n = 6 and
1.1-1.8 s at n = 7.  At n = 8 the table would be 512 MB, and the labeled
loop over 2^28 masks is impractical anyway; that wants canonical augmentation.

Sharding deals the masks that pass the connectivity filter round-robin for
embarrassingly parallel runs; each shard still scans every mask.
Isomorphism dedup (off by default) keeps the first mask of each class
within the shard.  `census_lines`, which `locdom verify` runs, solves each
class once and renders the class's line after graph6 then.  What a later
member costs is one table read in the scan, its graph6 from the mask (a few
table reads and one `to_bytes`), three lookups and a count in per-class
tables, and one string concatenation; no Graph or BoundReport is built for
it.  Reusing verdicts is sound only because the verdict of every registered
theorem (n, m, skip reason, value, bound and holds) is an isomorphism
invariant; a theorem added here must keep it so.

Every registered theorem has one shape, so `_THEOREMS` declares each as
one row: under ordered preconditions (each a skip reason and the test that
fails a graph), a value -- solve_min on G or on L(G), or the number of
check_observation1 violations -- is at most a fixed share of n or of m, or
equal to it.  `check_graph` evaluates a row on one graph and gives one
record: a skip naming the first failed precondition, or one
value/bound/holds check.  Violations are data, not exceptions.  A violation
of any registered bound would falsify published mathematics, so the
harness treats them as reportable events and the callers decide how
loudly to fail.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

from .codec import mask_graph6, report_tail, write_graph6
from .core import Graph, is_connected, masks_connected, pair_table
from .errors import LocdomError, SizeLimitError
from .linegraph import line_graph
from .solvers import solve_min
from .twins import check_observation1, is_edge_twin_free

MAX_ENUM_VERTICES = 8


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
def _relabel_steps(n: int) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
    """(split, steps) walking an edge mask through its n! relabelings in
    _plain_changes order.  Each step swaps two labels through two lookup
    tables, one over the mask's low split bits and one over the rest:
    mask -> low[mask & (1 << split) - 1] | high[mask >> split]."""
    pairs = pair_table(n)
    split = (len(pairs) + 1) // 2
    tables = []
    for i in range(n - 1):
        swap = {i: i + 1, i + 1: i}
        halves = ([0], [0])
        for k, (u, v) in enumerate(pairs):  # slot k doubles its half's table
            bit = 1 << pairs.index(tuple(sorted((swap.get(u, u), swap.get(v, v)))))
            table = halves[k >= split]
            table += [t | bit for t in table]
        tables.append(tuple(map(tuple, halves)))
    return split, tuple(tables[i] for i in _plain_changes(n))


def _relabelings(mask: int, n: int) -> list[int]:
    """The edge mask remapped by each of the n! permutations of range(n)."""
    split, steps = _relabel_steps(n)
    low_bits = (1 << split) - 1
    out = [mask]
    append = out.append
    for low, high in steps:
        mask = low[mask & low_bits] | high[mask >> split]
        append(mask)
    return out


def _classified(spec: EnumerationSpec) -> Iterator[tuple[int, int]]:
    """Yield (class index, mask) for each mask that spec enumerates, in scan
    order (sharding and dedup as in enumerate_graphs).  A new class gets an
    even index c from 2 up and its complement class c ^ 1 (unused if it is
    self-complementary); indices are keys, neither dense nor in order of
    first appearance.  The largest, 2 * 12,346 + 1 at n = 8, fits 16 bits."""
    n = spec.n
    size = 1 << len(pair_table(n))
    full = size - 1
    classes = array("H", [0]) * size
    passes = [False, False]  # per class index: does it pass the connectivity filter
    shard_index, shard_total = spec.shard
    yielded: set[int] | None = set() if spec.dedup_isomorphic else None
    position = -1
    for mask in range(size):
        c = classes[mask] or classes[full ^ mask] ^ 1
        if c == 1:
            c = len(passes)
            passes += (
                not spec.connected_only or masks_connected(Graph._from_mask(n, m).vadj)
                for m in (mask, full ^ mask)
            )
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


def enumerate_graphs(spec: EnumerationSpec) -> Iterator[Graph]:
    """Yield every labeled graph on exactly spec.n vertices, filtered per spec.

    Shard (i, t) keeps the masks at positions i, i + t, i + 2t, ... of the
    stream that passes the connectivity filter, so the t shards partition
    the unsharded stream and their sizes differ by at most one; each shard
    still scans every mask.  With dedup each isomorphism class is
    represented by its first mask in scan order (within the shard).
    """
    for _, mask in _classified(spec):
        yield Graph._from_mask(spec.n, mask)


def canonical_form(g: Graph) -> int:
    """Minimum edge mask over all vertex relabelings; comparable within one n."""
    if g.n > MAX_ENUM_VERTICES:
        raise SizeLimitError(
            f"canonical forms are computed by permutation search, capped at n <= {MAX_ENUM_VERTICES}"
        )
    pairs = pair_table(g.n)
    return min(_relabelings(sum(1 << pairs.index(e) for e in g.edges), g.n))


@dataclass(frozen=True)
class BoundCheck:
    parameter: str
    value: int
    bound: Fraction
    holds: bool


class BoundReport(NamedTuple):
    """One graph's verdict: a check, or the reason the theorem skipped it."""

    graph6: str
    n: int
    m: int
    check: BoundCheck | None
    skipped_reason: str | None

    @property
    def checks(self) -> tuple[BoundCheck, ...]:
        """The check as a tuple of zero or one; `perfbench/workloads.py` reads it."""
        return () if self.check is None else (self.check,)


# A precondition is (skip reason, test that fails the graph).  Tests and
# values look solve_min, line_graph and the scans up in this module's
# globals on every call, so wrappers installed from outside see them.
_ISOLATED_EDGE = ("isolated_edge", lambda g: any(adj == 0 for adj in g.eadj))
_EDGE_TWINS = ("not_edge_twin_free", lambda g: not is_edge_twin_free(g))
_DISCONNECTED = ("disconnected", lambda g: not is_connected(g))
# Also the line-graph corollaries' preconditions: L(g) is twin-free without
# isolated vertices exactly when g is edge-twin-free without isolated edges.
_EDGE_TWIN_FREE = (_ISOLATED_EDGE, _EDGE_TWINS)


def _solve(g: Graph, parameter: str) -> int:
    return solve_min(g, parameter).value


def _solve_line(g: Graph, parameter: str) -> int:
    return solve_min(line_graph(g).line, parameter).value


@dataclass(frozen=True)
class _Theorem:
    """value(g, parameter) <= share * (m if of_edges else n), or == when exact,
    on every graph that passes the preconditions in order."""

    preconditions: tuple[tuple[str, Callable[[Graph], bool]], ...]
    parameter: str
    value: Callable[[Graph, str], int]
    share: Fraction
    of_edges: bool
    exact: bool = False


_HALF, _TWO_THIRDS = Fraction(1, 2), Fraction(2, 3)

_THEOREMS = {
    "weld_half": _Theorem((_ISOLATED_EDGE,), "weld", _solve, _HALF, True),
    "eld_half": _Theorem(_EDGE_TWIN_FREE, "eld", _solve, _HALF, True),
    "eltd_two_thirds": _Theorem(_EDGE_TWIN_FREE, "eltd", _solve, _TWO_THIRDS, True),
    # L(g) has m vertices
    "cor_ld_line": _Theorem(_EDGE_TWIN_FREE, "ld", _solve_line, _HALF, True),
    "cor_ltd_line": _Theorem(_EDGE_TWIN_FREE, "ltd", _solve_line, _TWO_THIRDS, True),
    "obs1": _Theorem(
        (_DISCONNECTED,), "obs1", lambda g, _: len(check_observation1(g)), Fraction(0), False
    ),
    # ore_half reports dom = 0 <= 0 on the empty graph; cockayne_two_thirds
    # needs order at least 3 and skips K1 and K2 under the reason naming them.
    "ore_half": _Theorem(
        (("isolated_vertex", lambda g: any(adj == 0 for adj in g.vadj)),),
        "dom", _solve, _HALF, False,
    ),
    "cockayne_two_thirds": _Theorem(
        (_DISCONNECTED, ("isolated_vertex", lambda g: g.n <= 1), _ISOLATED_EDGE),
        "tdom", _solve, _TWO_THIRDS, False,
    ),
    "size6_eld3": _Theorem(
        (("size_mismatch", lambda g: g.m != 6), _DISCONNECTED, *_EDGE_TWIN_FREE),
        "eld", _solve, _HALF, True, exact=True,
    ),
}

THEOREMS = tuple(_THEOREMS)
# every skip reason a row names, in first-appearance order over THEOREMS
SKIP_REASONS = tuple(
    dict.fromkeys(reason for row in _THEOREMS.values() for reason, _ in row.preconditions)
)


def check_graph(g: Graph, theorem: str) -> BoundReport:
    """Evaluate one named bound on one graph; skips are reported, not raised."""
    try:
        row = _THEOREMS[theorem]
    except KeyError:
        raise LocdomError(
            f"unknown theorem {theorem!r}; expected one of {list(THEOREMS)}"
        ) from None
    skip = next((reason for reason, fails in row.preconditions if fails(g)), None)
    check = None
    if skip is None:
        value = row.value(g, row.parameter)
        bound = row.share * (g.m if row.of_edges else g.n)
        holds = value == bound if row.exact else value <= bound
        check = BoundCheck(row.parameter, value, bound, holds)
    return BoundReport(write_graph6(g), g.n, g.m, check, skip)


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
        if not report.check.holds:
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


def census_lines(
    specs: Iterable[EnumerationSpec], theorem: str, summary: TheoremSummary
) -> Iterator[str]:
    """The lines of report_lines(iter_reports(...)) over enumerate_graphs(spec)
    for each spec in turn, each ending in a newline, with summary fed too.

    check_graph runs on each class's first member, and the class's line after
    graph6 is rendered then; see the module docstring for what a later member
    costs.  Member counts reach summary when each spec ends, and violating
    members' graph6 as they stream.
    """
    for spec in specs:
        n = spec.n
        reports: dict[int, BoundReport] = {}
        tails: dict[int, str] = {}
        members: Counter = Counter()
        failing: set[int] = set()
        for c, mask in _classified(spec):
            tail = tails.get(c)
            if tail is None:
                report = reports[c] = check_graph(Graph._from_mask(n, mask), theorem)
                tail = tails[c] = '"' + report_tail(report) + "\n"
                if report.check is not None and not report.check.holds:
                    failing.add(c)
            members[c] += 1
            g6 = mask_graph6(n, mask)
            if c in failing:
                summary.violations.append(g6)
            # graph6 bytes lie in 63..126, where JSON escapes only the backslash
            yield '{"graph6": "' + g6.replace("\\", "\\\\") + tail
        for c, report in reports.items():
            if report.skipped_reason is None:
                summary.checked += members[c]
            else:
                summary.skipped[report.skipped_reason] += members[c]
