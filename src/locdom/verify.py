"""Exhaustive small-graph enumeration and the bound-checking harness.

Labeled graphs on n vertices are the masks 0..2^C(n,2)-1 over
`core.pair_table(n)`, so a census is a plain integer loop.
One class table per order serves every stream: one 16-bit slot per labeled
mask holds its isomorphism class index.  It is built once per order per
process, before the first mask of that order is dealt, and every later
stream of the order (another theorem, shard or filter) reuses it.  A slot
still 0, found by `array.index` in C, starts a new class: its connectivity
and its complement's are tested, and its index goes into every relabeling
of the mask (orbit marking, Read, "Every one a winner", 1978), the index ^ 1
into the complement's.  `_orbit` meets each relabeling once, as the closure
of the mask under the swap of labels 0 and 1 and the cycle i -> i + 1 mod n,
which generate them all; each map is two lookups in its `core.half_tables`
over the halves of the mask.  `canonical_form` takes the least relabeling.
The table is 64 KB at n = 6 and 4 MB at n = 7; on CPython 3.11 the tables
for n = 1..6 fill in about 0.012 s and those for n = 1..7 in 0.5-0.6 s.
At n = 8 it would be 512 MB, kept until the process ends, and the labeled
loop over 2^28 masks is impractical anyway; that wants canonical augmentation.

`_dealt` decides which masks a spec deals; `enumerate_graphs` and
`census_lines` only render them.  It deals every labeled mask, or under
isomorphism dedup (off by default) each class's least mask, which the fill
records.  `itertools.compress` keeps the masks whose class passes the
connectivity filter and `islice` deals them round-robin to shards, both in
C, so dedup shards partition the classes.  Shards in one process share the
table; each shard process still fills the whole table.
`census_lines`, which `locdom verify` runs, solves each class once and
renders the class's line after graph6 then.  A later member costs one
table read for its class, two for its graph6 (in `codec.graph6_halves`),
one `to_bytes`, three reads and a count in per-class lists, and one string
concatenation; no Graph or BoundReport is built for it.  Reusing verdicts
is sound only because the verdict of every registered theorem (n, m, skip
reason, value, bound and holds) is an isomorphism invariant; a theorem
added here must keep it so.

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
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice
from typing import Callable, Iterable, Iterator, NamedTuple

from .codec import graph6_halves, report_tail, write_graph6
from .core import Graph, half_tables, is_connected, pair_table
from .errors import LocdomError, SizeLimitError
from .linegraph import line_graph
from .solvers import solve_min
from .twins import check_observation1, is_edge_twin_free

MAX_ENUM_VERTICES = 8


class _EnumerationFields(NamedTuple):
    n: int
    connected_only: bool = True
    dedup_isomorphic: bool = False
    shard: tuple[int, int] = (0, 1)


class EnumerationSpec(_EnumerationFields):
    """What to enumerate: order, connectivity filter, dedup (shards then deal
    classes, not masks), shard.  Checked however one is built: the constructor
    and `_replace` both go through `_make`, which raises a `LocdomError` on an
    order or shard entry that is not an integer in range."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> EnumerationSpec:
        return cls._make(super().__new__(cls, *args, **kwargs))

    @classmethod
    def _make(cls, fields: Iterable) -> EnumerationSpec:
        spec = super()._make(fields)
        index, total = spec.shard
        if not all(isinstance(k, int) for k in (spec.n, index, total)):
            raise LocdomError(f"order and shard must be integers, got {spec.n}, {spec.shard}")
        if not 0 <= spec.n <= MAX_ENUM_VERTICES:
            raise SizeLimitError(
                f"exhaustive enumeration supports 0 <= n <= {MAX_ENUM_VERTICES}, got {spec.n}"
            )
        if total < 1 or not 0 <= index < total:
            raise LocdomError(f"bad shard {spec.shard}: need 0 <= index < total")
        return spec


@lru_cache(maxsize=None)
def _generators(n: int) -> tuple[int, list[tuple[list[int], list[int]]]]:
    """(split, [(low, high)]) for the swap of labels 0 and 1 and the cycle
    i -> i + 1 mod n, which together generate every relabeling.  Each maps an
    edge mask through its `core.half_tables` on pair bits:
    mask -> low[mask & (1 << split) - 1] | high[mask >> split]."""
    pairs = pair_table(n)
    index = {pair: k for k, pair in enumerate(pairs)}
    tables = []
    for label in ([1, 0, *range(2, n)], [*range(1, n), 0]):  # n < 2 has no pairs to read them
        images = [1 << index[tuple(sorted((label[u], label[v])))] for u, v in pairs]
        split, low, high = half_tables(images, 0)
        tables.append((low, high))
    return split, tables


def _orbit(mask: int, n: int, marks: array | dict[int, int], c: int) -> list[int]:
    """The edge mask's images under every relabeling, each once: its closure
    under the two `_generators`.  Sets marks[r] = c on each image r as it is
    met, so no image may carry c before the walk."""
    split, ((swap_low, swap_high), (cycle_low, cycle_high)) = _generators(n)
    low_bits = (1 << split) - 1
    marks[mask] = c
    orbit = [mask]
    append = orbit.append
    for r in orbit:  # grows while it is walked
        low, high = r & low_bits, r >> split
        for image in (swap_low[low] | swap_high[high], cycle_low[low] | cycle_high[high]):
            if marks[image] != c:
                marks[image] = c
                append(image)
    return orbit


@lru_cache(maxsize=None)
def _class_table(n: int) -> tuple[array, list[bool], list[int]]:
    """n's class table (a class index per labeled mask), whether each class
    index is connected, and the classes' least masks, sorted.  The first mask
    whose slot is still 0 is its class's least: it gets a new even index c,
    which `_orbit` writes over its relabelings, and c ^ 1 over their
    complements, whose least is full ^ max(orbit), unless the walk marked
    them too (a self-complementary class).  Two indices per complementary
    pair from 2: at n = 8, 6,178 pairs (12,346 classes, 10 self-complementary)
    keep them below 12,358, in 16 bits.  Built once per order per process and
    shared: read all three, never write them.  The flags are a list, not a
    tuple, as `_dealt` maps `list.__getitem__` over the table 1.5x as fast."""
    full = (1 << len(pair_table(n))) - 1
    classes = array("H", [0]) * (full + 2)  # the slot past the last mask ends the search
    connected = [False, False]  # indices 0 and 1 mark no mask
    least = []
    mask = 0
    while (mask := classes.index(0, mask)) <= full:  # a search in C
        c = len(connected)
        connected += (is_connected(Graph._from_mask(n, m)) for m in (mask, full ^ mask))
        orbit = _orbit(mask, n, classes, c)
        least.append(mask)
        if classes[full ^ mask] != c:  # else the class is self-complementary
            least.append(full ^ max(orbit))
            for r in orbit:
                classes[full ^ r] = c + 1
    classes.pop()
    least.sort()
    return classes, connected, least


def _dealt(spec: EnumerationSpec) -> tuple[array, int, Iterator[int]]:
    """spec.n's shared class table (`_class_table`, read only), the number of
    class indices, and the masks spec deals, in increasing order: every
    labeled mask, or under dedup each class's least mask.  Shard (i, t)
    keeps positions i, i + t, i + 2t, ... of those whose class passes the
    connectivity filter, so t shards partition the unsharded stream (under
    dedup, its classes) and differ in size by at most one."""
    classes, connected, least = _class_table(spec.n)
    masks, of = range(len(classes)), classes  # each mask, and its class
    if spec.dedup_isomorphic:
        masks, of = least, map(classes.__getitem__, least)
    if spec.connected_only:
        masks = compress(masks, map(connected.__getitem__, of))
    return classes, len(connected), islice(masks, spec.shard[0], None, spec.shard[1])


def enumerate_graphs(spec: EnumerationSpec) -> Iterator[Graph]:
    """Yield the labeled graph on spec.n vertices of each mask `_dealt` deals."""
    for mask in _dealt(spec)[2]:
        yield Graph._from_mask(spec.n, mask)


def canonical_form(g: Graph) -> int:
    """Minimum edge mask over all vertex relabelings; comparable within one n."""
    if g.n > MAX_ENUM_VERTICES:
        raise SizeLimitError(
            f"canonical forms are computed by an orbit walk, capped at n <= {MAX_ENUM_VERTICES}"
        )
    pairs = pair_table(g.n)
    return min(_orbit(sum(1 << pairs.index(e) for e in g.edges), g.n, defaultdict(int), 1))


class BoundCheck(NamedTuple):
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
_ISOLATED_EDGE = ("isolated_edge", lambda g: 0 in g.eadj)
_EDGE_TWINS = ("not_edge_twin_free", lambda g: not is_edge_twin_free(g))
_DISCONNECTED = ("disconnected", lambda g: not is_connected(g))
# Also the line-graph corollaries' preconditions: L(g) is twin-free without
# isolated vertices exactly when g is edge-twin-free without isolated edges.
_EDGE_TWIN_FREE = (_ISOLATED_EDGE, _EDGE_TWINS)


def _solve(g: Graph, parameter: str) -> int:
    return solve_min(g, parameter).value


def _solve_line(g: Graph, parameter: str) -> int:
    return solve_min(line_graph(g).line, parameter).value


class _Theorem(NamedTuple):
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
        (("isolated_vertex", lambda g: 0 in g.vadj),),
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


class TheoremSummary:
    """Running counters for one verification pass."""

    def __init__(self, theorem: str) -> None:
        self.theorem = theorem
        self.checked = 0
        self.skipped: Counter = Counter()
        self.violations: list[str] = []

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
        classes, count, masks = _dealt(spec)
        size, split, low, high = graph6_halves(n)
        low_bits = (1 << split) - 1
        reports: dict[int, BoundReport] = {}
        tails: list[str | None] = [None] * count
        members, failing = [0] * count, [False] * count
        for mask in masks:
            c = classes[mask]
            tail = tails[c]
            if tail is None:
                report = reports[c] = check_graph(Graph._from_mask(n, mask), theorem)
                tail = tails[c] = '"' + report_tail(report) + "\n"
                failing[c] = report.check is not None and not report.check.holds
            members[c] += 1
            g6 = (low[mask & low_bits] + high[mask >> split]).to_bytes(size, "big").decode("ascii")
            if failing[c]:
                summary.violations.append(g6)
            # graph6 bytes lie in 63..126, where JSON escapes only the backslash
            yield '{"graph6": "' + g6.replace("\\", "\\\\") + tail
        for c, report in reports.items():
            if report.skipped_reason is None:
                summary.checked += members[c]
            else:
                summary.skipped[report.skipped_reason] += members[c]
