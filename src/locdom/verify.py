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
`census_lines`, which `locdom verify` runs, solves each class once and, if
the verdict holds or skips, keeps it with the class's line after graph6.
A later member then costs one table read for its class, two for its graph6
(in `codec.graph6_halves`), one `to_bytes`, two reads and a count in
per-class lists, and one string concatenation; no Graph or BoundReport is
built for it.  This is sound only because every registered theorem's verdict
(n, m, skip reason, value, bound and holds) is an isomorphism invariant; a
precondition added here must be one too.  A failing verdict is never kept:
a violation stands on its own check, so a counterexample class costs one
solve per member.

Every registered theorem has one shape, so `_THEOREMS` declares each as
one row of data: under ordered preconditions (each a skip reason and the
test that fails a graph), a value -- a solve_min parameter of G, or the
number of check_observation1 violations -- is at most a fixed share of
the parameter's ground (m for an edge parameter, else n), or equal to it.
The line-graph corollaries read eld and eltd of G, which are ld and ltd
of L(G) (see `linegraph`), so no L(G) is built.  `check_graph` evaluates
a row on one graph and gives one record: a skip naming the first failed
precondition, or one value/bound/holds check.  Violations are data, not
exceptions.  A violation of any registered bound would falsify published
mathematics, so the harness treats them as reportable events and the
callers decide how loudly to fail.
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
from .solvers import Parameter, solve_min
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
    and `_replace` both go through `_make`, which raises a `LocdomError` on a
    shard that is not a pair, or an order or shard entry that is not an
    integer in range, and stores the shard as a tuple, so a spec hashes."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> EnumerationSpec:
        return cls._make(super().__new__(cls, *args, **kwargs))

    @classmethod
    def _make(cls, fields: Iterable) -> EnumerationSpec:
        spec = super()._make(fields)
        try:
            index, total = spec.shard
        except (TypeError, ValueError):
            raise LocdomError(f"shard must be a pair (index, total), got {spec.shard!r}") from None
        if not all(isinstance(k, int) for k in (spec.n, index, total)):
            raise LocdomError(f"order and shard must be integers, got {spec.n}, {spec.shard}")
        if not 0 <= spec.n <= MAX_ENUM_VERTICES:
            raise SizeLimitError(
                f"exhaustive enumeration supports 0 <= n <= {MAX_ENUM_VERTICES}, got {spec.n}"
            )
        if total < 1 or not 0 <= index < total:
            raise LocdomError(f"bad shard {spec.shard}: need 0 <= index < total")
        return super()._make((*spec[:3], (index, total)))


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


# A precondition is (skip reason, test that fails a graph).  Precondition
# tests and check_graph look solve_min and the scans up in this module's
# globals on every call, so wrappers installed from outside see them.
_ISOLATED_EDGE = ("isolated_edge", lambda g: 0 in g.eadj)
_EDGE_TWINS = ("not_edge_twin_free", lambda g: not is_edge_twin_free(g))
_DISCONNECTED = ("disconnected", lambda g: not is_connected(g))
# Also the line-graph corollaries' preconditions: L(g) is twin-free without
# isolated vertices exactly when g is edge-twin-free without isolated edges.
_EDGE_TWIN_FREE = (_ISOLATED_EDGE, _EDGE_TWINS)


class _Theorem(NamedTuple):
    """value <= share * ground, or == when exact, on every graph that passes
    the preconditions in order: value is solve_min(g, parameter), reported
    as name, or the number of check_observation1 violations when parameter
    is None; ground is m for an edge parameter, otherwise n."""

    preconditions: tuple[tuple[str, Callable[[Graph], bool]], ...]
    name: str
    parameter: Parameter | None
    share: Fraction
    exact: bool = False


_HALF, _TWO_THIRDS = Fraction(1, 2), Fraction(2, 3)

_THEOREMS = {
    "weld_half": _Theorem((_ISOLATED_EDGE,), "weld", Parameter("weld"), _HALF),
    "eld_half": _Theorem(_EDGE_TWIN_FREE, "eld", Parameter("eld"), _HALF),
    "eltd_two_thirds": _Theorem(_EDGE_TWIN_FREE, "eltd", Parameter("eltd"), _TWO_THIRDS),
    # ld and ltd of L(g), whose m vertices are g's edges
    "cor_ld_line": _Theorem(_EDGE_TWIN_FREE, "ld", Parameter("eld"), _HALF),
    "cor_ltd_line": _Theorem(_EDGE_TWIN_FREE, "ltd", Parameter("eltd"), _TWO_THIRDS),
    "obs1": _Theorem((_DISCONNECTED,), "obs1", None, Fraction(0)),
    # ore_half reports dom = 0 <= 0 on the empty graph; cockayne_two_thirds
    # needs order at least 3 and skips K1 and K2 under the reason naming them.
    "ore_half": _Theorem(
        (("isolated_vertex", lambda g: 0 in g.vadj),), "dom", Parameter("dom"), _HALF
    ),
    "cockayne_two_thirds": _Theorem(
        (_DISCONNECTED, ("isolated_vertex", lambda g: g.n <= 1), _ISOLATED_EDGE),
        "tdom", Parameter("tdom"), _TWO_THIRDS,
    ),
    "size6_eld3": _Theorem(
        (("size_mismatch", lambda g: g.m != 6), _DISCONNECTED, *_EDGE_TWIN_FREE),
        "eld", Parameter("eld"), _HALF, exact=True,
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
        param = row.parameter
        value = len(check_observation1(g)) if param is None else solve_min(g, param).value
        bound = row.share * (g.m if param is not None and param.on_edges else g.n)
        holds = value == bound if row.exact else value <= bound
        check = BoundCheck(row.name, value, bound, holds)
    return BoundReport(write_graph6(g), g.n, g.m, check, skip)


class TheoremSummary:
    """Running counters for one verification pass, written only by `add`."""

    def __init__(self, theorem: str) -> None:
        self.theorem = theorem
        self.checked = 0
        self.skipped: Counter = Counter()
        self.violations: list[str] = []

    def add(self, report: BoundReport, members: int = 1) -> None:
        """Count report's verdict for `members` graphs that share it; a
        violation lists report.graph6 once, so add failing reports singly."""
        if report.skipped_reason is not None:
            self.skipped[report.skipped_reason] += members
            return
        self.checked += members
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


def iter_reports(graphs: Iterable[Graph], summary: TheoremSummary) -> Iterator[BoundReport]:
    """Streaming map of check_graph for summary.theorem, feeding summary."""
    for g in graphs:
        report = check_graph(g, summary.theorem)
        summary.add(report)
        yield report


def census_lines(specs: Iterable[EnumerationSpec], summary: TheoremSummary) -> Iterator[str]:
    """report_lines(iter_reports(graphs, t)) over the graphs of the specs in
    turn, with t = TheoremSummary(summary.theorem): the joins of the two
    streams are equal, and summary counts what t counts.  Each class's first
    member is checked; see the module docstring for which verdicts are kept
    and what a later member costs.  A kept verdict reaches summary once per
    spec, for all of its members, and a failing member's as it streams.
    """
    for spec in specs:
        n = spec.n
        classes, count, masks = _dealt(spec)
        size, split, low, high = graph6_halves(n)
        low_bits = (1 << split) - 1
        reports: dict[int, BoundReport] = {}
        tails: list[str | None] = [None] * count
        members = [0] * count
        for mask in masks:
            c = classes[mask]
            tail = tails[c]
            if tail is None:
                report = check_graph(Graph._from_mask(n, mask), summary.theorem)
                tail = '"' + report_tail(report)
                if report.check is None or report.check.holds:
                    reports[c], tails[c] = report, tail
                else:
                    summary.add(report)
            members[c] += 1
            g6 = (low[mask & low_bits] + high[mask >> split]).to_bytes(size, "big").decode("ascii")
            # graph6 bytes lie in 63..126, where JSON escapes only the backslash
            yield '{"graph6": "' + g6.replace("\\", "\\\\") + tail
        for c, report in reports.items():
            summary.add(report, members[c])
