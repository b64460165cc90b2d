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
from typing import Callable, Iterable, Iterator

from .codec import mask_graph6, write_graph6
from .core import Graph, bits, is_connected, masks_connected
from .errors import LocdomError, SizeLimitError
from .linegraph import line_graph
from .solvers import solve_min
from .twins import check_observation1, is_edge_twin_free

MAX_ENUM_VERTICES = 8

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
    """Yield (class index, mask) for each mask that spec enumerates, in scan
    order (sharding and dedup as in enumerate_graphs).  Class indices count
    from 1 in order of first appearance."""
    n = spec.n
    size = 1 << len(_pair_table(n))
    classes = array("H", [0]) * size
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


def _open_twin_masks(n: int) -> set[int]:
    """Edge masks of every labeled graph on n vertices, connected or not, that
    has an open edge-twin pair, by inverting the pair quantifier (see module
    docstring) rather than scanning all 2^C(n,2) masks."""
    count = len(_pair_table(n))
    full = (1 << count) - 1
    adj_slots = _mask_graph(n, full).eadj  # slot i is edge i of K_n
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
    return hits


def open_edge_twin_census(max_n: int) -> list[Graph]:
    """Connected graphs with open edge-twins, one representative per class.

    Representatives are ordered by (order, canonical form), each the least
    mask of its class; the expected outcome for any max_n >= 4 is the five
    four-vertex shapes and nothing else.
    """
    if max_n > MAX_ENUM_VERTICES:
        raise SizeLimitError(
            f"open-twin inversion supports 0 <= n <= {MAX_ENUM_VERTICES}, got {max_n}"
        )
    reps: dict[tuple[int, int], Graph] = {}
    for n in range(1, max_n + 1):
        for mask in sorted(_open_twin_masks(n)):
            g = _mask_graph(n, mask)
            if is_connected(g):
                reps.setdefault((n, canonical_form(g)), g)
    return [reps[key] for key in sorted(reps)]


@dataclass(frozen=True)
class BoundCheck:
    parameter: str
    value: int
    bound: Fraction
    holds: bool


@dataclass(frozen=True)
class BoundReport:
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


def enumerated_reports(
    specs: Iterable[EnumerationSpec], theorem: str, summary: "TheoremSummary | None" = None
) -> Iterator[BoundReport]:
    """The reports of iter_reports over enumerate_graphs(spec) for each spec in turn,
    with check_graph run once per isomorphism class.

    Later members of a class reuse the first member's verdict, its check or
    its skip reason, and their graph6 is written straight from the mask, so
    no Graph is built for them.
    """
    for spec in specs:
        verdicts: dict[int, tuple[BoundCheck | None, str | None]] = {}
        for c, mask in _classified(spec):
            verdict = verdicts.get(c)
            if verdict is None:
                report = check_graph(_mask_graph(spec.n, mask), theorem)
                verdicts[c] = report.check, report.skipped_reason
            else:
                report = BoundReport(
                    mask_graph6(spec.n, mask), spec.n, mask.bit_count(), *verdict
                )
            if summary is not None:
                summary.add(report)
            yield report
