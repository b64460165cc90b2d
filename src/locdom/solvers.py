"""Feasibility predicates and exact minimum solvers for seven
location-domination parameters: domination, total domination, their
locating variants on vertices, and the edge analogues including the weak
variant that exempts edge-twin pairs from location.

All seven parameters are one problem: a minimum hitting set over a family
of bitmasks on the ground set (vertices, or edges for the edge variants).
A set D is feasible exactly when it meets every member of the family:

- one covering mask per element i, its closed neighbourhood (its open one
  for the total variants): i is dominated exactly when D meets it;
- for the locating variants, one separation mask per pair a < b,
  `(adj[a] ^ adj[b]) | 1<<a | 1<<b`: D fails to separate a and b exactly
  when both lie outside D and their traces on D agree, that is when D
  misses a, b and every element adjacent to just one of them.  The weak
  variant has no mask for an edge-twin pair.

Meeting a mask survives adding elements, so feasibility is closed under
supersets, and a mask that contains another member is redundant; the
locating families keep only the members that contain no other.

`solve_min` runs iterative deepening over the subset size k; for each k it
enumerates k-subsets in lexicographic order and returns the first one that
meets every member, so the reported witness is the lexicographically least
optimum and repeated runs are byte-identical.  The search state is the set
of members hit so far, and no branch is called only to die on entry:

- the scan over the next element j stops once a member whose highest
  element lies below j is unhit, since neither j nor any later element
  can hit it;
- a branch is entered only when its unhit members number at most its free
  slots times the most members any one element hits, and a size k is
  skipped when the whole family exceeds k times that;
- the last slot takes no call: its element lies in every unhit member, so
  only the elements above j of the lowest unhit member are tried, in
  increasing order, and the first whose hits cover all unhit members
  completes the set.

Each cut removes only branches that hold no feasible set, and the last
slot tries every element that can complete the set in the order the plain
scan would, so the first hit in lexicographic order is still the least
witness.

The public `is_*` predicates compare traces directly instead of using the
mask family, so they stay an independent check on the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import or_
from typing import Callable, Iterable

from .core import Graph, bits
from .errors import InfeasibleError, LocdomError
from .twins import edge_twin_masks


class Parameter(Enum):
    """The seven supported parameters, keyed by their report short names."""

    DOM = "dom"
    TOTAL_DOM = "tdom"
    LOC_DOM = "ld"
    LOC_TOTAL_DOM = "ltd"
    EDGE_LOC_DOM = "eld"
    EDGE_LOC_TOTAL_DOM = "eltd"
    WEAK_EDGE_LOC_DOM = "weld"

    @property
    def on_edges(self) -> bool:
        return self in (
            Parameter.EDGE_LOC_DOM,
            Parameter.EDGE_LOC_TOTAL_DOM,
            Parameter.WEAK_EDGE_LOC_DOM,
        )

    @property
    def total(self) -> bool:
        return self in (Parameter.TOTAL_DOM, Parameter.LOC_TOTAL_DOM, Parameter.EDGE_LOC_TOTAL_DOM)

    @property
    def locating(self) -> bool:
        return self is not Parameter.DOM and self is not Parameter.TOTAL_DOM


_ALIASES = {
    "dom": Parameter.DOM,
    "domination": Parameter.DOM,
    "tdom": Parameter.TOTAL_DOM,
    "total_dom": Parameter.TOTAL_DOM,
    "ld": Parameter.LOC_DOM,
    "loc_dom": Parameter.LOC_DOM,
    "ltd": Parameter.LOC_TOTAL_DOM,
    "loc_total_dom": Parameter.LOC_TOTAL_DOM,
    "eld": Parameter.EDGE_LOC_DOM,
    "edge_loc_dom": Parameter.EDGE_LOC_DOM,
    "eltd": Parameter.EDGE_LOC_TOTAL_DOM,
    "edge_loc_total_dom": Parameter.EDGE_LOC_TOTAL_DOM,
    "weld": Parameter.WEAK_EDGE_LOC_DOM,
    "weak_edge_loc_dom": Parameter.WEAK_EDGE_LOC_DOM,
}

PARAMETER_NAMES = frozenset(_ALIASES)


def parse_parameter(name: "str | Parameter") -> Parameter:
    if isinstance(name, Parameter):
        return name
    try:
        return _ALIASES[name.strip().lower()]
    except KeyError:
        raise LocdomError(
            f"unknown parameter {name!r}; expected one of {sorted(set(_ALIASES))}"
        ) from None


@dataclass(frozen=True)
class SolveResult:
    parameter: Parameter
    value: int
    witness: frozenset[int]


def _member_mask(members: Iterable[int], check: Callable[[int], int]) -> int:
    """Bitmask of members; check is g.check_vertex or g.check_edge."""
    mask = 0
    for i in members:
        mask |= 1 << check(i)
    return mask


def is_dominating(g: Graph, members: Iterable[int]) -> bool:
    """Every vertex outside the set has a neighbour inside it."""
    d = _member_mask(members, g.check_vertex)
    return all((g.vadj[v] | (1 << v)) & d for v in range(g.n))


def is_total_dominating(g: Graph, members: Iterable[int]) -> bool:
    """Every vertex of the graph, inside or out, has a neighbour in the set."""
    d = _member_mask(members, g.check_vertex)
    return all(g.vadj[v] & d for v in range(g.n))


def is_locating(g: Graph, members: Iterable[int]) -> bool:
    """Vertices outside the set have pairwise distinct neighbour traces on it."""
    d = _member_mask(members, g.check_vertex)
    sigs = sorted(g.vadj[v] & d for v in range(g.n) if not (d >> v) & 1)
    return all(a != b for a, b in zip(sigs, sigs[1:]))


def is_edge_dominating(g: Graph, members: Iterable[int]) -> bool:
    """Every edge outside the set shares an endpoint with an edge inside it."""
    d = _member_mask(members, g.check_edge)
    return all((g.eadj[e] | (1 << e)) & d for e in range(g.m))


def is_edge_total_dominating(g: Graph, members: Iterable[int]) -> bool:
    """Every edge of the graph is adjacent to an edge of the set."""
    d = _member_mask(members, g.check_edge)
    return all(g.eadj[e] & d for e in range(g.m))


def is_edge_locating(g: Graph, members: Iterable[int]) -> bool:
    """Edges outside the set have pairwise distinct adjacency traces on it."""
    d = _member_mask(members, g.check_edge)
    sigs = sorted(g.eadj[e] & d for e in range(g.m) if not (d >> e) & 1)
    return all(a != b for a, b in zip(sigs, sigs[1:]))


def is_weak_edge_locating(g: Graph, members: Iterable[int]) -> bool:
    """Like `is_edge_locating`, but pairs of edge-twins may share a trace.

    Edge-twins have equal traces on every possible set, so demanding
    location for them would make the parameter undefined on graphs that
    have twins; the weak variant exempts exactly those pairs.
    """
    d = _member_mask(members, g.check_edge)
    twins = edge_twin_masks(g)
    entries = sorted(
        (g.eadj[e] & d, e) for e in range(g.m) if not (d >> e) & 1
    )
    i = 0
    while i < len(entries):
        j = i + 1
        group = 1 << entries[i][1]
        while j < len(entries) and entries[j][0] == entries[i][0]:
            group |= 1 << entries[j][1]
            j += 1
        if j - i > 1:
            for _, e in entries[i:j]:
                if group & ~(twins[e] | (1 << e)):
                    return False
        i = j
    return True


def _constraint_masks(g: Graph, param: Parameter) -> tuple[int, list[int]]:
    """Ground size and the family of masks that a feasible set must hit.

    The first `ground` members are the covering masks in element order; the
    separation masks of the locating variants follow, reduced to those that
    contain no other member.  Raises InfeasibleError when a member is empty,
    since no set meets it.
    """
    if param.on_edges:
        ground, adj = g.m, g.eadj
    else:
        ground, adj = g.n, g.vadj
    if param.total:
        family = list(adj)
    else:
        family = [a | (1 << i) for i, a in enumerate(adj)]
    if 0 in family:  # only a total variant has empty covering masks
        if param.on_edges:
            raise InfeasibleError(
                "isolated_edge",
                "infeasible: isolated_edge (edge-total domination needs every edge"
                " to have an adjacent edge)",
            )
        raise InfeasibleError(
            "isolated_vertex",
            "infeasible: isolated_vertex (total domination needs every vertex"
            " to have a neighbour)",
        )
    if not param.locating:
        return ground, family
    twins = edge_twin_masks(g) if param is Parameter.WEAK_EDGE_LOC_DOM else (0,) * ground
    separations = {
        adj[a] ^ adj[b] | 1 << a | 1 << b
        for a in range(ground)
        for b in range(a + 1, ground)
        if not twins[a] >> b & 1
    }
    for mask in sorted(separations, key=int.bit_count):
        for low in family:
            if low & mask == low:
                break
        else:
            family.append(mask)
    return ground, family


def solve_min(g: Graph, parameter: "str | Parameter") -> SolveResult:
    """Exact minimum for one parameter, with the lexicographically least witness.

    Raises InfeasibleError when no set of any size works: total variants on
    graphs with an isolated vertex (respectively isolated edge).  All other
    variants are always feasible (the whole ground set works).
    """
    param = parse_parameter(parameter)
    ground, family = _constraint_masks(g, param)
    # Strict location needs ground - k distinct nonempty traces on a k-set,
    # so k-subsets with 2^k - 1 < ground - k cannot work and the deepening
    # can start past them.  Twin exemptions void this bound for the weak
    # variant (a star has weak value 1 at any size).
    first_k = 0
    if param.locating and param is not Parameter.WEAK_EDGE_LOC_DOM:
        while ground - first_k > (1 << first_k) - 1:
            first_k += 1
    size, mask = _least_hitting_set(ground, family, first_k)
    return SolveResult(parameter=param, value=size, witness=frozenset(bits(mask)))


def _least_hitting_set(ground: int, family: list[int], first_k: int) -> tuple[int, int]:
    """Smallest subset of range(ground) that meets every mask in family,
    lexicographically least among the smallest.  Every mask is a nonempty
    subset of range(ground), the first ground masks are symmetric (j lies in
    mask i exactly when i lies in mask j), and no size below first_k works."""
    if not family:
        return 0, 0
    full = (1 << len(family)) - 1
    # hits[j]: the members that element j meets.  Adjacency is symmetric,
    # so the covering masks are their own transpose.  later[s]: the members
    # that meet an element at or after s.
    hits = family[:ground]
    for i in range(ground, len(family)):
        member, mask = 1 << i, family[i]
        while mask:
            low = mask & -mask
            hits[low.bit_length() - 1] |= member
            mask ^= low
    later = list(accumulate(reversed(hits), or_))[::-1]
    widest = max(map(int.bit_count, hits))

    def dfs(start: int, slots: int, hit: int, chosen: int):
        for j in range(start, ground - slots + 1):
            # An unhit member wholly below j is missed by j and by every
            # later element, so no later branch can succeed either.
            if hit | later[j] != full:
                return None
            now = hit | hits[j]
            if now == full:
                return chosen | 1 << j
            # Choosing j leaves rest unhit.  Every member below j + 1 is hit
            # now (those below j by the test above, the others contain j),
            # so a child could only die on the width bound: test it here.
            rest = full ^ now
            if slots == 1 or rest.bit_count() > (slots - 1) * widest:
                continue
            if slots == 2:
                # The last element lies in every unhit member, so it is an
                # element above j of the lowest one; try those in order.
                above = family[(rest & -rest).bit_length() - 1] >> j + 1 << j + 1
                while above:
                    low = above & -above
                    if hits[low.bit_length() - 1] & rest == rest:
                        return chosen | 1 << j | low
                    above ^= low
                continue
            found = dfs(j + 1, slots - 1, now, chosen | 1 << j)
            if found is not None:
                return found
        return None

    # A full hit before all k slots are used cannot happen: that smaller set
    # would have been found at a shallower k.
    for k in range(max(first_k, 1), ground + 1):
        if len(family) > k * widest:  # the width bound at the root
            continue
        found = dfs(0, k, 0, 0)
        if found is not None:
            return k, found
    raise AssertionError("unreachable: the full ground set is always feasible here")
