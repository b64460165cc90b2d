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
  misses a, b and every element adjacent to just one of them.  Twins are
  exactly the pairs whose mask is the pair alone (the XOR is empty for open
  twins and {a, b} for closed ones; {a} alone would break symmetry), so the
  weak variant drops the masks of two elements.

Meeting a mask survives adding elements, so feasibility is closed under
supersets, and a mask that contains another member is redundant: the family
keeps only the inclusion-minimal members, covers included, sorted by size
and then by highest element.  So only pairs with a common neighbour get a
separation mask: when adj[a] & adj[b] is empty, the XOR is the union, and
the mask contains a's covering mask, open or closed, in every variant.

`_least_hitting_set` runs one depth-first decision, `complete(choices,
unhit, left, banned)`: a set of at most left elements that meets every
member in unhit, one element from choices and the others not banned.
It tries choices in increasing order; once the branch on e has failed,
every answer through e has been tried, so e is banned for the later
siblings and their subtrees.  A branch is entered only when its unhit
members number at most the elements it may still add times the most
members any one element meets.  The caller names the branch set, and a
branch names the unbanned elements of the first unhit member, which is a
smallest one: every answer holds one of them.  It serves two phases:

- the value: the sizes k = floor, floor + 1, ... are decided in turn, on
  the first member, from a lower bound (the number of members over the most
  that one element meets, at least 1; for strict location, a count of
  traces); the first k that has a set is the minimum, of k elements;
- the least witness, by greedy self-reduction: with left positions open,
  one call branches on the elements above the prefix and below the least
  one of the last completion, which is known to work, with every element
  up to the prefix's highest banned.  With the sibling bans each e is
  tried with every element below it banned, so an answer starts with the
  least e that a completion of at most left - 1 elements above e extends;
  with none, the last completion stays.  The shift and the ban only prune:
  a minimum set with the prefix and a lower element outside it would have
  beaten the prefix earlier.  No set ends at the top of such a call: left
  is at least 2 there, and the prefix and e alone would make fewer than k.

Every minimum set has exactly k elements, so the prefix, e and a completion
of at most left - 1 elements above e always make a minimum set, and one
that starts with the prefix and e exists exactly when the test succeeds.
Taking the least such e at every position therefore builds the least
sorted k-tuple among the minimum sets, the lexicographically least optimum.
The last position runs no test.  There the last completion is one element
t, the first to finish the set in the first member that the path to t, the
prefix, leaves unhit.  An element e below t that also finished it lies in
that member, so it was tried first or banned; not by the prefix ban, as it
lies above the prefix, so by a failed sibling branch.  But the rest of the
path, with e for t, answered that branch, so no such e exists.
Both phases are exact, so neither the order of the members nor the lower
bound the value starts from changes the value or the witness, and repeated
runs are byte-identical.

`solve_min` turns the graph and the parameter into one key: the adjacency
(`g.vadj`, or `g.eadj` for the edge variants), the total and locating
flags, and whether twin pairs are exempt, which only weld on a graph with
edge-twins is.  The family, the counting floor and feasibility are
functions of the key alone: the ground is range(len(adj)), and a total key
is infeasible exactly when an element has no neighbour.  Whether the
ground is edges only words the InfeasibleError.  So the key fixes the
answer: `solve_min` keeps the last 16 answers by key and looks the key up
before building anything, so a hit costs one twin scan at most, never a
family; an infeasible instance is never stored.  So the paper's identities
cost one search per family: ld of L(G) reuses the search of eld on G, and
ltd of L(G) that of eltd, since L(G)'s vertex adjacency is G's edge
adjacency; and weld on an edge-twin-free graph, where no separation mask
is a twin pair, has eld's key.  Under any valid floor the search returns
the same value and the same least witness, so a total variant may start
from a floor that is not in its key: a total set is a plain one, so
dom <= tdom, ld <= ltd and eld <= eltd, and on a miss the plain instance's
value on the same adjacency, when the memo holds it, is the floor; that
spares the search the sizes below it.  A graph's seven parameters and ld,
ltd of L(G) are nine solves, so 16 entries cover any order of them; a
larger bound only holds more memory.

The seven public `is_*` predicates are two tests on traces N(x) ∩ D over
`g.vadj`, or over `g.eadj`, the vertex adjacency of L(G): domination wants
every trace of an element outside D nonempty (of every element, for the
total variants), location wants elements outside D that share a trace to
be pairwise exempt (only edge-twins, and only in the weak variant).  They
read no mask of the family, so they stay an independent check on the solver.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import Graph, bits
from .errors import InfeasibleError, LocdomError
from .twins import edge_twin_masks, is_edge_twin_free


class Parameter(Enum):
    """The seven supported parameters, keyed by their report short names."""

    DOM = "dom"
    TOTAL_DOM = "tdom"
    LOC_DOM = "ld"
    LOC_TOTAL_DOM = "ltd"
    EDGE_LOC_DOM = "eld"
    EDGE_LOC_TOTAL_DOM = "eltd"
    WEAK_EDGE_LOC_DOM = "weld"

    # The flags compare short names, several times faster than members read
    # as Parameter.X; solve_min reads them on every solve, hits included.
    @property
    def on_edges(self) -> bool:
        return self.value in ("eld", "eltd", "weld")

    @property
    def total(self) -> bool:
        return self.value in ("tdom", "ltd", "eltd")

    @property
    def locating(self) -> bool:
        return self.value not in ("dom", "tdom")


_ALIASES = {
    **{p.value: p for p in Parameter},
    **{p.name.lower(): p for p in Parameter},
    "domination": Parameter.DOM,
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


class SolveResult(NamedTuple):
    parameter: Parameter
    value: int
    witness: frozenset[int]


def _member_mask(members: Iterable[int], check: Callable[[int], int]) -> int:
    """Bitmask of members; check is g.check_vertex or g.check_edge."""
    mask = 0
    for i in members:
        mask |= 1 << check(i)
    return mask


def _dominates(adj: Sequence[int], d: int, total: bool) -> bool:
    """Every element has a neighbour in d, or, unless total, lies in d."""
    return all((a if total else a | 1 << i) & d for i, a in enumerate(adj))


def _locates(adj: Sequence[int], d: int, exempt: Sequence[int]) -> bool:
    """Elements outside d that share a trace on d are pairwise exempt, where
    exempt[i] masks the elements allowed to share i's trace."""
    groups: dict[int, int] = {}
    for i, a in enumerate(adj):
        if not d >> i & 1:
            groups[a & d] = groups.get(a & d, 0) | 1 << i
    return all(
        not group & ~(exempt[i] | 1 << i) for group in groups.values() for i in bits(group)
    )


def is_dominating(g: Graph, members: Iterable[int]) -> bool:
    """Every vertex outside the set has a neighbour inside it."""
    return _dominates(g.vadj, _member_mask(members, g.check_vertex), False)


def is_total_dominating(g: Graph, members: Iterable[int]) -> bool:
    """Every vertex of the graph, inside or out, has a neighbour in the set."""
    return _dominates(g.vadj, _member_mask(members, g.check_vertex), True)


def is_locating(g: Graph, members: Iterable[int]) -> bool:
    """Vertices outside the set have pairwise distinct neighbour traces on it."""
    return _locates(g.vadj, _member_mask(members, g.check_vertex), (0,) * g.n)


def is_edge_dominating(g: Graph, members: Iterable[int]) -> bool:
    """Every edge outside the set shares an endpoint with an edge inside it."""
    return _dominates(g.eadj, _member_mask(members, g.check_edge), False)


def is_edge_total_dominating(g: Graph, members: Iterable[int]) -> bool:
    """Every edge of the graph is adjacent to an edge of the set."""
    return _dominates(g.eadj, _member_mask(members, g.check_edge), True)


def is_edge_locating(g: Graph, members: Iterable[int]) -> bool:
    """Edges outside the set have pairwise distinct adjacency traces on it."""
    return _locates(g.eadj, _member_mask(members, g.check_edge), (0,) * g.m)


def is_weak_edge_locating(g: Graph, members: Iterable[int]) -> bool:
    """Like `is_edge_locating`, but pairs of edge-twins may share a trace.

    Edge-twins have equal traces on every possible set, so demanding
    location for them would make the parameter undefined on graphs that
    have twins; the weak variant exempts exactly those pairs.
    """
    return _locates(g.eadj, _member_mask(members, g.check_edge), edge_twin_masks(g))


def _constraint_masks(adj: tuple[int, ...], total: bool, locating: bool, weak: bool) -> list[int]:
    """The family of masks that a feasible subset of range(len(adj)) must hit.

    Its members are the inclusion-minimal masks among the covering masks
    (the open neighbourhoods when total) and, for a locating instance, the
    separation masks, without the twin pairs when weak.  They are sorted by
    size and then by highest element, so the search branches on small
    members first.
    """
    members = list(adj) if total else [a | 1 << i for i, a in enumerate(adj)]
    if locating:
        ground = len(adj)
        separations = {  # a pair without a common neighbour contains a's cover
            adj[a] ^ adj[b] | 1 << a | 1 << b
            for a in range(ground)
            for b in range(a + 1, ground)
            if adj[a] & adj[b]
        }
        if weak:  # exempt the twin pairs
            separations = {mask for mask in separations if mask.bit_count() > 2}
        members += separations
    # Two stable sorts: by size, ties by highest element.  A member can only
    # contain members that come before it, and an equal one is dropped too.
    members.sort(key=int.bit_length)
    members.sort(key=int.bit_count)
    family: list[int] = []
    for mask in members:
        for low in family:
            if low & mask == low:
                break
        else:
            family.append(mask)
    return family


# (adjacency, total, locating, twin pairs exempt) -> (size, mask) for the
# instances solve_min solved last, in order of last use, oldest first.
_SOLVED: dict[tuple[tuple[int, ...], bool, bool, bool], tuple[int, int]] = {}
_SOLVED_BOUND = 16


def solve_min(g: Graph, parameter: "str | Parameter") -> SolveResult:
    """Exact minimum for one parameter, with the lexicographically least witness.

    Raises InfeasibleError when no set of any size works: total variants on
    graphs with an isolated vertex (respectively isolated edge).  All other
    variants are always feasible (the whole ground set works).

    The family, the counting floor and feasibility are functions of one key,
    the adjacency and the total, locating and twin-exempt flags, so a key
    among the last 16 distinct ones solved, from any graph and parameter, is
    answered without building its family or searching: ld and ltd of L(G)
    after eld and eltd of G, for example (see the module docstring).  A
    total variant's floor is the plain value on the same adjacency when the
    memo holds it, eltd after eld for example; it is not part of the key,
    since any valid floor gives the same value and least witness.
    """
    param = parse_parameter(parameter)
    adj = g.eadj if param.on_edges else g.vadj
    total, locating = param.total, param.locating
    weak = param is Parameter.WEAK_EDGE_LOC_DOM and not is_edge_twin_free(g)
    key = adj, total, locating, weak
    found = _SOLVED.pop(key, None)
    if found is None:
        if total and 0 in adj:  # an element without neighbours: no set covers it
            reason, need = (
                ("isolated_edge", "edge-total domination needs every edge to have an adjacent edge")
                if param.on_edges
                else ("isolated_vertex", "total domination needs every vertex to have a neighbour")
            )
            raise InfeasibleError(reason, f"infeasible: {reason} ({need})")
        ground = len(adj)
        # Strict location needs ground - k distinct nonempty traces on a
        # k-set, so k-subsets with 2^k - 1 < ground - k cannot work, and the
        # search decides no size below them.  Twin exemptions void this
        # bound (a star has weak value 1 at any size).
        first_k = 0
        if locating and not weak:
            while ground - first_k > (1 << first_k) - 1:
                first_k += 1
        # A total set is a plain one too (dom <= tdom, ld <= ltd, eld <=
        # eltd), so a solved plain instance on the same adjacency is a floor;
        # get leaves its place in the memo's order alone.
        if total:
            plain = _SOLVED.get((adj, False, locating, weak))
            if plain is not None:
                first_k = max(first_k, plain[0])
        found = _least_hitting_set(ground, _constraint_masks(*key), first_k)
        if len(_SOLVED) >= _SOLVED_BOUND:
            del _SOLVED[next(iter(_SOLVED))]
    _SOLVED[key] = found  # re-inserted last: the most recently used
    size, mask = found
    return SolveResult(parameter=param, value=size, witness=frozenset(bits(mask)))


def _least_hitting_set(ground: int, family: list[int], first_k: int) -> tuple[int, int]:
    """Smallest subset of range(ground) that meets every mask in family,
    lexicographically least among the smallest.  Every mask is a nonempty
    subset of range(ground), in any order, and no size below first_k works.

    One decision, `complete`, serves both phases and branches on what its
    caller names: the value is the first size k, counted up from a lower
    bound, with a set through the first member; the witness is then fixed
    element by element (see the module docstring).
    """
    if not family:
        return 0, 0
    # hits[j]: the members that element j meets, as a mask of indices.
    hits = [0] * ground
    member = 1
    for mask in family:
        while mask:
            low = mask & -mask
            hits[low.bit_length() - 1] |= member
            mask ^= low
        member <<= 1
    widest = max(map(int.bit_count, hits))

    def complete(choices: int, unhit: int, left: int, banned: int) -> int:
        """A set of at most left elements that meets every member in unhit
        (not empty): one element from choices, the others outside banned;
        or 0 when there is none."""
        left -= 1
        room = left * widest  # the most members left more elements can meet
        while choices:
            e = choices & -choices
            rest = unhit & ~hits[e.bit_length() - 1]
            if not rest:
                return e
            if rest.bit_count() <= room:
                low = rest & -rest
                found = complete(family[low.bit_length() - 1] & ~banned, rest, left, banned)
                if found:
                    return found | e
            # every set through e was tried: the later siblings go without it
            banned |= e
            choices ^= e
        return 0

    # One element meets at most widest members, so no set is smaller than
    # len(family) / widest, or than first_k; the family and every member are
    # nonempty, so that bound is at least 1.
    everything = member - 1
    size = max(first_k, -(-len(family) // widest))
    while not (found := complete(family[0], everything, size, 0)):
        size += 1
    # found completes the prefix least, all above it; its least element is
    # known to work, so only the elements between the two are tried.
    least, unhit = 0, everything
    for left in range(size, 1, -1):
        lo = least.bit_length()
        below = ((found & -found) - 1) >> lo << lo
        found = complete(below, unhit, left, (1 << lo) - 1) or found
        top = found & -found
        found ^= top
        least |= top
        unhit &= ~hits[top.bit_length() - 1]
    return size, least | found  # the last element needs no test
