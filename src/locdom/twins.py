"""Open/closed twin detection for vertices and edges.

Two distinct vertices are open twins when N(u) = N(v) and closed twins when
N[u] = N[v]; two distinct edges are open/closed edge-twins under the same
comparison of their edge neighbourhoods (the edges sharing an endpoint with
them).  Scans are quadratic with bitset equality, which is instant at the
supported sizes.

`check_observation1` re-verifies on a connected graph the catalogue of
structural facts about edge-twins that the bound proofs lean on: open
edge-twins are non-adjacent and force the whole graph into one of five
four-vertex shapes, closed edge-twins pin down everything around their
shared endpoint, no edge carries both kinds of twin, and an edge has at
most one open twin.  Violations come back as data, never as exceptions, so
the exhaustive harness can stream the check over a census.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations

from .core import Graph, bits, is_connected
from .errors import NotConnectedError


@dataclass(frozen=True)
class TwinReport:
    """All twin pairs of one graph, each unordered pair listed once."""

    open_vertex_pairs: tuple[tuple[int, int], ...]
    closed_vertex_pairs: tuple[tuple[int, int], ...]
    open_edge_pairs: tuple[tuple[int, int], ...]
    closed_edge_pairs: tuple[tuple[int, int], ...]


def twin_report(g: Graph) -> TwinReport:
    """Classify every twin pair of g at both the vertex and the edge level."""
    open_v = []
    closed_v = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.vadj[u] == g.vadj[v]:
                open_v.append((u, v))
            elif g.vadj[u] | (1 << u) == g.vadj[v] | (1 << v):
                closed_v.append((u, v))
    open_e = []
    closed_e = []
    for i in range(g.m):
        for j in range(i + 1, g.m):
            if g.eadj[i] == g.eadj[j]:
                open_e.append((i, j))
            elif g.eadj[i] | (1 << i) == g.eadj[j] | (1 << j):
                closed_e.append((i, j))
    return TwinReport(tuple(open_v), tuple(closed_v), tuple(open_e), tuple(closed_e))


def is_twin_free(g: Graph) -> bool:
    """True when no two vertices are open or closed twins."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.vadj[u] == g.vadj[v]:
                return False
            if g.vadj[u] | (1 << u) == g.vadj[v] | (1 << v):
                return False
    return True


def is_edge_twin_free(g: Graph) -> bool:
    """True when no two edges are open or closed edge-twins."""
    return not any(edge_twin_masks(g))


def edge_twin_masks(g: Graph) -> tuple[int, ...]:
    """Per-edge bitmask of that edge's edge-twins, open and closed together.

    The weak location predicate exempts exactly these pairs, so the solver
    wants them as masks rather than pair lists.
    """
    masks = [0] * g.m
    for i in range(g.m):
        for j in range(i + 1, g.m):
            if g.eadj[i] == g.eadj[j] or g.eadj[i] | (1 << i) == g.eadj[j] | (1 << j):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return tuple(masks)


# The only connected graphs that can contain open edge-twins, as edge sets
# on vertices 0..3.
_OPEN_TWIN_SHAPES: tuple[frozenset[frozenset[int]], ...] = tuple(
    frozenset(frozenset(e) for e in shape)
    for shape in (
        ((0, 1), (1, 2), (2, 3)),                                  # P_4
        ((0, 1), (1, 2), (2, 3), (0, 3)),                          # C_4
        ((0, 1), (0, 2), (1, 2), (2, 3)),                          # paw
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)),                  # diamond
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),          # K_4
    )
)


def _is_open_twin_shape(g: Graph) -> bool:
    if g.n != 4:
        return False
    sizes = {len(s) for s in _OPEN_TWIN_SHAPES}
    if g.m not in sizes:
        return False
    for p in permutations(range(4)):
        mapped = frozenset(frozenset((p[u], p[v])) for u, v in g.edges)
        if mapped in _OPEN_TWIN_SHAPES:
            return True
    return False


def check_observation1(g: Graph) -> list[str]:
    """Return the list of violated structural facts (expected empty).

    Items checked, on a connected graph: (a) open edge-twins share no
    endpoint and closed edge-twins share exactly one; (b) open edge-twins
    only occur in P_4, C_4, the paw, the diamond, or K_4; (c) for closed
    edge-twins uv, vw every edge adjacent to either is uw or touches v, and
    the ends u, w are both of degree 1 or both of degree 2; (d) no edge has
    both an open and a closed twin; (e) no edge has two open twins.
    """
    if not is_connected(g):
        raise NotConnectedError("the edge-twin structure facts assume a connected graph")
    rep = twin_report(g)
    bad: list[str] = []

    for e, f in rep.open_edge_pairs:
        if set(g.endpoints(e)) & set(g.endpoints(f)):
            bad.append(f"a: open edge-twins {e},{f} share an endpoint")
    for e, f in rep.closed_edge_pairs:
        if len(set(g.endpoints(e)) & set(g.endpoints(f))) != 1:
            bad.append(f"a: closed edge-twins {e},{f} do not share exactly one endpoint")

    if rep.open_edge_pairs and not _is_open_twin_shape(g):
        bad.append("b: open edge-twins present in an unexpected graph shape")

    for e, f in rep.closed_edge_pairs:
        shared = set(g.endpoints(e)) & set(g.endpoints(f))
        if len(shared) != 1:
            continue  # malformed pair already reported under (a)
        v = next(iter(shared))
        u = next(x for x in g.endpoints(e) if x != v)
        w = next(x for x in g.endpoints(f) if x != v)
        for other in bits((g.eadj[e] | g.eadj[f]) & ~(1 << e) & ~(1 << f)):
            ends = g.endpoints(other)
            if v in ends or set(ends) == {u, w}:
                continue
            bad.append(
                f"c: edge {other} adjacent to closed edge-twins {e},{f} avoids both"
                " the shared vertex and the non-shared chord"
            )
        du, dw = g.degree(u), g.degree(w)
        if du != dw or du not in (1, 2):
            bad.append(
                f"c: non-shared ends of closed edge-twins {e},{f} have degrees {du},{dw}"
            )

    open_members = {x for pair in rep.open_edge_pairs for x in pair}
    closed_members = {x for pair in rep.closed_edge_pairs for x in pair}
    for x in sorted(open_members & closed_members):
        bad.append(f"d: edge {x} has both an open and a closed edge-twin")

    counts = Counter(x for pair in rep.open_edge_pairs for x in pair)
    for x in sorted(k for k, c in counts.items() if c > 1):
        bad.append(f"e: edge {x} has more than one open edge-twin")

    return bad
