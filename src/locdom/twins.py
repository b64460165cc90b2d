"""Open/closed twin detection for vertices and edges.

Two distinct vertices are open twins when N(u) = N(v) and closed twins when
N[u] = N[v]; two distinct edges are open/closed edge-twins under the same
comparison of their edge neighbourhoods (the edges sharing an endpoint with
them).  Edge-twins of G are the vertex twins of L(G), so one quadratic
scan over neighbour masks, `g.vadj` or `g.eadj`, serves both levels, and
every reader below takes its answer from it.

`check_observation1` re-verifies on a connected graph the catalogue of
structural facts about edge-twins that the bound proofs lean on: open
edge-twins force the whole graph into one of five four-vertex shapes (the
connected graphs on four vertices other than K_{1,3}), closed edge-twins
pin down everything around their shared endpoint, no edge carries both
kinds of twin, and an edge has at most one open twin.  Violations come
back as data, never as exceptions, so the exhaustive harness can stream
the check over a census.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import or_
from typing import Sequence

from .core import Graph, bits, is_connected
from .errors import NotConnectedError


@dataclass(frozen=True)
class TwinReport:
    """All twin pairs of one graph, each unordered pair listed once."""

    open_vertex_pairs: tuple[tuple[int, int], ...]
    closed_vertex_pairs: tuple[tuple[int, int], ...]
    open_edge_pairs: tuple[tuple[int, int], ...]
    closed_edge_pairs: tuple[tuple[int, int], ...]


def _twin_masks(adj: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per element, the mask of its open twins and the mask of its closed twins.

    adj holds symmetric neighbour masks without self-loops.  No pair is both:
    closed twins are adjacent, and an element is never its own neighbour.
    """
    open_twins = [0] * len(adj)
    closed_twins = [0] * len(adj)
    for i, a in enumerate(adj):
        closed = a | 1 << i
        for j in range(i + 1, len(adj)):
            if adj[j] == a:
                open_twins[i] |= 1 << j
                open_twins[j] |= 1 << i
            elif adj[j] | 1 << j == closed:
                closed_twins[i] |= 1 << j
                closed_twins[j] |= 1 << i
    return tuple(open_twins), tuple(closed_twins)


def _pairs(masks: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j), i < j, with j in masks[i], in lexicographic order."""
    return tuple((i, j) for i, mask in enumerate(masks) for j in bits(mask >> i + 1 << i + 1))


def twin_report(g: Graph) -> TwinReport:
    """Classify every twin pair of g at both the vertex and the edge level."""
    open_v, closed_v = _twin_masks(g.vadj)
    open_e, closed_e = _twin_masks(g.eadj)
    return TwinReport(_pairs(open_v), _pairs(closed_v), _pairs(open_e), _pairs(closed_e))


def is_twin_free(g: Graph) -> bool:
    """True when no two vertices are open or closed twins."""
    return not any(map(or_, *_twin_masks(g.vadj)))


def is_edge_twin_free(g: Graph) -> bool:
    """True when no two edges are open or closed edge-twins."""
    return not any(edge_twin_masks(g))


def edge_twin_masks(g: Graph) -> tuple[int, ...]:
    """Per-edge bitmask of that edge's edge-twins, open and closed together.

    The weak location predicate exempts exactly these pairs, so it wants
    them as masks rather than pair lists.
    """
    return tuple(map(or_, *_twin_masks(g.eadj)))


def _is_open_twin_shape(g: Graph) -> bool:
    """For connected g: is it P_4, C_4, the paw, the diamond or K_4?  Those are
    the connected four-vertex graphs other than K_{1,3}, the only one of them
    with three edges and a vertex of degree 3."""
    return g.n == 4 and not (g.m == 3 and 3 in map(int.bit_count, g.vadj))


def check_observation1(g: Graph) -> list[str]:
    """Return the list of violated structural facts (expected empty).

    Items checked, on a connected graph: (b) open edge-twins only occur in
    P_4, C_4, the paw, the diamond, or K_4; (c) for closed edge-twins uv, vw
    every edge adjacent to either is uw or touches v, and the ends u, w are
    both of degree 1 or both of degree 2; (d) no edge has both an open and a
    closed twin; (e) no edge has two open twins.  Item (a), that open
    edge-twins share no endpoint and closed ones share one, holds by the
    twin scan's definition: f in N(e) = N(f) would make f its own
    neighbour, and f in N[f] = N[e] makes f adjacent to e.
    """
    if not is_connected(g):
        raise NotConnectedError("the edge-twin structure facts assume a connected graph")
    open_e, closed_e = _twin_masks(g.eadj)
    bad: list[str] = []
    if any(open_e) and not _is_open_twin_shape(g):
        bad.append("b: open edge-twins present in an unexpected graph shape")

    for e, f in _pairs(closed_e):
        (v,) = set(g.endpoints(e)) & set(g.endpoints(f))
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

    for x in range(g.m):
        if open_e[x] and closed_e[x]:
            bad.append(f"d: edge {x} has both an open and a closed edge-twin")
    for x in range(g.m):
        if open_e[x].bit_count() > 1:
            bad.append(f"e: edge {x} has more than one open edge-twin")
    return bad
