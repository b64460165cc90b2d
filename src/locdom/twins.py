"""Open/closed twin detection for vertices and edges.

Two distinct vertices are open twins when N(u) = N(v) and closed twins when
N[u] = N[v]; two distinct edges are open/closed edge-twins under the same
comparison of their edge neighbourhoods (the edges sharing an endpoint with
them).  Edge-twins of G are the vertex twins of L(G), so one grouping by
neighbour mask, `g.vadj` or `g.eadj`, open and closed, serves both levels,
and every reader below takes its answer from it.

`check_observation1` re-checks on a connected graph two facts about
edge-twins that the bound proofs lean on: open edge-twins force the whole
graph into one of five four-vertex shapes (the connected graphs on four
vertices other than K_{1,3}), and an edge has at most one open twin.  Like
the rest of the catalogue, both follow from the definitions, so no graph
fails them: the check guards the twin scan, not graphs.  Violations come
back as data, never as exceptions, so the harness can stream the check.
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

    Elements are grouped by open neighbourhood and by closed neighbourhood;
    an element's twins are its group without it.  adj holds symmetric
    neighbour masks without self-loops, so no pair is both: closed twins are
    adjacent, and an element is never its own neighbour.
    """
    open_groups: dict[int, int] = {}
    closed_groups: dict[int, int] = {}
    for i, a in enumerate(adj):
        open_groups[a] = open_groups.get(a, 0) | 1 << i
        closed_groups[a | 1 << i] = closed_groups.get(a | 1 << i, 0) | 1 << i
    return (
        tuple(open_groups[a] ^ 1 << i for i, a in enumerate(adj)),
        tuple(closed_groups[a | 1 << i] ^ 1 << i for i, a in enumerate(adj)),
    )


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
    P_4, C_4, the paw, the diamond, or K_4; (e) no edge has two open twins.
    Every item holds by the definitions of the twins, so only a fault in
    the twin scan that (b) and (e) read can fail them:
    (a) open edge-twins share no endpoint and closed ones share one: f in
    N(e) = N(f) would make f its own neighbour, and f in N[f] = N[e]
    makes f adjacent to e.
    (b) for open twins e = ab, f = cd, disjoint by (a), every other edge at
    a or b lies in N(e) = N(f), so it ends in {c, d}, and the same holds
    the other way round; so {a, b, c, d} is a component, hence the whole
    graph, and with two disjoint edges it is not K_{1,3}.
    (c) for closed edge-twins e = vu, f = vw, every edge adjacent to either
    touches v or is uw, and deg u = deg w is 1 or 2: an edge at u other
    than e lies in N[e] = N[f], so it touches v or w, and touching v would
    make it e; so it is uw, the same holds at w, and both degrees are 2 if
    uw is an edge and 1 if not.
    (d) no edge has both an open twin h and a closed twin f: f in N(e) =
    N(h) puts h in N[f] = N[e], so h, not being e, lies in N(e) = N(h).
    (e) by (a) and (b), open twins are disjoint edges of a 4-vertex graph,
    where an edge is disjoint from only one other edge.
    """
    if not is_connected(g):
        raise NotConnectedError("the edge-twin structure facts assume a connected graph")
    open_e, _ = _twin_masks(g.eadj)
    bad: list[str] = []
    if any(open_e) and not _is_open_twin_shape(g):
        bad.append("b: open edge-twins present in an unexpected graph shape")
    for x in range(g.m):
        if open_e[x].bit_count() > 1:
            bad.append(f"e: edge {x} has more than one open edge-twin")
    return bad
