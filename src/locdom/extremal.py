"""Generators for the tight families, a small named-graph catalogue, and the
constructive routine that builds an edge-locating-total-dominating set of a
tree within the two-thirds bound.

All generators emit canonically labeled instances so tests can compare
edge lists exactly instead of up to isomorphism.  Every star-shaped tree
(both tight families, K_{1,k} and P_n) comes from one builder, `_spider`,
which owns the numbering: centre first, legs in id order.
"""

from __future__ import annotations

import re

from .codec import MAX_EDGELIST_VERTICES
from .core import Graph, bfs_layers, bits, is_connected
from .errors import (
    DiameterTooSmallError,
    EdgeTwinsError,
    EmptyFamilyError,
    LocdomError,
    NotATreeError,
    SizeLimitError,
    TooSmallError,
)
from .twins import is_edge_twin_free


def _capped(n: int, m: int) -> None:
    """Refuse n vertices or m edges past the edge-list cap before building."""
    if max(n, m) > MAX_EDGELIST_VERTICES:
        raise SizeLimitError(f"{n} vertices and {m} edges: over the cap of {MAX_EDGELIST_VERTICES}")


def _spider(*legs: tuple[int, int]) -> Graph:
    """The centre 0 with count legs of each (length, count) group, every leg
    numbered outward, one after another; the size cap is checked first."""
    m = sum(length * count for length, count in legs)
    _capped(m + 1, m)
    pairs: list[tuple[int, int]] = []
    for length, count in legs:
        for _ in range(count):
            leg = [0, *range(len(pairs) + 1, len(pairs) + 1 + length)]
            pairs += zip(leg, leg[1:])
    return Graph(m + 1, pairs)


def spider_weld_tree(k2: int, k4: int) -> Graph:
    """Star with k2 legs of length 2 and k4 legs of length 4.

    Every member has an even number of edges, m = 2*k2 + 4*k4, and weak
    edge-location-domination number exactly m/2, which is what makes the
    family tight for the half bound.
    """
    if k2 < 0 or k4 < 0:
        raise TooSmallError(f"leg counts must be non-negative, got ({k2}, {k4})")
    if k2 + k4 == 0:
        raise EmptyFamilyError("a spider needs at least one leg")
    return _spider((2, k2), (4, k4))


def subdivided_star_eltd(k: int) -> Graph:
    """Star K_{1,k} with every edge subdivided twice; m = 3k.

    k = 1 would give P_4, whose pendant edges are open edge-twins, so the
    family starts at k = 2.
    """
    if k <= 1:
        raise TooSmallError(f"need k >= 2 doubly subdivided legs, got {k}")
    return _spider((3, k))


def named_graph(name: str) -> Graph:
    """Catalogue lookup: P_n, C_n, K_n, K_{1,k}, paw, diamond (K_4 - e)."""
    s = name.strip().lower().replace("_", "").replace("{", "").replace("}", "").replace(" ", "")
    if s in ("paw", "k3+"):
        return Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    if s in ("diamond", "k4-e", "k4minuse"):
        return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    hit = re.fullmatch(r"k1,([0-9]{1,4300})", s)
    if hit:
        k = int(hit.group(1))
        if k < 1:
            raise TooSmallError("a star needs at least one leaf")
        return _spider((1, k))
    hit = re.fullmatch(r"([pck])([0-9]{1,4300})", s)
    if hit:
        family, num = hit.group(1), int(hit.group(2))
        if family == "p":
            if num < 1:
                raise TooSmallError("a path needs at least one vertex")
            return _spider((num - 1, 1))  # a leg of length 0 is P_1
        _capped(num, num if family == "c" else num * (num - 1) // 2)
        if family == "c":
            if num < 3:
                raise TooSmallError("a cycle needs at least three vertices")
            return Graph(num, [(i, (i + 1) % num) for i in range(num)])
        if num < 1:
            raise TooSmallError("a complete graph needs at least one vertex")
        return Graph(num, [(i, j) for i in range(num) for j in range(i + 1, num)])
    raise LocdomError(f"unknown graph name {name!r}")


def _inner_edges(g: Graph, within: int) -> set[int]:
    """Ids of the non-pendant edges of the subgraph that the vertex mask
    `within` induces: both ends have degree >= 2 inside it."""
    inner = sum(1 << v for v in bits(within) if (g.vadj[v] & within).bit_count() >= 2)
    return {i for i, (a, b) in enumerate(g.edges) if inner >> a & 1 and inner >> b & 1}


def tree_eltd_construct(g: Graph) -> frozenset[int]:
    """Edge-locating-total-dominating set of an edge-twin-free tree, size <= 2m/3.

    A loop over the alive part of the tree, at first all of it.  At diameter
    4 to 6, take its non-pendant edges and stop.  Otherwise root it at the
    smallest-id vertex of largest eccentricity, walk four parents up from the
    smallest-id deepest leaf (u, v, w, x, y), take the edge xw and the
    non-pendant edges of the subtree at x, and drop x's closed descendants
    when y has a leaf-neighbour, its proper descendants otherwise.  Every tie
    breaks to the smallest vertex id, so the output is deterministic.

    Four breadth-first sweeps per round find the root.  The farthest vertex
    a from any vertex ends a longest path, so the sweep from a gives the
    diameter, and its farthest layer b holds the ends of longest paths on
    the far side of the centre.  Every longest path crosses the centre, so
    the sweep from a vertex of b has the other ends in its farthest layer.
    The fourth sweep, from the smallest end, gives the depths.
    """
    if not (is_connected(g) and g.m == g.n - 1):
        raise NotATreeError("the construction is defined on trees")
    if not is_edge_twin_free(g):
        raise EdgeTwinsError("the construction requires an edge-twin-free tree")
    adj = g.vadj
    full = alive = (1 << g.n) - 1
    out: set[int] = set()
    while True:
        a = next(bits(bfs_layers(adj, next(bits(alive)), alive)[-1]))
        from_a = bfs_layers(adj, a, alive)
        diam = len(from_a) - 1
        if diam < 4 and alive == full:  # later rounds may go below 4
            raise DiameterTooSmallError(f"need diameter >= 4, got {diam}")
        if diam <= 6:
            return frozenset(out | _inner_edges(g, alive))
        b = from_a[-1]
        ends = b | bfs_layers(adj, next(bits(b)), alive)[-1]
        layer = bfs_layers(adj, next(bits(ends)), alive)
        u = next(bits(layer[diam]))
        v = next(bits(adj[u] & layer[diam - 1]))
        w = next(bits(adj[v] & layer[diam - 2]))
        x = next(bits(adj[w] & layer[diam - 3]))
        y = next(bits(adj[x] & layer[diam - 4]))
        sub = sum(bfs_layers(adj, x, alive & ~(1 << y)))
        out |= _inner_edges(g, sub)
        out.add(g.edge_id(x, w))
        y_has_leaf = any((adj[z] & alive).bit_count() == 1 for z in bits(adj[y] & alive))
        alive &= ~sub if y_has_leaf else ~sub | 1 << x
