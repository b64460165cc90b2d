"""Generators for the tight families, a small named-graph catalogue, and the
constructive routine that builds an edge-locating-total-dominating set of a
tree within the two-thirds bound.

All generators emit canonically labeled instances (center first, legs in
id order) so tests can compare edge lists exactly instead of up to
isomorphism.
"""

from __future__ import annotations

import re

from .core import Graph, bits, is_connected
from .errors import (
    DiameterTooSmallError,
    EdgeTwinsError,
    EmptyFamilyError,
    LocdomError,
    NotATreeError,
    TooSmallError,
)
from .twins import is_edge_twin_free


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
    pairs = []
    nxt = 1
    for _ in range(k2):
        pairs += [(0, nxt), (nxt, nxt + 1)]
        nxt += 2
    for _ in range(k4):
        pairs += [(0, nxt), (nxt, nxt + 1), (nxt + 1, nxt + 2), (nxt + 2, nxt + 3)]
        nxt += 4
    return Graph(nxt, pairs)


def subdivided_star_eltd(k: int) -> Graph:
    """Star K_{1,k} with every edge subdivided twice; m = 3k.

    k = 1 would give P_4, whose pendant edges are open edge-twins, so the
    family starts at k = 2.
    """
    if k <= 1:
        raise TooSmallError(f"need k >= 2 doubly subdivided legs, got {k}")
    pairs = []
    nxt = 1
    for _ in range(k):
        pairs += [(0, nxt), (nxt, nxt + 1), (nxt + 1, nxt + 2)]
        nxt += 3
    return Graph(nxt, pairs)


def named_graph(name: str) -> Graph:
    """Catalogue lookup: P_n, C_n, K_n, K_{1,k}, paw, diamond (K_4 - e)."""
    s = name.strip().lower().replace("_", "").replace("{", "").replace("}", "").replace(" ", "")
    if s in ("paw", "k3+"):
        return Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    if s in ("diamond", "k4-e", "k4minuse"):
        return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    hit = re.fullmatch(r"k1,(\d+)", s)
    if hit:
        k = int(hit.group(1))
        if k < 1:
            raise TooSmallError("a star needs at least one leaf")
        return Graph(k + 1, [(0, i) for i in range(1, k + 1)])
    hit = re.fullmatch(r"([pck])(\d+)", s)
    if hit:
        family, num = hit.group(1), int(hit.group(2))
        if family == "p":
            if num < 1:
                raise TooSmallError("a path needs at least one vertex")
            return Graph(num, [(i, i + 1) for i in range(num - 1)])
        if family == "c":
            if num < 3:
                raise TooSmallError("a cycle needs at least three vertices")
            return Graph(num, [(i, (i + 1) % num) for i in range(num)])
        if num < 1:
            raise TooSmallError("a complete graph needs at least one vertex")
        return Graph(num, [(i, j) for i in range(num) for j in range(i + 1, num)])
    raise LocdomError(f"unknown graph name {name!r}")


def _ecc_and_diam(adj: dict[int, set[int]]) -> tuple[dict[int, int], int]:
    ecc = {}
    for s in adj:
        dist = {s: 0}
        queue = [s]
        for v in queue:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        ecc[s] = max(dist.values())
    return ecc, max(ecc.values())


def _nonpendant_pairs(adj: dict[int, set[int]]) -> set[frozenset[int]]:
    return {
        frozenset((a, b))
        for a in adj
        for b in adj[a]
        if a < b and len(adj[a]) >= 2 and len(adj[b]) >= 2
    }


def _construct(adj: dict[int, set[int]], ecc: dict[int, int], diam: int) -> set[frozenset[int]]:
    if diam <= 6:
        return _nonpendant_pairs(adj)
    root = min(v for v in adj if ecc[v] == diam)
    depth = {root: 0}
    parent = {root: -1}
    queue = [root]
    for v in queue:
        for w in adj[v]:
            if w not in depth:
                depth[w] = depth[v] + 1
                parent[w] = v
                queue.append(w)
    u = min(v for v in adj if depth[v] == diam)
    v = parent[u]
    w = parent[v]
    x = parent[w]
    y = parent[x]

    desc = set()
    stack = [c for c in adj[x] if c != y]
    while stack:
        c = stack.pop()
        desc.add(c)
        stack.extend(d for d in adj[c] if d != x and d not in desc)

    y_has_leaf = any(len(adj[z]) == 1 for z in adj[y])
    removed = desc | {x} if y_has_leaf else desc
    sub = {a: {b for b in adj[a] if b not in removed} for a in adj if a not in removed}
    out = _construct(sub, *_ecc_and_diam(sub))

    out.add(frozenset((x, w)))
    tx = desc | {x}
    tx_deg = {a: sum(1 for b in adj[a] if b in tx) for a in tx}
    for a in tx:
        for b in adj[a]:
            if b in tx and a < b and tx_deg[a] >= 2 and tx_deg[b] >= 2:
                out.add(frozenset((a, b)))
    return out


def tree_eltd_construct(g: Graph) -> frozenset[int]:
    """Edge-locating-total-dominating set of an edge-twin-free tree, size <= 2m/3.

    Base case (diameter 4 to 6): all non-pendant edges.  Otherwise root at
    the smallest-id endpoint of a longest path, walk four parents up from
    the smallest-id deepest leaf (u, v, w, x, y), recurse on the tree minus
    x's closed descendants when y has a leaf-neighbour and minus x's proper
    descendants otherwise, then add the edge xw and the non-pendant edges
    of the subtree hanging at x.  Every tie breaks to the smallest vertex
    id, so the output is deterministic.
    """
    if not (is_connected(g) and g.m == g.n - 1):
        raise NotATreeError("the construction is defined on trees")
    if not is_edge_twin_free(g):
        raise EdgeTwinsError("the construction requires an edge-twin-free tree")
    adj = {vtx: set(bits(g.vadj[vtx])) for vtx in range(g.n)}
    ecc, diam = _ecc_and_diam(adj)
    if diam < 4:
        raise DiameterTooSmallError(f"need diameter >= 4, got {diam}")
    pairs = _construct(adj, ecc, diam)
    return frozenset(g.edge_id(min(p), max(p)) for p in pairs)
