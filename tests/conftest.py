"""Shared helpers for the test suite.

Everything here re-derives definitions from first principles with plain set
arithmetic and exhaustive subset search, so the fast bitmask implementations
in the package are always checked against an independent formulation.
"""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx

from locdom import Graph

# ---------------------------------------------------------------------------
# Reference predicates (set-based, deliberately naive)
# ---------------------------------------------------------------------------


def ref_is_dominating(g: Graph, d: set[int]) -> bool:
    return all(v in d or g.open_neighborhood(v) & d for v in range(g.n))


def ref_is_total_dominating(g: Graph, d: set[int]) -> bool:
    return all(g.open_neighborhood(v) & d for v in range(g.n))


def ref_is_locating(g: Graph, d: set[int]) -> bool:
    outside = [v for v in range(g.n) if v not in d]
    traces = [g.open_neighborhood(v) & d for v in outside]
    return len({frozenset(t) for t in traces}) == len(traces)


def ref_is_edge_dominating(g: Graph, d: set[int]) -> bool:
    return all(e in d or g.edge_neighborhood(e) & d for e in range(g.m))


def ref_is_edge_total_dominating(g: Graph, d: set[int]) -> bool:
    return all(g.edge_neighborhood(e) & d for e in range(g.m))


def ref_is_edge_locating(g: Graph, d: set[int]) -> bool:
    outside = [e for e in range(g.m) if e not in d]
    traces = [g.edge_neighborhood(e) & d for e in outside]
    return len({frozenset(t) for t in traces}) == len(traces)


def ref_edge_twin_pairs(g: Graph) -> set[tuple[int, int]]:
    """Pairs (e, f) with e < f that are open or closed edge twins."""
    out = set()
    for e, f in combinations(range(g.m), 2):
        if g.edge_neighborhood(e) == g.edge_neighborhood(f):
            out.add((e, f))
        elif g.closed_edge_neighborhood(e) == g.closed_edge_neighborhood(f):
            out.add((e, f))
    return out


def ref_is_weak_edge_locating(g: Graph, d: set[int]) -> bool:
    twins = ref_edge_twin_pairs(g)
    outside = [e for e in range(g.m) if e not in d]
    for e, f in combinations(outside, 2):
        te = g.edge_neighborhood(e) & d
        tf = g.edge_neighborhood(f) & d
        if te == tf and (e, f) not in twins:
            return False
    return True


# ---------------------------------------------------------------------------
# Brute-force optimizer
# ---------------------------------------------------------------------------


def ref_minimum(ground: int, feasible) -> tuple[int, tuple[int, ...]] | None:
    """Smallest feasible subset of range(ground); ties break lexicographically.

    Relies on itertools.combinations yielding k-subsets in lexicographic
    order, so the first feasible subset found at the optimal size is the
    lexicographically least witness.
    """
    for k in range(ground + 1):
        for combo in combinations(range(ground), k):
            if feasible(set(combo)):
                return k, combo
    return None


# ---------------------------------------------------------------------------
# Random graph generation
# ---------------------------------------------------------------------------


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(
    rng: random.Random,
    n: int,
    extra_edge_chance: float = 0.3,
) -> Graph:
    """Random tree on n vertices plus a sprinkling of extra edges."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u, v in combinations(range(n), 2):
        if (u, v) not in edges and rng.random() < extra_edge_chance:
            edges.add((u, v))
    return Graph(n, sorted(edges))


def to_networkx(g: Graph) -> nx.Graph:
    """The same graph as a networkx graph, isolated vertices included."""
    gx = nx.empty_graph(g.n)
    gx.add_edges_from(g.edges)
    return gx


def nx_isomorphic(a: Graph, b: Graph) -> bool:
    """Isomorphism as networkx decides it, independent of canonical_form."""
    return nx.is_isomorphic(to_networkx(a), to_networkx(b))


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph(n, edges)


def random_graph_capped(rng: random.Random, n: int, max_m: int = 128) -> Graph:
    """Uniform edge sample of at most max_m edges, so codec tests stay small."""
    pairs = list(combinations(range(n), 2))
    m = rng.randrange(0, min(len(pairs), max_m) + 1)
    return Graph(n, rng.sample(pairs, m))
