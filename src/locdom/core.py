"""Simple undirected graphs with canonical edge indexing and bitset adjacency.

Vertices are the integers 0..n-1.  Edges are normalised to (u, v) with u < v
and stored sorted lexicographically; the position of an edge in that tuple is
its canonical index, and every other module (solvers, codecs, reports) refers
to edges by that index.  Bit k of an edge mask on n vertices stands for pair
k of `pair_table(n)`, which the enumerator and the graph6 codec both read.
Adjacency is precomputed two ways as Python ints used as bitsets: neighbour
mask per vertex and adjacent-edge mask per edge.  Feasibility loops
elsewhere then reduce to integer AND/OR, which is what keeps exhaustive
runs affordable.  `bfs_layers`, the package's one breadth-first search,
serves both connectivity and the tree construction.

No size caps: Python ints are unbounded, so a graph of any order or size
fits the bitsets; exact solving, not the representation, is what limits
the practical size.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateEdgeError,
    EdgeRangeError,
    SelfLoopError,
    VertexRangeError,
)


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def pair_table(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pairs (u, v), u < v, on n vertices in lexicographic order;
    bit k of an edge mask stands for pair k."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


class Graph:
    """Immutable simple graph with canonical edge order."""

    __slots__ = ("n", "edges", "vadj", "eadj")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise VertexRangeError(f"vertex count must be non-negative, got {n}")
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int]] = []
        for u, v in pairs:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexRangeError(f"edge ({u}, {v}) outside vertex range [0, {n})")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise DuplicateEdgeError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        norm.sort()
        self._fill(n, tuple(norm))

    @classmethod
    def _from_canonical(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Graph":
        """Fast path for callers that already hold a sorted, validated edge tuple."""
        g = object.__new__(cls)
        g._fill(n, edges)
        return g

    @classmethod
    def _from_mask(cls, n: int, mask: int) -> "Graph":
        """The graph whose edges are the pairs of pair_table(n) at mask's set bits."""
        pairs = pair_table(n)
        return cls._from_canonical(n, tuple(pairs[k] for k in bits(mask)))

    def _fill(self, n: int, edges: tuple[tuple[int, int], ...]) -> None:
        self.n = n
        self.edges = edges
        vadj = [0] * n
        vinc = [0] * n
        for i, (u, v) in enumerate(edges):
            vadj[u] |= 1 << v
            vadj[v] |= 1 << u
            vinc[u] |= 1 << i
            vinc[v] |= 1 << i
        self.vadj = tuple(vadj)
        self.eadj = tuple(
            (vinc[u] | vinc[v]) & ~(1 << i) for i, (u, v) in enumerate(edges)
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    def check_vertex(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise VertexRangeError(f"vertex {v} outside range [0, {self.n})")
        return v

    def check_edge(self, e: int) -> int:
        if not (0 <= e < self.m):
            raise EdgeRangeError(f"edge index {e} outside range [0, {self.m})")
        return e

    def edge_id(self, u: int, v: int) -> int:
        """Canonical index of the edge {u, v}."""
        self.check_vertex(u)
        self.check_vertex(v)
        key = (u, v) if u < v else (v, u)
        i = bisect_left(self.edges, key)
        if i == self.m or self.edges[i] != key:
            raise EdgeRangeError(f"no edge {key} in graph")
        return i

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.edges[self.check_edge(e)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {list(self.edges)})"


def bfs_layers(adj: Sequence[int], root: int, within: int) -> list[int]:
    """Vertex masks of the vertices at distance 0, 1, ... from root in the
    subgraph that the vertex mask `within` (which holds root) induces."""
    layers = []
    seen = frontier = 1 << root
    while frontier:
        layers.append(frontier)
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & within & ~seen
        seen |= frontier
    return layers


def masks_connected(adj: Sequence[int]) -> bool:
    """True when the graph with neighbour masks adj has at most one component.

    Takes the raw masks so that the enumerator can filter a candidate before
    it builds a Graph; vacuously true for fewer than two vertices.
    """
    full = (1 << len(adj)) - 1
    return len(adj) <= 1 or sum(bfs_layers(adj, 0, full)) == full


def is_connected(g: Graph) -> bool:
    """True when g has at most one component (vacuously for n = 0)."""
    return masks_connected(g.vadj)
