"""Line graph construction.

Vertex i of L(G) is edge i of G under the canonical edge order, so an edge
subset of G is the same index set read as a vertex subset of L(G): eld and
eltd of G are ld and ltd of L(G), with the same witnesses.  `LineGraphMap`
keeps the base graph next to its line graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, bits


@dataclass(frozen=True)
class LineGraphMap:
    base: Graph
    line: Graph


def line_graph(g: Graph) -> LineGraphMap:
    """Build L(g): one vertex per edge, adjacent when the edges share an end."""
    pairs = []
    for i in range(g.m):
        higher = g.eadj[i] >> (i + 1)
        for off in bits(higher):
            pairs.append((i, i + 1 + off))
    line = Graph._from_canonical(g.m, tuple(pairs))
    return LineGraphMap(base=g, line=line)

