"""Line graph construction.

Vertex i of L(G) is edge i of G under the canonical edge order, so an edge
subset of G is the same index set read as a vertex subset of L(G): eld and
eltd of G are ld and ltd of L(G), with the same witnesses.  `LineGraphMap`
keeps the base graph next to its line graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import MAX_EDGES, MAX_VERTICES, Graph, bits
from .errors import SizeLimitError


@dataclass(frozen=True)
class LineGraphMap:
    base: Graph
    line: Graph


def line_graph(g: Graph) -> LineGraphMap:
    """Build L(g): one vertex per edge, adjacent when the edges share an end.

    Raises SizeLimitError when L(g) overflows the vertex or edge caps
    (dense bases blow up quadratically).
    """
    if g.m > MAX_VERTICES:
        raise SizeLimitError(f"line graph would have {g.m} vertices, cap is {MAX_VERTICES}")
    pairs = []
    for i in range(g.m):
        higher = g.eadj[i] >> (i + 1)
        for off in bits(higher):
            pairs.append((i, i + 1 + off))
    if len(pairs) > MAX_EDGES:
        raise SizeLimitError(f"line graph would have {len(pairs)} edges, cap is {MAX_EDGES}")
    line = Graph._from_canonical(g.m, tuple(pairs))
    return LineGraphMap(base=g, line=line)

