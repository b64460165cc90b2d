"""Line graph construction.

Vertex i of L(G) is edge i of G under the canonical edge order, so an edge
subset of G is the same index set read as a vertex subset of L(G): eld and
eltd of G are ld and ltd of L(G), with the same witnesses, and the edges of
L(G) are `core.adjacent_pairs(g.eadj)`.  So `verify`'s line-graph
corollaries read eld and eltd of G and build no L(G); tests check the
identity on every connected class with n <= 7.  `LineGraphMap` keeps the
base graph next to its line graph.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Graph, adjacent_pairs


class LineGraphMap(NamedTuple):
    base: Graph
    line: Graph


def line_graph(g: Graph) -> LineGraphMap:
    """Build L(g): one vertex per edge, adjacent when the edges share an end."""
    return LineGraphMap(base=g, line=Graph._from_canonical(g.m, adjacent_pairs(g.eadj)))

