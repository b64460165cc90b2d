"""Exact location-domination parameters for small graphs.

Library layout: `core` holds the bitset Graph type, `codec` the graph6 and
edge-list formats plus the report stream, `twins` the twin scans, `solvers`
the exact minimisers, `linegraph` the L(G) correspondence, `extremal` the
tight families, and `verify` the exhaustive bound-checking harness that
`cli` exposes as the `locdom` command.
"""

from .codec import (
    parse_edgelist,
    parse_graph6,
    report_lines,
    write_edgelist,
    write_graph6,
)
from .core import Graph, bits, is_connected
from .errors import (
    BadCharacterError,
    BadLengthError,
    CodecError,
    DiameterTooSmallError,
    DuplicateEdgeError,
    EdgeRangeError,
    EdgeTwinsError,
    EmptyFamilyError,
    HeaderMismatchError,
    InfeasibleError,
    LocdomError,
    NotATreeError,
    NotConnectedError,
    SelfLoopError,
    SizeLimitError,
    TooSmallError,
    VertexRangeError,
)
from .extremal import (
    named_graph,
    spider_weld_tree,
    subdivided_star_eltd,
    tree_eltd_construct,
)
from .linegraph import LineGraphMap, line_graph
from .solvers import (
    PARAMETER_NAMES,
    Parameter,
    SolveResult,
    is_dominating,
    is_edge_dominating,
    is_edge_locating,
    is_edge_total_dominating,
    is_locating,
    is_total_dominating,
    is_weak_edge_locating,
    parse_parameter,
    solve_min,
)
from .twins import (
    TwinReport,
    check_observation1,
    edge_twin_masks,
    is_edge_twin_free,
    is_twin_free,
    twin_report,
)
from .verify import (
    SKIP_REASONS,
    THEOREMS,
    BoundCheck,
    BoundReport,
    EnumerationSpec,
    TheoremSummary,
    canonical_form,
    check_graph,
    enumerate_graphs,
    iter_reports,
)

__version__ = "1.0.0"

__all__ = [
    "BadCharacterError",
    "BadLengthError",
    "BoundCheck",
    "BoundReport",
    "CodecError",
    "DiameterTooSmallError",
    "DuplicateEdgeError",
    "EdgeRangeError",
    "EdgeTwinsError",
    "EmptyFamilyError",
    "EnumerationSpec",
    "Graph",
    "HeaderMismatchError",
    "InfeasibleError",
    "LineGraphMap",
    "LocdomError",
    "NotATreeError",
    "NotConnectedError",
    "PARAMETER_NAMES",
    "Parameter",
    "SelfLoopError",
    "SizeLimitError",
    "SKIP_REASONS",
    "SolveResult",
    "THEOREMS",
    "TheoremSummary",
    "TooSmallError",
    "TwinReport",
    "VertexRangeError",
    "bits",
    "canonical_form",
    "check_graph",
    "check_observation1",
    "edge_twin_masks",
    "enumerate_graphs",
    "is_connected",
    "is_dominating",
    "is_edge_dominating",
    "is_edge_locating",
    "is_edge_total_dominating",
    "is_edge_twin_free",
    "is_locating",
    "is_total_dominating",
    "is_twin_free",
    "is_weak_edge_locating",
    "iter_reports",
    "line_graph",
    "named_graph",
    "parse_edgelist",
    "parse_graph6",
    "parse_parameter",
    "report_lines",
    "solve_min",
    "spider_weld_tree",
    "subdivided_star_eltd",
    "tree_eltd_construct",
    "twin_report",
    "write_edgelist",
    "write_graph6",
]
