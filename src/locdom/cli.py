"""Command-line front end.

Subcommands: solve (exact parameter values with witnesses), twins
(twin-pair reports), linegraph (graph6 of L(G)), gen (tight-family and
catalogue generators), verify (the exhaustive bound harness), encode
(format conversion).  Graphs arrive as graph6 lines on stdin unless --in
names a file, so subcommands compose in shell pipelines.  verify is the
exception: without --in it runs its own --max-n census and leaves stdin
unread, so piped graphs need --in /dev/stdin.

Exit status: 0 success, 1 domain errors (with the violated precondition
named on stderr) or a closed stdout, 2 usage errors, 3 when verify found
violations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .codec import (
    _is_int,
    parse_edgelist,
    parse_graph6,
    report_lines,
    write_edgelist,
    write_graph6,
)
from .core import Graph
from .errors import CodecError, HeaderMismatchError, LocdomError
from .extremal import named_graph, spider_weld_tree, subdivided_star_eltd
from .linegraph import line_graph
from .solvers import PARAMETER_NAMES, parse_parameter, solve_min
from .twins import twin_report
from .verify import (
    MAX_ENUM_VERTICES,
    THEOREMS,
    EnumerationSpec,
    TheoremSummary,
    enumerated_reports,
    iter_reports,
)


def _read_text(args: argparse.Namespace) -> str:
    """stdin, or the --in file; an unreadable path is a usage error.

    Both are read as UTF-8, whatever the interpreter's own error handler:
    undecodable bytes become lone surrogates, which the parsers reject as
    bad characters.  A text stream without a byte buffer is read as it is.
    """
    if args.infile is None:
        buffer = getattr(sys.stdin, "buffer", None)
        if buffer is None:
            return sys.stdin.read()
        return buffer.read().decode("utf-8", errors="surrogateescape")
    try:
        return Path(args.infile).read_text(encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        args.parser.error(f"cannot read --in {args.infile}: {exc.strerror}")


def _input_graphs(args: argparse.Namespace) -> list[Graph]:
    return [
        parse_graph6(line)
        for line in _read_text(args).splitlines()
        if line.strip()
    ]


def _edge_label(g: Graph, e: int) -> str:
    u, v = g.endpoints(e)
    return f"{u}-{v}"


def _cmd_solve(args: argparse.Namespace) -> int:
    param = parse_parameter(args.param)
    for g in _input_graphs(args):
        result = solve_min(g, param)
        if param.on_edges:
            items = [_edge_label(g, e) for e in sorted(result.witness)]
        else:
            items = [str(v) for v in sorted(result.witness)]
        print(" ".join([str(result.value)] + items))
    return 0


def _cmd_twins(args: argparse.Namespace) -> int:
    for g in _input_graphs(args):
        rep = twin_report(g)
        print(
            json.dumps(
                {
                    "open_vertex_pairs": [list(p) for p in rep.open_vertex_pairs],
                    "closed_vertex_pairs": [list(p) for p in rep.closed_vertex_pairs],
                    "open_edge_pairs": [
                        [_edge_label(g, e), _edge_label(g, f)]
                        for e, f in rep.open_edge_pairs
                    ],
                    "closed_edge_pairs": [
                        [_edge_label(g, e), _edge_label(g, f)]
                        for e, f in rep.closed_edge_pairs
                    ],
                }
            )
        )
    return 0


def _cmd_linegraph(args: argparse.Namespace) -> int:
    for g in _input_graphs(args):
        print(write_graph6(line_graph(g).line))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    params = args.args
    if args.family == "spider":
        if len(params) != 2 or not all(_is_int(p) for p in params):
            args.parser.error("gen --family spider needs two integer leg counts")
        g = spider_weld_tree(int(params[0]), int(params[1]))
    elif args.family == "substar":
        if len(params) != 1 or not _is_int(params[0]):
            args.parser.error("gen --family substar needs one integer leg count")
        g = subdivided_star_eltd(int(params[0]))
    else:
        if len(params) != 1:
            args.parser.error("gen --family named needs one graph name")
        g = named_graph(params[0])
    print(write_graph6(g))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.infile is not None and args.shard != (0, 1):
        args.parser.error("--shard applies to internal enumeration, not --in files")
    summary = TheoremSummary(args.theorem)
    if args.infile is not None:
        reports = iter_reports(_input_graphs(args), args.theorem, summary)
    else:
        specs = [
            EnumerationSpec(n, connected_only=not args.include_disconnected, shard=args.shard)
            for n in range(1, args.max_n + 1)
        ]
        reports = enumerated_reports(specs, args.theorem, summary)
    for line in report_lines(reports):
        print(line)
    print(summary.to_json())
    return 3 if summary.violations else 0


def _cmd_encode(args: argparse.Namespace) -> int:
    if args.source == "graph6":
        graphs = _input_graphs(args)
    else:
        graphs = _parse_edgelist_stream(_read_text(args))
    for g in graphs:
        if args.target == "graph6":
            print(write_graph6(g))
        else:
            sys.stdout.write(write_edgelist(g))
    return 0


def _parse_edgelist_stream(text: str) -> list[Graph]:
    tokens = text.split()
    graphs = []
    pos = 0
    while pos < len(tokens):
        if pos + 2 > len(tokens):
            raise HeaderMismatchError("truncated edge-list record: missing 'n m' header")
        if not _is_int(tokens[pos + 1]):
            raise CodecError(f"non-integer edge count {tokens[pos + 1]!r}")
        m = int(tokens[pos + 1])
        end = pos + 2 + max(0, 2 * m)
        graphs.append(parse_edgelist(" ".join(tokens[pos:end])))
        pos = end
    return graphs


def _shard_arg(text: str) -> tuple[int, int]:
    try:
        index_s, total_s = text.split("/", 1)
        index, total = int(index_s), int(total_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like 'i/t', got {text!r}"
        ) from None
    if total < 1 or not 0 <= index < total:
        raise argparse.ArgumentTypeError(f"need 0 <= i < t in shard {text!r}")
    return index, total


def _max_n_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--max-n needs an integer, got {text!r}") from None
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise argparse.ArgumentTypeError(
            f"--max-n must be in [1, {MAX_ENUM_VERTICES}], got {n}"
        )
    return n


def _add_input_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--in",
        dest="infile",
        metavar="PATH",
        help="read graph6 lines from PATH instead of stdin",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locdom",
        description="Exact location-domination parameters and exhaustive bound checks.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("solve", help="minimum value and witness for one parameter")
    p.add_argument(
        "--param",
        required=True,
        choices=sorted(PARAMETER_NAMES),
        metavar="PARAM",
        help="dom, tdom, ld, ltd, eld, eltd, or weld (long aliases accepted)",
    )
    _add_input_option(p)
    p.set_defaults(func=_cmd_solve, parser=p)

    p = subs.add_parser("twins", help="vertex and edge twin pairs as JSON lines")
    _add_input_option(p)
    p.set_defaults(func=_cmd_twins, parser=p)

    p = subs.add_parser("linegraph", help="emit the line graph as graph6")
    _add_input_option(p)
    p.set_defaults(func=_cmd_linegraph, parser=p)

    p = subs.add_parser("gen", help="generate family members or named graphs")
    p.add_argument("--family", required=True, choices=("spider", "substar", "named"))
    p.add_argument("args", nargs="*", help="family parameters (see --help)")
    p.set_defaults(func=_cmd_gen, parser=p)

    p = subs.add_parser("verify", help="stream bound-check reports plus a summary")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument(
        "--max-n", type=_max_n_arg, default=6, dest="max_n", metavar="N",
        help="census of every order 1..N (default 6); N = 8 scans 2^28 masks"
        " and needs a 512 MB class table",
    )
    p.add_argument("--shard", type=_shard_arg, default=(0, 1), metavar="I/T")
    p.add_argument(
        "--include-disconnected",
        action="store_true",
        help="enumerate all graphs, not just connected ones",
    )
    p.add_argument(
        "--in",
        dest="infile",
        metavar="PATH",
        help="check the graph6 lines in PATH instead of running the --max-n census;"
        " stdin is never read, so use --in /dev/stdin for piped input",
    )
    p.set_defaults(func=_cmd_verify, parser=p)

    p = subs.add_parser("encode", help="convert between graph6 and edge lists")
    p.add_argument("--from", dest="source", required=True, choices=("graph6", "edgelist"))
    p.add_argument("--to", dest="target", required=True, choices=("graph6", "edgelist"))
    _add_input_option(p)
    p.set_defaults(func=_cmd_encode, parser=p)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows up here, not at exit
        return status
    except LocdomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so the flush of what
        # is still buffered, at interpreter exit, stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
