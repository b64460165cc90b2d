"""Command-line front end.

Subcommands: solve (exact parameter values with witnesses), twins
(twin-pair reports), linegraph (graph6 of L(G)), gen (tight-family and
catalogue generators), verify (the exhaustive bound harness), encode
(format conversion).  Graphs arrive as graph6 lines on stdin unless --in
names a file, so subcommands compose in shell pipelines.  verify is the
exception: without --in it runs its own --max-n census and leaves stdin
unread, so piped graphs need --in /dev/stdin.  Input is read line by line
and `codec` parses each record when it is reached, so one is held at a time.

Exit status: 0 success, 1 domain errors (with the violated precondition
named on stderr) or a closed stdout, 2 usage errors, 3 when verify found
violations.  A malformed record exits 1 after the output of the records
before it, and verify then writes no summary line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from itertools import chain
from typing import Iterator

from .codec import (
    _is_int,
    parse_edgelist_stream,
    parse_graph6_stream,
    report_lines,
    write_edgelist,
    write_graph6,
)
from .core import Graph
from .errors import LocdomError
from .extremal import named_graph, spider_weld_tree, subdivided_star_eltd
from .linegraph import line_graph
from .solvers import PARAMETER_NAMES, parse_parameter, solve_min
from .twins import twin_report
from .verify import (
    MAX_ENUM_VERTICES,
    THEOREMS,
    EnumerationSpec,
    TheoremSummary,
    census_lines,
    iter_reports,
)


@contextlib.contextmanager
def _input_lines(args: argparse.Namespace) -> Iterator[Iterator[str]]:
    """The lines of stdin, or of the --in file, cut where str.splitlines cuts
    text; the file is closed when the command ends, and an unreadable path is
    a usage error.  Both are read as UTF-8, whatever the interpreter's error
    handler: undecodable bytes, a sequence cut short at the end included,
    become lone surrogates, which the parsers reject as bad characters.  A
    text stream without a byte buffer is read as it is."""
    with contextlib.ExitStack() as stack:
        if args.infile is not None:
            try:
                stream = open(args.infile, encoding="utf-8", errors="surrogateescape")
            except OSError as exc:
                args.parser.error(f"cannot read --in {args.infile}: {exc.strerror}")
            stack.enter_context(stream)
        elif hasattr(sys.stdin, "buffer"):
            stream = io.TextIOWrapper(sys.stdin.buffer, "utf-8", "surrogateescape")
            stack.callback(stream.detach)  # closing the wrapper would close stdin
        else:
            stream = sys.stdin
        # a text stream cuts lines at \n and \r alone; splitlines also cuts
        # at \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029
        yield chain.from_iterable(map(str.splitlines, stream))


def _edge_label(g: Graph, e: int) -> str:
    u, v = g.endpoints(e)
    return f"{u}-{v}"


def _render_solve(args: argparse.Namespace, g: Graph) -> str:
    param = parse_parameter(args.param)
    result = solve_min(g, param)
    items = [_edge_label(g, x) if param.on_edges else str(x) for x in sorted(result.witness)]
    return " ".join([str(result.value)] + items) + "\n"


def _render_twins(args: argparse.Namespace, g: Graph) -> str:
    rep = twin_report(g)
    open_e, closed_e = (
        [[_edge_label(g, e), _edge_label(g, f)] for e, f in pairs]
        for pairs in (rep.open_edge_pairs, rep.closed_edge_pairs)
    )
    return json.dumps({
        "open_vertex_pairs": rep.open_vertex_pairs,  # tuples dump as lists
        "closed_vertex_pairs": rep.closed_vertex_pairs,
        "open_edge_pairs": open_e,
        "closed_edge_pairs": closed_e,
    }) + "\n"


def _render_linegraph(args: argparse.Namespace, g: Graph) -> str:
    return write_graph6(line_graph(g).line) + "\n"


def _render_encode(args: argparse.Namespace, g: Graph) -> str:
    return write_graph6(g) + "\n" if args.target == "graph6" else write_edgelist(g)


_READERS = {"graph6": parse_graph6_stream, "edgelist": parse_edgelist_stream}


def _cmd_records(args: argparse.Namespace) -> int:
    """solve, twins, linegraph and encode: one output per input record."""
    with _input_lines(args) as lines:
        graphs = _READERS[args.source](lines)
        sys.stdout.writelines(args.render(args, g) for g in graphs)
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
    census_options = (args.max_n, args.shard, args.include_disconnected)
    if args.infile is not None and census_options != (None, None, False):
        args.parser.error(
            "--max-n, --shard and --include-disconnected apply to the census, not --in files"
        )
    summary = TheoremSummary(args.theorem)
    if args.infile is not None:
        with _input_lines(args) as lines:
            reports = iter_reports(parse_graph6_stream(lines), args.theorem, summary)
            sys.stdout.writelines(line + "\n" for line in report_lines(reports))
    else:
        specs = [
            EnumerationSpec(n, not args.include_disconnected, shard=args.shard or (0, 1))
            for n in range(1, (args.max_n or 6) + 1)
        ]
        sys.stdout.writelines(census_lines(specs, args.theorem, summary))
    sys.stdout.write(summary.to_json() + "\n")
    return 3 if summary.violations else 0


def _shard_arg(text: str) -> tuple[int, int]:
    index_s, _, total_s = text.partition("/")
    if not (_is_int(index_s) and _is_int(total_s)):
        raise argparse.ArgumentTypeError(f"shard must look like 'i/t', got {text!r}")
    index, total = int(index_s), int(total_s)
    if total < 1 or not 0 <= index < total:
        raise argparse.ArgumentTypeError(f"need 0 <= i < t in shard {text!r}")
    return index, total


def _max_n_arg(text: str) -> int:
    if not _is_int(text):
        raise argparse.ArgumentTypeError(f"--max-n needs an integer, got {text!r}")
    n = int(text)
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise argparse.ArgumentTypeError(
            f"--max-n must be in [1, {MAX_ENUM_VERTICES}], got {n}"
        )
    return n


def _add_input_option(
    sub: argparse.ArgumentParser, help: str = "read graph6 lines from PATH instead of stdin"
) -> None:
    sub.add_argument("--in", dest="infile", metavar="PATH", help=help)


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
    p.set_defaults(func=_cmd_records, render=_render_solve, source="graph6", parser=p)

    p = subs.add_parser("twins", help="vertex and edge twin pairs as JSON lines")
    _add_input_option(p)
    p.set_defaults(func=_cmd_records, render=_render_twins, source="graph6", parser=p)

    p = subs.add_parser("linegraph", help="emit the line graph as graph6")
    _add_input_option(p)
    p.set_defaults(func=_cmd_records, render=_render_linegraph, source="graph6", parser=p)

    p = subs.add_parser("gen", help="generate family members or named graphs")
    p.add_argument("--family", required=True, choices=("spider", "substar", "named"))
    p.add_argument("args", nargs="*", help="family parameters (see --help)")
    p.set_defaults(func=_cmd_gen, parser=p)

    p = subs.add_parser("verify", help="stream bound-check reports plus a summary")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument(
        "--max-n", type=_max_n_arg, dest="max_n", metavar="N",
        help="census of every order 1..N (default 6); each order's class table"
        " is built once per process, and N = 8 scans 2^28 masks and holds a"
        " 512 MB class table until the run ends",
    )
    p.add_argument("--shard", type=_shard_arg, metavar="I/T")
    p.add_argument(
        "--include-disconnected",
        action="store_true",
        help="enumerate all graphs, not just connected ones",
    )
    _add_input_option(
        p,
        "check the graph6 lines in PATH instead of running the --max-n census;"
        " stdin is never read, so use --in /dev/stdin for piped input",
    )
    p.set_defaults(func=_cmd_verify, parser=p)

    p = subs.add_parser("encode", help="convert between graph6 and edge lists")
    p.add_argument("--from", dest="source", required=True, choices=("graph6", "edgelist"))
    p.add_argument("--to", dest="target", required=True, choices=("graph6", "edgelist"))
    _add_input_option(p)
    p.set_defaults(func=_cmd_records, render=_render_encode, parser=p)

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
