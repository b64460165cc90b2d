"""Text codecs: graph6 records, whitespace edge lists, JSON-line reports.

graph6 is the compact ASCII format used by the common graph tool chains:
one byte 63+n for the order, then the upper triangle of the adjacency
matrix read column by column, packed big-endian into 6-bit groups offset
by 63.  Only the short form (n <= 62) is supported; that is far beyond the
exhaustive range anyway.  A record is read as one integer with one byte
per 6-bit group, and one table per n gives each vertex pair's bit in it.
The writers add their edges' bits to the empty graph's record, which holds
the order byte and the 63 offsets; the parser subtracts the empty record,
keeps the pairs whose bit is set, and rejects any bit left over.  For an
edge mask, `graph6_halves` gives the record as two reads and an add, from
the `core.half_tables` of the pair bits with the empty record as base.

Both stream readers, `parse_graph6_stream` (one record per non-blank line)
and `parse_edgelist_stream`, take an iterable of lines, such as an open
file or `text.splitlines()`, and refuse a str.  They are generators that
parse a record when it is consumed, so a malformed one raises after the
records before it, and only the record being read is held in memory.

Reports are one JSON object per line with a fixed key order, so verification
output can be streamed, diffed bytewise, and split across shards.
"""

from __future__ import annotations

import json
import re
from array import array
from functools import lru_cache
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator

from .core import Graph, half_tables, pair_table
from .errors import (
    BadCharacterError,
    BadLengthError,
    CodecError,
    HeaderMismatchError,
    SizeLimitError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .verify import BoundReport

_HEADER = ">>graph6<<"
MAX_EDGELIST_VERTICES = 1 << 16  # caps the order and Graph's [0] * n lists, not its int bitsets


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 record; an optional format header is accepted."""
    s = line.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise BadLengthError("empty graph6 record")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise BadCharacterError(f"non-ASCII character in graph6 record: {exc}") from None
    for byte in data:
        if not 63 <= byte <= 126:
            raise BadCharacterError(f"byte {byte} outside graph6 range 63..126")
    if data[0] == 126:
        raise SizeLimitError("graph6 long form (n > 62) not supported")
    n = data[0] - 63
    size, empty, slots = _graph6_layout(n)
    if len(data) != size:
        raise BadLengthError(
            f"graph6 record for n={n} needs {size - 1} payload bytes, got {len(data) - 1}"
        )
    # every byte is at least 63, so no borrow crosses a byte
    x = int.from_bytes(data, "big") - empty
    pairs = tuple(pair for pair, bit in slots.items() if x & bit)
    if x != sum(map(slots.__getitem__, pairs)):
        raise BadCharacterError(f"graph6 record for n={n} has nonzero padding bits")
    return Graph._from_canonical(n, pairs)


def parse_graph6_stream(lines: Iterable[str]) -> Iterator[Graph]:
    """Decode one graph6 record per non-blank line, each as it is consumed."""
    if isinstance(lines, str):  # it would be read one character at a time
        raise TypeError("parse_graph6_stream takes an iterable of lines, not a str")
    for line in lines:
        if line.strip():
            yield parse_graph6(line)


def write_graph6(g: Graph) -> str:
    """Encode a graph as one short-form graph6 record."""
    if g.n > 62:
        raise SizeLimitError(f"graph6 short form caps at 62 vertices, got {g.n}")
    size, empty, slots = _graph6_layout(g.n)
    # each payload byte already holds its offset 63, so bits are added, not or-ed
    x = sum(map(slots.__getitem__, g.edges), empty)
    return x.to_bytes(size, "big").decode("ascii")


@lru_cache(maxsize=None)
def _graph6_layout(n: int) -> tuple[int, int, dict[tuple[int, int], int]]:
    """The byte count of an n-vertex record, the record of the empty graph
    on n vertices read as a big-endian integer, and the bit that each vertex
    pair (u, v), u < v, sets in that integer, keyed in pair_table(n) order:
    at its column-major position k = v(v-1)/2 + u, it is bit 5 - k % 6 of
    payload byte k // 6."""
    nbytes = (n * (n - 1) // 2 + 5) // 6
    slots = {}
    for u, v in pair_table(n):
        group, offset = divmod(v * (v - 1) // 2 + u, 6)
        slots[u, v] = 1 << 8 * (nbytes - 1 - group) + 5 - offset
    return 1 + nbytes, int.from_bytes(bytes([63 + n]) + b"?" * nbytes, "big"), slots


@lru_cache(maxsize=None)
def graph6_halves(n: int) -> tuple[int, int, array, array]:
    """The byte count of an n-vertex record and the (split, low, high) of
    `core.half_tables` that give an edge mask's record as one integer."""
    size, empty, slots = _graph6_layout(n)
    split, low, high = half_tables(slots.values(), empty)
    return size, split, array("Q", low), array("Q", high)  # records of n <= 8 fit 48 bits


def parse_edgelist(text: str) -> Graph:
    """Decode text that is exactly one edge-list record."""
    return _edgelist_record(text.split())


def parse_edgelist_stream(lines: Iterable[str]) -> Iterator[Graph]:
    """Decode a stream of edge-list records, each ended by its count m, as
    they are consumed; a record without a valid count runs to the end and
    fails its own checks.  Records may span lines and share them."""
    if isinstance(lines, str):  # it would be read one character at a time
        raise TypeError("parse_edgelist_stream takes an iterable of lines, not a str")
    tokens = (token for line in lines for token in line.split())
    for n in tokens:
        head = [n, *islice(tokens, 1)]  # 'n m', or what is left of it
        if len(head) == 2 and _is_int(head[1]):
            # zip takes no token past the range, which, unlike islice, takes any count
            yield _edgelist_record(head + [t for _, t in zip(range(2 * int(head[1])), tokens)])
        else:  # no valid count: the record runs to the end
            yield _edgelist_record(head + list(tokens))


def _edgelist_record(tokens: list[str]) -> Graph:
    """'n m' followed by m endpoint pairs, as whitespace-split tokens."""
    if len(tokens) < 2:
        raise HeaderMismatchError("edge list needs an 'n m' header")
    bad = next((t for t in tokens if not _is_int(t)), None)
    if bad is not None:
        raise CodecError(f"non-integer token {bad!r} in edge list")
    n, m, *body = map(int, tokens)
    if n > MAX_EDGELIST_VERTICES:
        raise SizeLimitError(f"edge list declares {n} vertices, over {MAX_EDGELIST_VERTICES}")
    if m < 0:
        raise HeaderMismatchError(f"negative edge count {m}")
    if len(body) != 2 * m:
        raise HeaderMismatchError(
            f"header declares {m} edges ({2 * m} endpoints) but body has {len(body)} tokens"
        )
    return Graph(n, list(zip(body[0::2], body[1::2])))


def _is_int(token: str) -> bool:
    """An optional sign and 1-4,300 digits 0-9: `int` also takes underscores and
    non-ASCII digits, and refuses more than CPython's 4,300-digit conversion limit."""
    return re.fullmatch("[+-]?[0-9]{1,4300}", token) is not None


def write_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def report_tail(rep: "BoundReport") -> str:
    """A report line after its graph6 value: n, m, then the verdict fields
    (param, value, bound and margin, or skipped_reason), and the closing brace.

    `bound` and `margin` are exact rationals written as strings, such as
    "10/3", "3" or "-1/3".
    """
    record = {"n": rep.n, "m": rep.m}
    chk = rep.check
    if chk is None:
        record["skipped_reason"] = rep.skipped_reason
    else:
        record.update(
            param=chk.parameter,
            value=chk.value,
            bound=str(chk.bound),
            margin=str(chk.bound - chk.value),
        )
    return ", " + json.dumps(record)[1:]


def report_lines(reports: Iterable["BoundReport"]) -> Iterator[str]:
    """One JSON object per report, without its newline: graph6, then
    report_tail.

    Key order is fixed so equal runs produce bytewise equal output.  graph6
    goes through `json.dumps`, so any string gives a valid JSON line.
    """
    for rep in reports:
        yield '{"graph6": ' + json.dumps(rep.graph6) + report_tail(rep)
