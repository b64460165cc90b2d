"""Text codecs: graph6 records, whitespace edge lists, JSON-line reports.

graph6 is the compact ASCII format used by the common graph tool chains:
one byte 63+n for the order, then the upper triangle of the adjacency
matrix read column by column, packed big-endian into 6-bit groups offset
by 63.  Only the short form (n <= 62) is supported; that is far beyond the
exhaustive range anyway.  A record is read as one integer with one byte
per 6-bit group, and one table per n gives each vertex pair's bit in it.
The writers add their edges' bits to the empty graph's record, which holds
the order byte and the 63 offsets (`mask_graph6` adds one precomputed sum
of table bits per byte of its edge mask); the parser subtracts the empty
record, keeps the pairs whose bit is set, and rejects any bit left over.

Both stream readers, `parse_graph6_stream` (one record per non-blank line)
and `parse_edgelist_stream`, are generators that parse a record when it is
consumed, so a malformed one raises after the records before it.

Reports are one JSON object per line with a fixed key order, so verification
output can be streamed, diffed bytewise, and split across shards.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator

from .core import Graph, pair_table
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


def parse_graph6_stream(text: str) -> Iterator[Graph]:
    """Decode one graph6 record per non-blank line, each as it is consumed."""
    for line in text.splitlines():
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


def mask_graph6(n: int, mask: int) -> str:
    """graph6 of the graph whose edges are the set bits of mask, bit k
    standing for pair k of pair_table(n).

    Lets a caller that holds only an edge mask skip building a Graph.
    """
    size, tables = _graph6_tables(n)
    x = 0
    for table in tables:
        x += table[mask & 255]
        mask >>= 8
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
def _graph6_tables(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The byte count of an n-vertex record and, per byte of an edge mask,
    the record bits of its 256 values.  The first table also holds the
    empty graph's record, so one value from each table adds up to a record."""
    size, empty, slots = _graph6_layout(n)
    bits = list(slots.values())
    return size, tuple(
        tuple(
            sum(
                (bit for k, bit in enumerate(bits[low:low + 8]) if value >> k & 1),
                0 if low else empty,
            )
            for value in range(256)
        )
        for low in range(0, max(len(bits), 1), 8)  # n <= 1 still needs the first
    )


def parse_edgelist(text: str) -> Graph:
    """Decode text that is exactly one edge-list record."""
    return _edgelist_record(text.split())


def parse_edgelist_stream(text: str) -> Iterator[Graph]:
    """Decode a stream of edge-list records, each ended by its count m, as
    they are consumed; a record without a valid count runs to the end and
    fails its own checks."""
    tokens = text.split()
    pos = 0
    while pos < len(tokens):
        m = tokens[pos + 1:pos + 2]
        end = pos + 2 + 2 * max(0, int(m[0])) if m and _is_int(m[0]) else len(tokens)
        yield _edgelist_record(tokens[pos:end])
        pos = end


def _edgelist_record(tokens: list[str]) -> Graph:
    """'n m' followed by m endpoint pairs, as whitespace-split tokens."""
    if len(tokens) < 2:
        raise HeaderMismatchError("edge list needs an 'n m' header")
    bad = next((t for t in tokens if not _is_int(t)), None)
    if bad is not None:
        raise CodecError(f"non-integer token {bad!r} in edge list")
    n, m, *body = map(int, tokens)
    if m < 0:
        raise HeaderMismatchError(f"negative edge count {m}")
    if len(body) != 2 * m:
        raise HeaderMismatchError(
            f"header declares {m} edges ({2 * m} endpoints) but body has {len(body)} tokens"
        )
    return Graph(n, list(zip(body[0::2], body[1::2])))


def _is_int(token: str) -> bool:
    """An optional sign and the digits 0-9: `int` alone would also take
    underscores and non-ASCII digits."""
    return re.fullmatch("[+-]?[0-9]+", token) is not None


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
