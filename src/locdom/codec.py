"""Text codecs: graph6 records, whitespace edge lists, JSON-line reports.

graph6 is the compact ASCII format used by the common graph tool chains:
one byte 63+n for the order, then the upper triangle of the adjacency
matrix read column by column, packed big-endian into 6-bit groups offset
by 63.  Only the short form (n <= 62) is supported; that is far beyond the
exhaustive range anyway.

Reports are one JSON object per line with a fixed key order, so verification
output can be streamed, diffed bytewise, and split across shards.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator

from .core import Graph
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
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[1:]
    if len(body) != nbytes:
        raise BadLengthError(
            f"graph6 record for n={n} needs {nbytes} payload bytes, got {len(body)}"
        )
    x = 0
    for byte in body:
        x = (x << 6) | (byte - 63)
    total = 6 * nbytes
    pairs = []
    t = 0
    for j in range(1, n):
        for i in range(j):
            if (x >> (total - 1 - t)) & 1:
                pairs.append((i, j))
            t += 1
    return Graph(n, pairs)


def write_graph6(g: Graph) -> str:
    """Encode a graph as one short-form graph6 record."""
    if g.n > 62:
        raise SizeLimitError(f"graph6 short form caps at 62 vertices, got {g.n}")
    n = g.n
    nbits = n * (n - 1) // 2
    x = 0
    for j in range(1, n):
        col = g.vadj[j]
        for i in range(j):
            x = (x << 1) | ((col >> i) & 1)
    x <<= (-nbits) % 6
    return _pack_graph6(n, x)


def mask_graph6(n: int, mask: int) -> str:
    """graph6 of the graph whose edges are the set bits of mask, bit k
    standing for the k-th vertex pair (u, v), u < v, in lexicographic order.

    Lets a caller that holds only an edge mask skip building a Graph.
    """
    x = 0
    for table in _graph6_tables(n):
        x |= table[mask & 255]
        mask >>= 8
    return _pack_graph6(n, x)


@lru_cache(maxsize=None)
def _graph6_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """Per byte of an edge mask, the padded graph6 payload bits of its 256 values."""
    nbits = n * (n - 1) // 2
    top = 6 * ((nbits + 5) // 6) - 1
    slots = [1 << (top - (v * (v - 1) // 2 + u)) for u in range(n) for v in range(u + 1, n)]
    return tuple(
        tuple(
            sum(slot for k, slot in enumerate(slots[low:low + 8]) if value >> k & 1)
            for value in range(256)
        )
        for low in range(0, nbits, 8)
    )


def _pack_graph6(n: int, x: int) -> str:
    """The order byte, then x read big-endian in 6-bit groups, each offset by 63."""
    nbytes = (n * (n - 1) // 2 + 5) // 6
    return chr(63 + n) + "".join(
        [chr(63 + ((x >> (6 * k)) & 63)) for k in range(nbytes - 1, -1, -1)]
    )


def parse_edgelist(text: str) -> Graph:
    """Decode 'n m' followed by m whitespace-separated endpoint pairs."""
    tokens = text.split()
    if len(tokens) < 2:
        raise HeaderMismatchError("edge list needs an 'n m' header")
    try:
        nums = [int(t) for t in tokens]
    except ValueError:
        bad = next(t for t in tokens if not _is_int(t))
        raise CodecError(f"non-integer token {bad!r} in edge list") from None
    n, m = nums[0], nums[1]
    if m < 0:
        raise HeaderMismatchError(f"negative edge count {m}")
    body = nums[2:]
    if len(body) != 2 * m:
        raise HeaderMismatchError(
            f"header declares {m} edges ({2 * m} endpoints) but body has {len(body)} tokens"
        )
    return Graph(n, list(zip(body[0::2], body[1::2])))


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def write_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def report_lines(reports: Iterable["BoundReport"]) -> Iterator[str]:
    """One JSON object per report: its bound check, or its skip reason.

    Key order is fixed (graph6, n, m, then the verdict fields) so equal runs
    produce bytewise equal output.  `bound` and `margin` are exact rationals
    written as strings, such as "10/3", "3" or "-1/3".

    Members of an isomorphism class share their verdict and differ only in
    graph6, so each distinct verdict's tail (everything after graph6) is
    rendered once per call and reused.  The memo is keyed on plain values,
    not on the BoundCheck, whose hash and equality run in Python.
    """
    tails: dict[tuple, str] = {}
    for rep in reports:
        chk = rep.check
        if chk is None:
            key = (rep.n, rep.m, rep.skipped_reason)
        else:
            bound = chk.bound
            key = (rep.n, rep.m, chk.parameter, chk.value, bound.numerator, bound.denominator)
        tail = tails.get(key)
        if tail is None:
            record = {"n": rep.n, "m": rep.m}
            if chk is None:
                record["skipped_reason"] = rep.skipped_reason
            else:
                record.update(
                    param=chk.parameter,
                    value=chk.value,
                    bound=str(chk.bound),
                    margin=str(chk.bound - chk.value),
                )
            tail = tails[key] = ", " + json.dumps(record)[1:]
        yield '{"graph6": ' + json.dumps(rep.graph6) + tail
