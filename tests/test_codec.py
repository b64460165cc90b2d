"""graph6 and edge-list codecs plus the JSON report serialisation."""

import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdom import (
    BadCharacterError,
    BadLengthError,
    BoundCheck,
    BoundReport,
    CodecError,
    Graph,
    HeaderMismatchError,
    LocdomError,
    SizeLimitError,
    VertexRangeError,
    check_graph,
    parse_edgelist,
    parse_graph6,
    report_lines,
    write_edgelist,
    write_graph6,
)
from locdom.codec import mask_graph6
from conftest import random_graph, random_graph_capped

K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
P3 = Graph(3, [(0, 1), (1, 2)])
C6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])


def test_parse_known_records():
    assert parse_graph6("Bw") == K3
    assert parse_graph6("Bg") == P3
    assert parse_graph6("A_") == Graph(2, [(0, 1)])
    assert parse_graph6("A?") == Graph(2)
    assert parse_graph6("@") == Graph(1)
    assert parse_graph6("?") == Graph(0)
    assert parse_graph6("EhEG") == C6


def test_write_known_records():
    assert write_graph6(K3) == "Bw"
    assert write_graph6(P3) == "Bg"
    assert write_graph6(Graph(2, [(0, 1)])) == "A_"
    assert write_graph6(Graph(0)) == "?"
    assert write_graph6(C6) == "EhEG"


def test_header_is_accepted():
    assert parse_graph6(">>graph6<<Bw") == K3
    assert parse_graph6("  EhEG\n") == C6


def test_parse_errors():
    with pytest.raises(BadLengthError):
        parse_graph6("")
    with pytest.raises(BadLengthError):
        parse_graph6("   ")
    with pytest.raises(BadLengthError):
        parse_graph6("E??")  # n=6 needs 3 payload bytes
    with pytest.raises(BadLengthError):
        parse_graph6("Bww")
    with pytest.raises(BadCharacterError):
        parse_graph6("B\x01")
    with pytest.raises(BadCharacterError):
        parse_graph6("Bé")
    with pytest.raises(SizeLimitError):
        parse_graph6("~??")


def test_write_size_cap():
    with pytest.raises(SizeLimitError):
        write_graph6(Graph(63))
    assert parse_graph6(write_graph6(Graph(62))) == Graph(62)


def test_alphabet_stays_printable():
    rng = random.Random(99)
    for _ in range(50):
        g = random_graph_capped(rng, rng.randrange(0, 30))
        assert all(63 <= ord(ch) <= 126 for ch in write_graph6(g))


def test_roundtrip_against_networkx():
    rng = random.Random(20260825)
    for _ in range(300):
        n = rng.randrange(0, 21)
        g = random_graph_capped(rng, n)
        mine = write_graph6(g)
        gx = nx.empty_graph(n)
        gx.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(gx, header=False).decode().strip()
        assert mine == theirs
        back = parse_graph6(theirs)
        assert back == g
        from_theirs = nx.from_graph6_bytes(mine.encode())
        assert sorted(from_theirs.edges()) == list(g.edges)


def test_mask_graph6_against_networkx():
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randrange(0, 21)
        pairs = list(combinations(range(n), 2))
        mask = rng.getrandbits(len(pairs))
        gx = nx.empty_graph(n)
        gx.add_edges_from(p for k, p in enumerate(pairs) if mask >> k & 1)
        assert mask_graph6(n, mask) == nx.to_graph6_bytes(gx, header=False).decode().strip()


def test_edgelist_roundtrip():
    text = write_edgelist(C6)
    assert text.splitlines()[0] == "6 6"
    assert parse_edgelist(text) == C6
    assert parse_edgelist("3 2\n2 1\n0 1\n") == P3
    assert parse_edgelist("  4   0  ") == Graph(4)
    rng = random.Random(4)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(0, 12), rng.random())
        assert parse_edgelist(write_edgelist(g)) == g


def test_edgelist_errors():
    with pytest.raises(HeaderMismatchError):
        parse_edgelist("")
    with pytest.raises(HeaderMismatchError):
        parse_edgelist("5")
    with pytest.raises(HeaderMismatchError):
        parse_edgelist("3 2\n0 1")  # declares 2 edges, provides 1
    with pytest.raises(HeaderMismatchError):
        parse_edgelist("3 -1")
    with pytest.raises(CodecError):
        parse_edgelist("3 one\n0 1")
    with pytest.raises(VertexRangeError):
        parse_edgelist("2 1\n0 5")


FUZZ = settings(max_examples=200, derandomize=True, database=None)
TOKENS = st.lists(
    st.one_of(
        st.integers(-3, 70).map(str),
        st.text(alphabet=[chr(c) for c in range(60, 128)], max_size=4),
        st.sampled_from(["", "x", "1.5", "+4", "1_0", "\u0663", ">>graph6<<"]),
    ),
    max_size=16,
)


def _parses_or_raises_locdom_error(parse, text):
    try:
        g = parse(text)
    except LocdomError:
        return
    assert isinstance(g, Graph)


@FUZZ
@given(st.text())
def test_parsers_fuzz_arbitrary_text(text):
    # the contract is LocdomError, not CodecError: VertexRangeError,
    # SelfLoopError and DuplicateEdgeError are documented siblings of it
    _parses_or_raises_locdom_error(parse_graph6, text)
    _parses_or_raises_locdom_error(parse_edgelist, text)


@FUZZ
@given(TOKENS)
def test_parsers_fuzz_token_lists(tokens):
    _parses_or_raises_locdom_error(parse_graph6, "".join(tokens))
    _parses_or_raises_locdom_error(parse_edgelist, " ".join(tokens))


def test_report_check_line_format():
    rep = check_graph(C6, "weld_half")
    lines = list(report_lines([rep]))
    assert lines == [
        '{"graph6": "EhEG", "n": 6, "m": 6, "param": "weld", '
        '"value": 3, "bound": "3", "margin": "0"}'
    ]


def test_report_skip_line_format():
    rep = check_graph(Graph(2, [(0, 1)]), "weld_half")
    assert list(report_lines([rep])) == [
        '{"graph6": "A_", "n": 2, "m": 1, "skipped_reason": "isolated_edge"}'
    ]


def test_report_fractional_bound_serialisation():
    chk = BoundCheck(parameter="eltd", value=3, bound=Fraction(10, 3), holds=True)
    rep = BoundReport(graph6="X", n=5, m=5, check=chk, skipped_reason=None)
    (line,) = report_lines([rep])
    assert '"bound": "10/3"' in line
    assert '"margin": "1/3"' in line
