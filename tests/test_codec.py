"""graph6 and edge-list codecs plus the JSON report serialisation."""

import json
import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdom import (
    THEOREMS,
    BadCharacterError,
    BadLengthError,
    BoundCheck,
    BoundReport,
    CodecError,
    EnumerationSpec,
    Graph,
    HeaderMismatchError,
    LocdomError,
    SizeLimitError,
    VertexRangeError,
    check_graph,
    enumerate_graphs,
    parse_edgelist,
    parse_graph6,
    report_lines,
    write_edgelist,
    write_graph6,
)
from locdom.cli import main
from locdom.codec import graph6_halves, parse_edgelist_stream, parse_graph6_stream
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
    # the order byte, an empty payload, a last byte with padding, and the
    # largest short-form records, empty, half full and complete
    rng = random.Random(62)
    for n in (0, 1, 2, 61, 62):
        pairs = list(combinations(range(n), 2))
        for edges in ([], [p for p in pairs if rng.random() < 0.5], pairs):
            gx = nx.empty_graph(n)
            gx.add_edges_from(edges)
            g6 = write_graph6(Graph(n, edges))
            assert g6 == nx.to_graph6_bytes(gx, header=False).decode().strip()
            assert parse_graph6(g6) == Graph(n, edges)


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


def test_graph6_halves_against_networkx():
    # the documented read: two table lookups on the halves of the mask, one add
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randrange(0, 9)
        pairs = list(combinations(range(n), 2))
        mask = rng.getrandbits(len(pairs))
        size, split, low, high = graph6_halves(n)
        g6 = (low[mask & (1 << split) - 1] + high[mask >> split]).to_bytes(size, "big").decode()
        gx = nx.empty_graph(n)
        gx.add_edges_from(p for k, p in enumerate(pairs) if mask >> k & 1)
        assert g6 == nx.to_graph6_bytes(gx, header=False).decode().strip(), (n, mask)


def test_graph6_halves_match_write_graph6_on_every_mask():
    # every mask with n <= 6, which covers n = 0, 1 and both half tables up
    # to n = 6, then seeded masks at n = 7 and 8, where the split between the
    # halves moves into the middle of a payload byte
    rng = random.Random(20261019)
    cases = [(n, mask) for n in range(7) for mask in range(1 << n * (n - 1) // 2)]
    cases += [(n, rng.getrandbits(n * (n - 1) // 2)) for n in (7, 8) for _ in range(2000)]
    for n, mask in cases:
        size, split, low, high = graph6_halves(n)
        g6 = (low[mask & (1 << split) - 1] + high[mask >> split]).to_bytes(size, "big").decode()
        assert g6 == write_graph6(Graph._from_mask(n, mask)), (n, mask)
        assert parse_graph6(g6) == Graph._from_mask(n, mask), (n, mask)


def test_nonzero_padding_bits_are_rejected(tmp_path, capsys):
    # each is a valid record (Bw is K3, A_ is K2, EhEG is C6) with its last
    # padding bit set
    for record in ("Bx", "A`", "EhEH"):
        with pytest.raises(BadCharacterError, match="padding"):
            parse_graph6(record)
    # every padding bit on its own, in the empty and the complete graph of
    # each order up to 7 whose record has padding (C(n, 2) not a multiple of 6)
    padded = {2: 5, 3: 3, 5: 2, 6: 3, 7: 3}
    assert padded == {n: -n * (n - 1) // 2 % 6 for n in range(8) if n * (n - 1) // 2 % 6}
    for n, count in padded.items():
        for g in (Graph(n), Graph(n, combinations(range(n), 2))):
            record = write_graph6(g)
            assert parse_graph6(record) == g
            for bit in range(count):
                # the bit is clear in a valid record, so adding it sets it
                flipped = record[:-1] + chr(ord(record[-1]) + (1 << bit))
                with pytest.raises(BadCharacterError, match="padding"):
                    parse_graph6(flipped)
    path = tmp_path / "padded.g6"
    path.write_text("Bx\n")
    assert main(["verify", "--theorem", "weld_half", "--in", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "padding" in err


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
    # the vertex count is capped before Graph allocates its per-vertex lists
    for n in ("99999999999999999999", "1000000000"):
        with pytest.raises(SizeLimitError):
            parse_edgelist(f"{n} 0")
    assert parse_edgelist("65536 0") == Graph(65536)


def test_edgelist_stream():
    graphs = [P3, Graph(4), Graph(2, [(0, 1)]), Graph(0), C6, Graph(1)]
    text = "".join(map(write_edgelist, graphs))
    assert list(parse_edgelist_stream(text.splitlines())) == graphs
    assert list(parse_edgelist_stream([" ".join(text.split())])) == graphs
    assert list(parse_edgelist_stream([])) == list(parse_edgelist_stream([" ", " "])) == []
    # two records are not one
    with pytest.raises(HeaderMismatchError):
        parse_edgelist("3 1\n0 1\n2 0\n")
    # a header cut short after a complete record
    with pytest.raises(HeaderMismatchError):
        list(parse_edgelist_stream(["3 1", "0 1", "4"]))
    # a record short of its declared edges, and a negative count
    with pytest.raises(HeaderMismatchError):
        list(parse_edgelist_stream(["2 0", "3 2", "0 1"]))
    with pytest.raises(HeaderMismatchError):
        list(parse_edgelist_stream(["2 0", "3 -1", "0 1"]))
    for bad in ("3 1\n0 1\n4 x\n0 1\n", "3 1\n0 1\nx 1\n0 1\n", "3 1\n0 y\n"):
        with pytest.raises(CodecError, match="non-integer"):
            list(parse_edgelist_stream(bad.splitlines()))
    with pytest.raises(VertexRangeError):
        list(parse_edgelist_stream(["2 0", "2 1", "0 5"]))
    # records may span lines and share them
    assert list(parse_edgelist_stream(["3", "2 0 1", "1 2 2 0"])) == [P3, Graph(2)]
    # a count too large for any slice still runs the record to the end
    with pytest.raises(HeaderMismatchError):
        list(parse_edgelist_stream(["3 99999999999999999999", "0 1"]))


def test_stream_readers_refuse_a_str():
    # a str iterates by character, so "0 12" would read as the tokens 0, 1, 2
    for read in (parse_graph6_stream, parse_edgelist_stream):
        with pytest.raises(TypeError, match="iterable of lines"):
            list(read("3 1\n0 12\n"))


def test_graph6_stream_parses_each_record_when_it_is_reached():
    stream = parse_graph6_stream(["EhEG", "", "  Bw ", "Bx"])
    assert next(stream) == C6
    assert next(stream) == K3  # the blank line is no record
    with pytest.raises(BadCharacterError, match="padding"):
        next(stream)
    assert list(parse_graph6_stream([">>graph6<<Bw", "Bg"])) == [K3, P3]
    assert list(parse_graph6_stream([])) == list(parse_graph6_stream([" ", "", " "])) == []


def test_edgelist_integers_are_ascii_decimals():
    # int() alone reads "1_1" as 11 and takes Arabic-Indic and fullwidth digits
    for bad in ("1_1", "\u0662", "\uff13"):
        with pytest.raises(CodecError, match="non-integer"):
            parse_edgelist(f"3 1\n0 {bad}")
        with pytest.raises(CodecError, match="non-integer"):
            parse_edgelist(f"{bad} 0")
    assert parse_edgelist("+3 1\n+0 2") == Graph(3, [(0, 2)])


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
        out = parse(text)
        graphs = [out] if isinstance(out, Graph) else list(out)  # a stream parses here
    except LocdomError:
        return
    assert all(isinstance(g, Graph) for g in graphs)


@FUZZ
@given(st.text())
def test_parsers_fuzz_arbitrary_text(text):
    # the contract is LocdomError, not CodecError: VertexRangeError,
    # SelfLoopError and DuplicateEdgeError are documented siblings of it
    _parses_or_raises_locdom_error(parse_graph6, text)
    _parses_or_raises_locdom_error(parse_edgelist, text)
    _parses_or_raises_locdom_error(parse_edgelist_stream, text.splitlines())
    _parses_or_raises_locdom_error(parse_graph6_stream, text.splitlines())


@FUZZ
@given(TOKENS)
def test_parsers_fuzz_token_lists(tokens):
    _parses_or_raises_locdom_error(parse_graph6, "".join(tokens))
    _parses_or_raises_locdom_error(parse_edgelist, " ".join(tokens))
    _parses_or_raises_locdom_error(parse_edgelist_stream, [" ".join(tokens)])
    _parses_or_raises_locdom_error(parse_graph6_stream, "\n".join(tokens).splitlines())


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


def test_report_lines_are_json_for_any_graph6_text():
    # not graph6, but a library caller may build such a report
    texts = ['a"b', "\x01", "é", "C\\"]
    reports = [BoundReport(text, 2, 1, None, "isolated_edge") for text in texts]
    assert [json.loads(line)["graph6"] for line in report_lines(reports)] == texts


def _per_record_json(rep):
    """The report line from one json.dumps of the whole record."""
    record = {"graph6": rep.graph6, "n": rep.n, "m": rep.m}
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
    return json.dumps(record)


def test_report_lines_matches_per_record_json():
    # K2 is skipped by weld_half and checked by ore_half at the same (n, m)
    graphs = [*enumerate_graphs(EnumerationSpec(4)), parse_graph6("D\\_"), Graph(2, [(0, 1)]), C6]
    stream = [check_graph(g, theorem) for g in graphs for theorem in THEOREMS]
    assert {"C\\", "D\\_"} <= {rep.graph6 for rep in stream}

    def c5_check(graph6, param, value, bound):
        return BoundReport(graph6, 5, 5, BoundCheck(param, value, bound, value <= bound), None)

    # equal (n, m, value); each differs from the first in parameter or bound only
    stream += [
        c5_check("Dhc", "eld", 2, Fraction(5, 2)),
        c5_check("DxC", "weld", 2, Fraction(5, 2)),
        c5_check("DxC", "eld", 2, Fraction(10, 3)),
        c5_check("Dhc", "eld", 2, Fraction(5, 3)),
        BoundReport("Dhc", 5, 5, None, "isolated_edge"),
        c5_check("D\\_", "eld", 2, Fraction(5, 2)),
    ]
    assert list(report_lines(stream)) == [_per_record_json(rep) for rep in stream]
