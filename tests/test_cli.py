"""End-to-end coverage of every subcommand and exit code."""

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from itertools import chain
from pathlib import Path

import pytest

from locdom import (
    THEOREMS,
    EnumerationSpec,
    TheoremSummary,
    canonical_form,
    enumerate_graphs,
    iter_reports,
    named_graph,
    parse_graph6,
    report_lines,
    spider_weld_tree,
    write_graph6,
)
from locdom import verify
from locdom.cli import main

# The environment of `python -m locdom.cli` subprocesses: pytest's own
# `pythonpath` setting changes only its sys.path, so src goes on PYTHONPATH.
SRC = str(Path(__file__).resolve().parents[1] / "src")
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def run_cli(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_solve_from_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "graphs.g6"
    path.write_text("EhEG\n")
    rc, out, err = run_cli(capsys, monkeypatch, ["solve", "--param", "eltd", "--in", str(path)])
    assert rc == 0
    assert out == "4 0-1 0-5 1-2 2-3\n"
    assert err == ""


def test_solve_from_stdin_multiple_records(capsys, monkeypatch):
    rc, out, _ = run_cli(capsys, monkeypatch, ["solve", "--param", "ld"], stdin="Bw\nBg\n")
    assert rc == 0
    assert out.splitlines() == ["2 0 1", "2 0 1"]


def test_solve_accepts_long_alias(capsys, monkeypatch):
    rc, out, _ = run_cli(
        capsys, monkeypatch, ["solve", "--param", "edge_loc_total_dom"], stdin="EhEG\n"
    )
    assert rc == 0
    assert out.startswith("4 ")


def test_solve_vertex_parameter_prints_vertex_ids(capsys, monkeypatch):
    rc, out, _ = run_cli(capsys, monkeypatch, ["solve", "--param", "tdom"], stdin="Bg\n")
    assert rc == 0
    assert out == "2 0 1\n"


def test_solve_infeasible_exits_one(capsys, monkeypatch):
    rc, out, err = run_cli(capsys, monkeypatch, ["solve", "--param", "eltd"], stdin="A_\n")
    assert rc == 1
    assert out == ""
    assert "isolated_edge" in err


@pytest.mark.parametrize(
    "command",
    (["solve", "--param", "dom"], ["verify", "--theorem", "weld_half"]),
    ids=("solve", "verify"),
)
@pytest.mark.parametrize(
    "kind, code, message",
    (
        ("missing", 2, "cannot read --in"),
        ("directory", 2, "cannot read --in"),
        ("non_utf8", 1, "error: non-ASCII character"),
    ),
    ids=("missing", "directory", "non_utf8"),
)
def test_unreadable_input_file_exits_without_traceback(tmp_path, command, kind, code, message):
    # A path that cannot be read is a usage error; bytes that are not UTF-8
    # reach the graph6 parser, which rejects them as bad characters.
    paths = {
        "missing": tmp_path / "absent.g6",
        "directory": tmp_path,
        "non_utf8": tmp_path / "bytes.g6",
    }
    paths["non_utf8"].write_bytes(b"\xff\xfe\n")
    proc = subprocess.run(
        [sys.executable, "-m", "locdom.cli", *command, "--in", str(paths[kind])],
        capture_output=True,
        text=True,
        env=CLI_ENV,
        timeout=60,
    )
    assert proc.returncode == code
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_undecodable_stdin_exits_without_traceback():
    # Under a strict stdin error handler the bytes still reach the parser.
    proc = subprocess.run(
        [sys.executable, "-m", "locdom.cli", "solve", "--param", "dom"],
        input=b"\xff\xfe\n",
        capture_output=True,
        env={**CLI_ENV, "PYTHONIOENCODING": "utf-8:strict"},
        timeout=60,
    )
    assert proc.returncode == 1
    assert b"error: non-ASCII character" in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b""


@pytest.mark.parametrize(
    "command, first",
    (
        (["solve", "--param", "dom"], "2 0 3\n"),
        (
            ["verify", "--theorem", "weld_half"],
            '{"graph6": "EhEG", "n": 6, "m": 6, "param": "weld", "value": 3,'
            ' "bound": "3", "margin": "0"}\n',
        ),
    ),
    ids=("solve", "verify"),
)
def test_records_before_a_malformed_one_are_output(tmp_path, command, first):
    # records are parsed as they are reached, so C6 is answered before the
    # padding bit of the next record stops the run; verify writes no summary
    path = tmp_path / "graphs.g6"
    path.write_text("EhEG\nBx\n")
    proc = subprocess.run(
        [sys.executable, "-m", "locdom.cli", *command, "--in", str(path)],
        capture_output=True,
        text=True,
        env=CLI_ENV,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == first
    assert "padding" in proc.stderr
    assert "Traceback" not in proc.stderr


# six records cut by \r\n, \r, form feed, NEL and LINE SEPARATOR, each a
# line break of str.splitlines; the answers were recorded from a reader that
# took the whole text and split it with splitlines
SEPARATED = b"EhEG\r\nBw\rBg\x0cCl\xc2\x85C^\xe2\x80\xa8A_\n"
SEPARATED_DOM = "2 0 3\n1 0\n1 1\n2 0 1\n1 2\n1 0\n"


@pytest.mark.parametrize("source", ("pipe", "file", "text"))
def test_records_end_at_every_splitlines_break(tmp_path, capsys, monkeypatch, source):
    argv = ["solve", "--param", "dom"]
    if source == "text":  # a stdin without a byte buffer
        rc, out, err = run_cli(capsys, monkeypatch, argv, stdin=SEPARATED.decode())
    else:
        path = tmp_path / "graphs.g6"
        path.write_bytes(SEPARATED)
        proc = subprocess.run(
            [sys.executable, "-m", "locdom.cli", *argv]
            + (["--in", str(path)] if source == "file" else []),
            input=SEPARATED if source == "pipe" else b"",
            capture_output=True,
            env=CLI_ENV,
            timeout=60,
        )
        rc, out, err = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
    assert (rc, out, err) == (0, SEPARATED_DOM, "")


@pytest.mark.parametrize("source", ("pipe", "file"))
def test_a_utf8_sequence_cut_short_at_the_end_is_a_bad_character(tmp_path, source):
    # the decoder is told where the input ends, so the lone lead byte is not dropped
    path = tmp_path / "graphs.g6"
    path.write_bytes(b"Bw\n\xe2")
    proc = subprocess.run(
        [sys.executable, "-m", "locdom.cli", "solve", "--param", "dom"]
        + (["--in", str(path)] if source == "file" else []),
        input=path.read_bytes() if source == "pipe" else b"",
        capture_output=True,
        env=CLI_ENV,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == b"1 0\n"
    assert b"error: non-ASCII character" in proc.stderr
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("text", ("EhEG\n", "EhEG\nBx\n"), ids=("valid", "malformed"))
@pytest.mark.parametrize(
    "command",
    (["solve", "--param", "dom"], ["verify", "--theorem", "weld_half"]),
    ids=("solve", "verify"),
)
def test_input_file_is_closed_when_the_command_returns(
    tmp_path, capsys, monkeypatch, command, text
):
    path = tmp_path / "graphs.g6"
    path.write_text(text)
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr("locdom.cli.open", recording_open, raising=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _, _ = run_cli(capsys, monkeypatch, [*command, "--in", str(path)])
        gc.collect()
    assert rc == (0 if text == "EhEG\n" else 1)
    assert len(opened) == 1 and opened[0].closed
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_solve_unknown_parameter_is_usage_error(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--param", "gamma"])
    assert exc.value.code == 2
    assert "invalid choice: 'gamma'" in capsys.readouterr().err


def test_twins_json(capsys, monkeypatch):
    g6 = write_graph6(named_graph("C4"))
    rc, out, _ = run_cli(capsys, monkeypatch, ["twins"], stdin=g6 + "\n")
    assert rc == 0
    assert json.loads(out) == {
        "open_vertex_pairs": [[0, 2], [1, 3]],
        "closed_vertex_pairs": [],
        "open_edge_pairs": [["0-1", "2-3"], ["0-3", "1-2"]],
        "closed_edge_pairs": [],
    }


def test_linegraph_emits_graph6(capsys, monkeypatch):
    g6 = write_graph6(named_graph("P4"))
    rc, out, _ = run_cli(capsys, monkeypatch, ["linegraph"], stdin=g6 + "\n")
    assert rc == 0
    assert out == "Bg\n"


def test_gen_families(capsys, monkeypatch):
    rc, out, _ = run_cli(capsys, monkeypatch, ["gen", "--family", "named", "C6"])
    assert rc == 0 and out == "EhEG\n"
    rc, out, _ = run_cli(capsys, monkeypatch, ["gen", "--family", "spider", "2", "1"])
    assert rc == 0
    assert out.strip() == write_graph6(spider_weld_tree(2, 1))
    rc, out, _ = run_cli(capsys, monkeypatch, ["gen", "--family", "substar", "2"])
    assert rc == 0
    rc, out, _ = run_cli(capsys, monkeypatch, ["gen", "--family", "named", "K_{1,3}"])
    assert rc == 0


def test_gen_usage_errors(capsys, monkeypatch):
    for argv, cause in (
        (["spider", "1"], "needs two integer leg counts"),
        (["spider", "a", "b"], "needs two integer leg counts"),
        (["substar"], "needs one integer leg count"),
        (["substar", "x"], "needs one integer leg count"),
        (["named"], "needs one graph name"),
        (["wheel", "4"], "invalid choice: 'wheel'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", *argv])
        assert exc.value.code == 2
        assert cause in capsys.readouterr().err, argv


def test_integer_arguments_are_ascii_decimals(capsys, monkeypatch):
    encode = ["encode", "--from", "edgelist", "--to", "graph6"]
    # "9" * 5000 is past int()'s 4,300-digit limit
    for bad in ("1_1", "\u0662", "\uff13", "9" * 5000):
        for stdin in (f"3 1\n0 {bad}\n", f"3 {bad}\n0 1\n"):
            rc, out, err = run_cli(capsys, monkeypatch, encode, stdin=stdin)
            assert (rc, out) == (1, "") and "non-integer" in err
        for argv, cause in (
            (["gen", "--family", "spider", bad, "0"], "needs two integer leg counts"),
            (["gen", "--family", "substar", bad], "needs one integer leg count"),
            (["verify", "--theorem", "weld_half", "--max-n", bad], "--max-n needs an integer"),
            (
                ["verify", "--theorem", "weld_half", "--shard", f"0/{bad}"],
                "shard must look like 'i/t'",
            ),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert cause in capsys.readouterr().err, argv


def test_gen_domain_errors_exit_one(capsys, monkeypatch):
    rc, out, err = run_cli(capsys, monkeypatch, ["gen", "--family", "substar", "1"])
    assert rc == 1 and out == "" and err.startswith("error:")
    # orders and sizes past the cap are refused before anything is built
    for argv in (
        ["named", "P100000000000"],
        ["named", "K100000"],
        ["substar", "100000000000"],
        ["spider", "1", "100000000000"],
    ):
        rc, out, err = run_cli(capsys, monkeypatch, ["gen", "--family", *argv])
        assert (rc, out) == (1, "") and err.count("\n") == 1, argv
        assert err.startswith("error:") and "over the cap" in err, argv
    # names take ASCII digits only, as every other integer input does
    for name in ("petersen", "P\u0662", "K1,\uff13", "P" + "9" * 5000, "K1," + "9" * 5000):
        rc, _, err = run_cli(capsys, monkeypatch, ["gen", "--family", "named", name])
        assert rc == 1 and "unknown graph name" in err, name


def test_verify_small_sweep(capsys, monkeypatch):
    rc, out, _ = run_cli(capsys, monkeypatch, ["verify", "--theorem", "weld_half", "--max-n", "4"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 45  # 43 checks + 1 skip + 1 summary
    assert json.loads(lines[-1]) == {
        "theorem": "weld_half",
        "checked": 43,
        "skipped": {"isolated_edge": 1},
        "violations": [],
    }
    assert sum(1 for ln in lines[:-1] if "skipped_reason" in ln) == 1


def test_verify_from_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "graphs.g6"
    path.write_text("EhEG\nA_\n")
    rc, out, _ = run_cli(
        capsys, monkeypatch, ["verify", "--theorem", "weld_half", "--in", str(path)]
    )
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    summary = json.loads(lines[-1])
    assert summary["checked"] == 1
    assert summary["skipped"] == {"isolated_edge": 1}


def test_verify_census_ignores_piped_stdin():
    # Without --in, verify runs its --max-n census and leaves stdin unread;
    # --in /dev/stdin is the way to check piped graphs.
    argv = [sys.executable, "-m", "locdom.cli", "verify", "--theorem", "obs1"]

    def run(extra, stdin):
        proc = subprocess.run(
            argv + extra, input=stdin, capture_output=True, text=True, env=CLI_ENV, timeout=60
        )
        assert proc.returncode == 0 and proc.stderr == ""
        return proc.stdout

    census = run(["--max-n", "3"], "")
    assert run(["--max-n", "3"], "G~~~~{\n") == census
    assert json.loads(census.splitlines()[-1])["checked"] == 6  # 1 + 1 + 4 labeled
    piped = run(["--in", "/dev/stdin"], "G~~~~{\n").splitlines()
    assert [json.loads(line)["graph6"] for line in piped[:-1]] == ["G~~~~{"]


def test_verify_include_disconnected(capsys, monkeypatch):
    rc, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["verify", "--theorem", "weld_half", "--max-n", "3", "--include-disconnected"],
    )
    assert rc == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["checked"] == 7
    assert summary["skipped"] == {"isolated_edge": 4}


def test_verify_shards_partition(capsys, monkeypatch):
    def collect(argv):
        rc, out, _ = run_cli(capsys, monkeypatch, argv)
        assert rc == 0
        lines = out.splitlines()
        return lines[:-1], json.loads(lines[-1])

    base = ["verify", "--theorem", "weld_half", "--max-n", "4"]
    whole, whole_summary = collect(base)
    part0, summary0 = collect(base + ["--shard", "0/2"])
    part1, summary1 = collect(base + ["--shard", "1/2"])
    assert sorted(part0 + part1) == sorted(whole)
    assert summary0["checked"] + summary1["checked"] == whole_summary["checked"]


@pytest.mark.parametrize("theorem", THEOREMS)
def test_verify_enumeration_matches_per_graph_reports(theorem, tmp_path, capsys, monkeypatch):
    # The CLI solves each isomorphism class once; the per-graph path is the oracle.
    # The second pass fails every checked graph with m = 3, a set closed under
    # isomorphism, so the census must check each member of a failing class on
    # its own: its violations are the stream's m = 3 checks, in stream order.
    # Each unsharded census's graph6 column, read back through --in, gives the
    # same stdout and exit code.
    real_check = verify.check_graph

    def fail_size_three(g, theorem):
        report = real_check(g, theorem)
        if g.m == 3 and report.check is not None:
            return report._replace(check=report.check._replace(holds=False))
        return report

    for check in (real_check, fail_size_three):
        monkeypatch.setattr("locdom.verify.check_graph", check)
        for disconnected in (False, True):
            for shard in ((0, 1), (0, 3), (1, 3), (2, 3)):
                argv = ["verify", "--theorem", theorem, "--max-n", "5", "--shard", "%d/%d" % shard]
                if disconnected:
                    argv.append("--include-disconnected")
                rc, out, _ = run_cli(capsys, monkeypatch, argv)
                summary = TheoremSummary(theorem)
                graphs = chain.from_iterable(
                    enumerate_graphs(EnumerationSpec(n, not disconnected, shard=shard))
                    for n in range(1, 6)
                )
                want = "".join(report_lines(iter_reports(graphs, summary)))
                case = (theorem, check.__name__, disconnected, shard)
                assert out == want + summary.to_json() + "\n", case
                *records, census = map(json.loads, out.splitlines())
                failing = [
                    r["graph6"] for r in records
                    if check is fail_size_three and r["m"] == 3 and "param" in r
                ]
                assert census["violations"] == failing, case
                assert rc == (3 if failing else 0), case
                if shard == (0, 1):
                    path = tmp_path / "census.g6"
                    path.write_text("".join(r["graph6"] + "\n" for r in records))
                    argv = ["verify", "--theorem", theorem, "--in", str(path)]
                    assert run_cli(capsys, monkeypatch, argv)[:2] == (rc, out), case


def test_verify_usage_errors(tmp_path, capsys, monkeypatch):
    path = tmp_path / "graphs.g6"
    path.write_text("EhEG\n")
    bad_argvs = (
        ["verify", "--theorem", "weld_half", "--in", str(path), "--shard", "0/2"],
        ["verify", "--theorem", "weld_half", "--in", str(path), "--shard", "0/1"],
        ["verify", "--theorem", "weld_half", "--in", str(path), "--max-n", "3"],
        ["verify", "--theorem", "weld_half", "--in", str(path), "--include-disconnected"],
        ["verify", "--theorem", "weld_half", "--max-n", "0"],
        ["verify", "--theorem", "weld_half", "--max-n", "9"],
        ["verify", "--theorem", "weld_half", "--max-n", "x"],
        ["verify", "--theorem", "weld_half", "--shard", "3/2"],
        ["verify", "--theorem", "weld_half", "--shard", "nope"],
        ["verify", "--theorem", "no_such"],
        ["verify"],
    )
    for argv in bad_argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


# sha256 of the concatenated stdout of `verify --theorem T ...` over THEOREMS
# in order, recorded before the theorems were declared as one table.
PINNED_MAX_N_5 = "0c223955c79b98448174770cc29d121cb26e6f9d2861406a5ba2a3471391a6ed"
PINNED_IN_FILE = "9bf459c351ea8bfef8d5c8ba7c49eae3d6709ff46369a59849d4d44cf110f031"
# recorded before the census stream rendered each class's line tail once
PINNED_MAX_N_6 = "c5bf08ebd11a8bd72f2110612e68a1e20bb3c0482d802fd9a2eb5e513b10f83b"


def test_verify_output_of_every_theorem_is_pinned(tmp_path, capsys, monkeypatch):
    path = tmp_path / "graphs.g6"
    path.write_text("?\n@\nA?\nA_\nBw\nEhEG\nDQo\nG~~~~{\n")
    runs = (
        (["--max-n", "5"], PINNED_MAX_N_5),
        (["--in", str(path)], PINNED_IN_FILE),
        ([], PINNED_MAX_N_6),  # the census runs to n = 6 without --max-n
    )
    for options, pinned in runs:
        outs = []
        for theorem in THEOREMS:
            rc, out, _ = run_cli(capsys, monkeypatch, ["verify", "--theorem", theorem, *options])
            assert rc == 0
            outs.append(out)
        assert hashlib.sha256("".join(outs).encode()).hexdigest() == pinned, options


# sha256 of `verify --theorem weld_half --max-n 6` stdout, recorded before the
# class tables were kept across censuses
PINNED_WELD_HALF_6 = "83c136f3c9070a1c13220159924b8ec7df9938984884bc05afb8445b2a236e15"


# Three censuses in one process; prints each one's exit code and stdout hash,
# then how many class tables the process built.
REPEAT_SCRIPT = """
import contextlib, hashlib, io, json
from locdom import verify
from locdom.cli import main
runs = []
for theorem in ("weld_half", "obs1", "weld_half"):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(["verify", "--theorem", theorem, "--max-n", "6"])
    runs.append([rc, hashlib.sha256(out.getvalue().encode()).hexdigest()])
print(json.dumps([runs, verify._class_table.cache_info().misses]))
"""


def test_verify_repeats_in_one_process_are_identical():
    # Several censuses in one process, as the benchmark's census runs them:
    # the first builds each order's class table, and later ones, another
    # theorem between them, read the same tables and write the same bytes.
    # A fresh interpreter starts with no table, and this one keeps its own.
    proc = subprocess.run(
        [sys.executable, "-c", REPEAT_SCRIPT], capture_output=True, env=CLI_ENV, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    runs, misses = json.loads(proc.stdout)
    assert [rc for rc, _ in runs] == [0, 0, 0]
    assert runs[2][1] == runs[0][1] == PINNED_WELD_HALF_6
    assert misses == 6  # orders 1..6, once each


PINNED_TWINS = "c701c09ad56c3b1b7ddfd01017d337d0c4f5a92b6c1d0f4b2282c0c5120d16cd"


def test_twins_output_is_pinned(capsys, monkeypatch):
    # every connected labeled graph with n <= 5, then two with edge-twins
    lines = [write_graph6(g) for n in range(6) for g in enumerate_graphs(EnumerationSpec(n=n))]
    lines += ["IhGGGC@?G", "JjPOWjs?G@?"]
    rc, out, _ = run_cli(capsys, monkeypatch, ["twins"], stdin="\n".join(lines) + "\n")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TWINS


def test_closed_stdout_exits_one_without_traceback(tmp_path):
    err_path = tmp_path / "stderr"
    with open(err_path, "wb") as err:
        # --max-n 6 writes about 3 MB, far more than a pipe buffers
        argv = ["verify", "--theorem", "weld_half", "--max-n", "6"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "locdom.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=CLI_ENV,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        rc = proc.wait(timeout=120)
    assert json.loads(first)["graph6"] == "@"
    assert rc == 1
    assert err_path.read_bytes() == b""  # no traceback, no "Exception ignored"


def test_verify_exit_three_on_violation(capsys, monkeypatch):
    # check_graph fails the paw and C4 classes, so their members interleave in
    # the stream; the paw's members include C\, whose graph6 JSON escapes.
    argv = ["verify", "--theorem", "weld_half", "--max-n", "5"]
    rc, out, _ = run_cli(capsys, monkeypatch, argv)
    assert rc == 0
    honest = json.loads(out.splitlines()[-1])
    failing = {canonical_form(parse_graph6(g6)) for g6 in ("C\\", "Cl")}
    real_check = verify.check_graph

    def fail_two_classes(g, theorem):
        report = real_check(g, theorem)
        if g.n == 4 and canonical_form(g) in failing:
            return report._replace(check=report.check._replace(holds=False))
        return report

    monkeypatch.setattr("locdom.verify.check_graph", fail_two_classes)
    rc, out, _ = run_cli(capsys, monkeypatch, argv)
    assert rc == 3
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    members = [
        write_graph6(g)
        for g in enumerate_graphs(EnumerationSpec(4))
        if canonical_form(g) in failing
    ]
    assert summary["violations"] == members  # every member, raw, in stream order
    assert "C\\" in members and members[0] != "C\\"
    assert [json.loads(line)["graph6"] for line in lines[:-1]].count("C\\") == 1
    assert summary["checked"] == honest["checked"]
    assert summary["skipped"] == honest["skipped"]


def test_encode_graph6_to_edgelist(capsys, monkeypatch):
    rc, out, _ = run_cli(
        capsys, monkeypatch, ["encode", "--from", "graph6", "--to", "edgelist"], stdin="Bg\n"
    )
    assert rc == 0
    assert out == "3 2\n0 1\n1 2\n"


def test_encode_edgelist_stream_to_graph6(capsys, monkeypatch):
    stdin = "3 2\n0 1\n1 2\n2 1\n0 1\n"
    rc, out, _ = run_cli(
        capsys, monkeypatch, ["encode", "--from", "edgelist", "--to", "graph6"], stdin=stdin
    )
    assert rc == 0
    assert out.splitlines() == ["Bg", "A_"]


def test_encode_roundtrip_identity(capsys, monkeypatch):
    rc, out, _ = run_cli(
        capsys, monkeypatch, ["encode", "--from", "graph6", "--to", "graph6"], stdin="EhEG\nBw\n"
    )
    assert rc == 0
    assert out.splitlines() == ["EhEG", "Bw"]


def test_encode_errors_exit_one(capsys, monkeypatch):
    rc, _, err = run_cli(
        capsys, monkeypatch, ["encode", "--from", "edgelist", "--to", "graph6"], stdin="4 3\n0 1\n"
    )
    assert rc == 1 and "error:" in err
    # a vertex count over the edge-list cap is refused before any allocation
    rc, out, err = run_cli(
        capsys, monkeypatch, ["encode", "--from", "edgelist", "--to", "graph6"],
        stdin="99999999999999999999 0\n",
    )
    assert (rc, out) == (1, "") and err.startswith("error:") and err.count("\n") == 1
    rc, _, err = run_cli(
        capsys, monkeypatch, ["encode", "--from", "graph6", "--to", "edgelist"], stdin="E??\n"
    )
    assert rc == 1


def test_subcommand_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "required" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_console_script_is_installed(tmp_path):
    # Install the checkout with the README's command into a fresh venv. With
    # PYTHONPATH dropped, the script can only import what the wheel installed.
    root = Path(__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    venv = tmp_path / "venv"
    subprocess.run(
        [sys.executable, "-m", "venv", "--without-pip", str(venv)], check=True, env=env, timeout=60
    )
    install = subprocess.run(
        [sys.executable, "-m", "pip", "--python", str(venv / "bin" / "python"), "install",
         "--no-build-isolation", "--no-deps", "--no-index", "-e", str(root)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert install.returncode == 0, install.stdout + install.stderr
    proc = subprocess.run(
        [str(venv / "bin" / "locdom"), "gen", "--family", "named", "C6"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "EhEG"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "locdom.cli", "gen", "--family", "named", "P3"],
        capture_output=True,
        text=True,
        env=CLI_ENV,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "Bg"
