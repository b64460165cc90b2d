"""locdom benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the repository root:

    python3 perfbench/run.py --workload census6|solve_mid|classes6 \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Load model: a closed loop with one caller, one child process at a time.  Each
repetition runs in a fresh interpreter.  Repetitions run back to back until
the next one would end after --seconds (at least one runs).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Lines before it, starting with '#', give the raw samples, fail_ratio, solve
latency percentiles, the environment and the trace breakdown.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
OUT = BENCH / "out"

SETUP_SAMPLES = 16
# setup_s is given in seconds at the speed where `workloads.probe_loop` takes
# this long (about its time on the machine the baselines were measured on).
REFERENCE_PROBE_S = 0.003
RUN_DEADLINE_S = 150.0


class SetupError(Exception):
    """The checkout cannot run the benchmark (for example, no package source)."""


# ------------------------------------------------------------- processes


def run_child(cmd: list[str], stdin: bytes | None = None):
    """Run cmd from the checkout root with src on PYTHONPATH; (exit code, stdout, stderr, wall s).

    On timeout the child is killed and reaped, and the exit code is None.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    feed = {"input": stdin} if stdin is not None else {"stdin": subprocess.DEVNULL}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=env, timeout=RUN_DEADLINE_S,
                              **feed)
    except subprocess.TimeoutExpired:
        return None, b"", f"killed after {RUN_DEADLINE_S} s".encode(), time.perf_counter() - t0
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def _probe_s() -> float:
    return min(wl.probe_loop() for _ in range(3))


def measure_setup(samples: int, warm_up: bool = False) -> list[tuple[float, float]]:
    """Fresh interpreters that import locdom.cli, build the parser and exit.

    Each sample is (seconds, seconds in probes): its wall time, and that time
    divided by the mean of the best-of-3 `probe_loop` time just before and
    just after it.  As with `wall_norm`, the division cancels most of the
    machine's swings in speed.
    """
    cmd = [sys.executable, "-m", "locdom.cli", "--help"]
    if warm_up:
        run_child(cmd)  # writes bytecode caches once, as an installed package has them
    walls = []
    for _ in range(samples):
        before = _probe_s()
        code, _, err, wall = run_child(cmd)
        if code != 0:
            raise SetupError(f"`locdom --help` exited {code}: {err.decode(errors='replace')[-300:]}")
        walls.append((wall, wall / ((before + _probe_s()) / 2)))
    return walls


# ----------------------------------------------------------- repetitions


class Run:
    """Counters and samples gathered over one benchmark invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.results: list[dict] = []
        self.latencies: list[float] = []

    def tally(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def one_rep(run: Run, workload: str, size: str, seed: int, ref, probe: bool = True,
            trace: bool = False, spans_out: "str | None" = None) -> "dict | None":
    """One repetition in a fresh child; checks its outputs and returns its result."""
    OUT.mkdir(exist_ok=True)
    request = {"workload": workload, "size": size, "texts": None, "out_dir": str(OUT),
               "trace": trace, "probe": probe, "spans_out": spans_out}
    if workload == "census6":
        n_ops = len(wl.CENSUS_THEOREMS)
    elif workload == "solve_mid":
        pool = wl.solve_pool(seed, size)
        request["texts"] = [wl.encode_graph6(n, edges) for n, edges in pool]
        n_ops = len(pool) * (len(wl.PARAMS) + 1)
        solve_ref = ref["solve_mid"][size]
        on_ref_seed = seed == solve_ref["seed"]
        if on_ref_seed and wl.pool_digest(request["texts"]) != solve_ref["pool_sha256"]:
            run.tally(1, 1, ["the reference seed gives another pool than the reference"])
    else:
        n_ops = wl.SIZES[size]["classes_max_n"] + len(wl.ALL_THEOREMS)
    code, out, err, _ = run_child([sys.executable, str(BENCH / "child.py")],
                                  json.dumps(request).encode())
    if code != 0:
        run.tally(n_ops, n_ops, [f"child exited {code}: {err.decode(errors='replace')[-500:]}"])
        return None
    result = json.loads(out)
    if workload == "census6":
        max_n = wl.SIZES[size]["census_max_n"]
        for r in result["runs"]:
            lines = Path(r["path"]).read_text().splitlines()
            problems = wl.check_census_run(r["theorem"], max_n, r["exit_code"], lines,
                                           ref["census"][size].get(r["theorem"]))
            run.tally(1, 1 if problems else 0, problems)
    elif workload == "solve_mid":
        run.latencies.extend(result["latencies_s"])
        run.tally(0, 0, result["errors"])
        run.tally(*wl.check_solve(pool, result["results"], solve_ref["results"], on_ref_seed))
    else:
        run.tally(*wl.check_classes(result, size, ref["classes6"][size]))
    return result


# --------------------------------------------------------------- metrics


def cpu_probe_ms() -> float:
    """Best of five `workloads.probe_loop` runs, in ms.

    Printed at the start and end of a run: this machine's speed drifts with
    neighbouring load, and the probe shows how fast it was around the run.
    """
    return min(wl.probe_loop() for _ in range(5)) * 1e3


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "locdom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "cpu_probe_ms_start": round(cpu_probe_ms(), 3),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "search_nodes": None,
        "search_nodes_note": "not observable from outside the package; needs a counter in solvers",
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _fmt(values) -> list:
    return [round(v, 4) for v in values]


def run_plain(workload: str, seed: int, seconds: float, size: str, ref) -> tuple[Run, dict]:
    run = Run()
    # Half the set-up samples before the repetitions and half after, so that
    # their median sees the same spell of machine speed as the repetitions.
    half = SETUP_SAMPLES // 2 if size == "full" else 1
    setup = measure_setup(half, warm_up=True)
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        result = one_rep(run, workload, size, seed, ref)
        if result is None:
            break
        run.results.append(result)
        rep_cost = time.perf_counter() - t
        elapsed = time.perf_counter() - start
        if elapsed + rep_cost > seconds or elapsed > RUN_DEADLINE_S / 2:
            break
    setup += measure_setup(half)
    walls = [r["wall_s"] for r in run.results]
    norms = [r["wall_norm"] for r in run.results]
    probes = [statistics.median(r["probe_ms"]) for r in run.results]
    rss = [r["peak_rss_kb"] / 1024 for r in run.results]
    print(f"# wall_s (s) samples {_fmt(walls)} n={len(walls)}")
    print(f"# wall_norm (probes) samples {_fmt(norms)}; median probe (ms) {_fmt(probes)}, "
          f"probes per repetition {[len(r['probe_ms']) for r in run.results]}")
    print(f"# set-up seconds samples {_fmt(s for s, _ in setup)} n={len(setup)}, "
          f"median {statistics.median(s for s, _ in setup):.4f} s")
    print(f"# set-up probes samples {_fmt(p for _, p in setup)}")
    print(f"# peak_rss_mb (MB) samples {_fmt(rss)}")
    if run.latencies:
        q = statistics.quantiles(run.latencies, n=100)
        print(f"# solve_p50_ms {q[49] * 1e3:.4f} ms  solve_p95_ms {q[94] * 1e3:.4f} ms"
              f"  (n={len(run.latencies)} solve_min calls)")
    if not run.results:
        return run, {}
    print(f"# wall_s {statistics.median(walls):.4f} s (median of {len(walls)})")
    return run, {
        "wall_norm": _metric(statistics.median(norms), "probes"),
        "setup_s": _metric(statistics.median(p for _, p in setup) * REFERENCE_PROBE_S, "s"),
        "peak_rss_mb": _metric(statistics.median(rss), "MB"),
    }


def run_traced(workload: str, seed: int, size: str, ref, per_layer: dict) -> tuple[Run, dict]:
    """One untraced and one traced repetition, both without probes; per-layer metrics."""
    run = Run()
    spans_out = str(OUT / f"spans-{workload}-seed{seed}.bin.gz")
    plain = one_rep(run, workload, size, seed, ref, probe=False)
    traced = one_rep(run, workload, size, seed, ref, probe=False, trace=True,
                     spans_out=spans_out)
    if plain is None or traced is None:
        return run, {}
    trace, traced_wall = traced["trace"], traced["wall_s"]
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    values = {}
    for name in per_layer:
        base, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = self_s.get(base, 0.0)
        elif field == "calls":
            values[name] = calls.get(base, 0)
        else:
            values[name] = counts.get(name, 0)
    values["trace.overhead_ratio"] = traced_wall / plain["wall_s"]
    values["trace.unattributed_s"] = traced_wall - trace["attributed_s"]
    print(f"# traced wall {traced_wall:.4f} s, untraced wall {plain['wall_s']:.4f} s, "
          f"attributed {trace['attributed_s']:.4f} s, unattributed "
          f"{values['trace.unattributed_s']:.4f} s; spans in {os.path.relpath(spans_out, ROOT)}")
    print("# self time by span (s, share of traced wall, calls):")
    for name in sorted(self_s, key=self_s.get, reverse=True):
        print(f"#   {name:34s} {self_s[name]:10.4f} {self_s[name] / traced_wall:7.1%} {calls[name]:9d}")
    return run, {name: _metric(values[name], unit) for name, unit in per_layer.items()}


def execute(workload: str, seed: int, seconds: float, trace: bool, size: str, ref,
            spec: dict) -> dict:
    if trace:
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        run, metrics = run_traced(workload, seed, size, ref, per_layer)
    else:
        run, metrics = run_plain(workload, seed, seconds, size, ref)
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"# fail_ratio {ratio:.6f} ratio ({run.failed}/{run.attempted} operations)")
    print(f"# cpu_probe_ms_end {cpu_probe_ms():.3f} ms")
    for problem in run.problems[:20]:
        print(f"# problem: {problem}")
    correct = run.failed == 0 and run.attempted > 0 and bool(metrics)
    return {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }


# ------------------------------------------------------------- self-test


def self_test(ref, spec: dict) -> int:
    """Tiny sizes: every metric printed with its unit, and a corrupted reference is caught."""
    errors = []
    corrupt = {
        "census6": lambda r: r["census"]["tiny"]["obs1"]["summary"].update(checked=-1),
        "solve_mid": lambda r: r["solve_mid"]["tiny"]["results"][0][0].__setitem__(0, -1),
        "classes6": lambda r: r["classes6"]["tiny"]["theorems"]["weld_half"].update(value_sum=-1),
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            names = {m["name"]: m["unit"] for m in spec[key]}
            res = execute(workload, wl.DEFAULT_SEED, 0.0, trace, "tiny", ref, spec)
            got = res["metrics"]
            if not res["correct"]:
                errors.append(f"{workload} trace={trace}: not correct")
            if set(got) != set(names):
                errors.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(names))}")
            for name, m in got.items():
                if m.get("unit") != names.get(name) or not isinstance(m.get("value"), (int, float)):
                    errors.append(f"{workload}: metric {name} printed as {m}")
        bad_ref = copy.deepcopy(ref)
        corrupt[workload](bad_ref)
        res = execute(workload, wl.DEFAULT_SEED, 0.0, False, "tiny", bad_ref, spec)
        if not res["failed"] / res["attempted"] > 0:
            errors.append(f"{workload}: corrupted reference not detected")
    for e in errors:
        print(f"# self-test FAILED: {e}")
    print("# self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        if not (SRC / "locdom" / "cli.py").is_file():
            raise SetupError(f"no package source at {SRC / 'locdom'}")
        sys.path.insert(0, str(SRC))  # the parent checks outputs with locdom's predicates
        ref = json.loads(REFERENCE.read_text())
        print("# env " + json.dumps(environment()))
        if args.self_test:
            return self_test(ref, spec)
        print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
              f"trace {args.trace}")
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace), "full",
                         ref, spec)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
