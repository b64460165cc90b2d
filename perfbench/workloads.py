"""Workload inputs, the in-process work of one repetition, and output checks.

Shared by `run.py` (the parent, which generates inputs and checks results)
and `child.py` (a fresh interpreter that runs one repetition).  Nothing here
imports `locdom` at module level, so the parent can report a missing package
as a set-up error.

Workloads:

- census6: `locdom.cli.main(["verify", "--theorem", T, "--max-n", "6"])` for
  four theorems, stdout to a file.  Exhaustive, so the seed does not change
  its inputs.
- solve_mid: 168 fixed random connected structures (n 10..16, m 15..20) with
  vertex labels permuted by the seed, handed over as graph6 text; seven
  parameters each, two of them on the line graph.  Deep searches on few
  graphs.
- classes6: isomorphism-class enumeration for n = 1..6 and all nine bound
  checks on the representatives.  Exhaustive, so the seed does not change its
  inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import sys
import time
from collections import Counter

DEFAULT_SEED = 1
POOL_SEED = 0
PROBE_INTERVAL_S = 0.1

CENSUS_THEOREMS = ("weld_half", "cor_ltd_line", "ore_half", "obs1")
ALL_THEOREMS = (
    "weld_half",
    "eld_half",
    "eltd_two_thirds",
    "cor_ld_line",
    "cor_ltd_line",
    "obs1",
    "ore_half",
    "cockayne_two_thirds",
    "size6_eld3",
)
G_PARAMS = ("dom", "tdom", "eld", "eltd", "weld")
L_PARAMS = ("ld", "ltd")
PARAMS = G_PARAMS + L_PARAMS

# Connected graphs on n vertices: labeled (OEIS A001187) and up to
# isomorphism (OEIS A001349).  Independent of the package.
LABELED_CONNECTED = (1, 1, 1, 4, 38, 728, 26704)
CLASSES_CONNECTED = (1, 1, 1, 2, 6, 21, 112)

# Per size: census max-n, solve pool cells and rounds, classes max n.
# "tiny" is the self-test size.
SIZES = {
    "full": {
        "census_max_n": 6,
        "pool_n": (10, 16),
        "pool_m": (15, 20),
        "pool_rounds": 4,
        "classes_max_n": 6,
    },
    "tiny": {
        "census_max_n": 4,
        "pool_n": (6, 7),
        "pool_m": (7, 8),
        "pool_rounds": 2,
        "classes_max_n": 4,
    },
}


def peak_rss_kb() -> "int | None":
    """VmHWM of this process: the high-water mark of its own address space.

    Unlike ru_maxrss, it does not carry over the parent's resident size from
    before exec, so it measures the child alone.  None when /proc is absent.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


# ----------------------------------------------------------------- inputs


def random_connected_graph(rng: random.Random, n: int, m: int) -> tuple[int, list]:
    """A random spanning tree plus m - n + 1 uniformly chosen extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(rest, m - len(edges)))
    return n, sorted(edges)


def encode_graph6(n: int, edges) -> str:
    """Short-form graph6, written here so that inputs do not depend on the codec."""
    present = set(edges)
    bits = [(i, j) in present for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    body = []
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = (value << 1) | b
        body.append(chr(63 + value))
    return chr(63 + n) + "".join(body)


def solve_pool(seed: int, size: str) -> list[tuple[int, list]]:
    """The solve_mid graphs: fixed structures, vertex labels permuted by the seed.

    The structures cover every (n, m) cell once per round and come from
    POOL_SEED.  Labels set the order of the lexicographic search, so the seed
    changes the work, while every seed keeps the same parameter values.  Over
    126 graphs the total cost varied by 4% (CV) across relabelings, against
    8% across fresh random structures.
    """
    spec = SIZES[size]
    (n_lo, n_hi), (m_lo, m_hi) = spec["pool_n"], spec["pool_m"]
    cells = [(n, m) for n in range(n_lo, n_hi + 1) for m in range(m_lo, m_hi + 1)]
    structure_rng = random.Random(POOL_SEED)
    structures = [
        random_connected_graph(structure_rng, n, m)
        for _ in range(spec["pool_rounds"])
        for n, m in cells
    ]
    rng = random.Random(seed)
    pool = []
    for n, edges in structures:
        perm = list(range(n))
        rng.shuffle(perm)
        pool.append((n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)))
    return pool


def pool_digest(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


# --------------------------------------------------- census output checks


def census_digest(lines: list[str]) -> tuple[dict | None, str]:
    """Summary object and digest of the records of one verify run.

    The digest covers (graph6, param, value) and (graph6, skip reason) as a
    sorted multiset, so it ignores how bound and margin are written and the
    order of the stream.
    """
    if not lines:
        return None, ""
    try:
        summary = json.loads(lines[-1])
    except ValueError:
        summary = None
    keys = []
    for line in lines[:-1]:
        rec = json.loads(line)
        if "skipped_reason" in rec:
            keys.append(f"{rec['graph6']} skip {rec['skipped_reason']}")
        else:
            keys.append(f"{rec['graph6']} {rec['param']} {rec['value']}")
    keys.sort()
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    return summary, digest


def check_census_run(theorem: str, max_n: int, exit_code: int, lines: list[str], ref) -> list[str]:
    """Problems with one `verify` run; empty when it is correct.

    Without a reference entry only the reference-free checks apply: the
    summary accounts for every connected labeled graph and holds no
    violation.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"{theorem}: exit code {exit_code}")
    summary, digest = census_digest(lines)
    if not isinstance(summary, dict):
        return problems + [f"{theorem}: no summary line"]
    total = sum(LABELED_CONNECTED[1:max_n + 1])
    seen = summary.get("checked", 0) + sum(summary.get("skipped", {}).values())
    if seen != total:
        problems.append(f"{theorem}: summary covers {seen} graphs, expected {total}")
    if summary.get("violations"):
        problems.append(f"{theorem}: violations {summary['violations'][:3]}")
    if ref is not None:
        if summary != ref["summary"]:
            problems.append(f"{theorem}: summary {summary} != reference {ref['summary']}")
        if digest != ref["digest"]:
            problems.append(f"{theorem}: record digest differs from the reference")
    return problems


# ----------------------------------------------- in-process repetitions


def probe_loop() -> float:
    """Seconds for a fixed 40k-iteration pure-Python loop (about 3 ms)."""
    t = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    return time.perf_counter() - t


class Probes:
    """Cuts a repetition into slices of PROBE_INTERVAL_S and times `probe_loop`
    after each slice, from SIGALRM, in the process doing the work.

    On the shared 2-vCPU VM this was built on, speed swings by up to 1.8x
    within seconds as neighbouring load comes and goes, so seconds alone
    differed by 15-28% between runs of the same work.  `norm` sums each slice's duration divided
    by the probe time measured right after it: the work in units of the
    probe, which cancels most of that swing.  `spent` is the time the probes
    took; it is not part of the work, and `clock` leaves it out.
    """

    def __init__(self) -> None:
        self.norm = 0.0
        self.spent = 0.0
        self.samples: list[float] = []
        self._last = 0.0

    def _slice(self, *_) -> None:
        t = time.perf_counter()
        probe = probe_loop()
        self.norm += (t - self._last) / probe
        self.samples.append(probe)
        self._last = time.perf_counter()
        self.spent += self._last - t

    def clock(self) -> float:
        """perf_counter minus the probe time so far: a clock that stops while probes run.

        SIGALRM is blocked while it reads, so no probe falls between the two terms.
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter() - self.spent
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self) -> "Probes":
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._slice()


def run_census(size: str, out_dir: str, clock=time.perf_counter) -> dict:
    """Every census theorem through `locdom.cli.main`, stdout sent to a file.

    `main` is what the `locdom` console script calls; interpreter start-up,
    which the console script adds, is measured on its own as setup_s.  Times
    come from `clock` (see `Probes.clock`), here and in the other `run_*`.
    """
    from locdom.cli import main

    max_n = SIZES[size]["census_max_n"]
    runs = []
    for theorem in CENSUS_THEOREMS:
        path = f"{out_dir}/census-{theorem}.jsonl"
        saved = sys.stdout
        t0 = clock()
        with open(path, "w") as out:
            sys.stdout = out
            try:
                code = main(["verify", "--theorem", theorem, "--max-n", str(max_n)])
            finally:
                sys.stdout = saved
        runs.append({
            "theorem": theorem,
            "exit_code": code,
            "path": path,
            "wall_s": clock() - t0,
        })
    return {"wall_s": sum(r["wall_s"] for r in runs), "runs": runs}


def run_solve(texts: list[str], clock=time.perf_counter) -> dict:
    """Parse each graph6 text and solve all seven parameters, timing each call."""
    from locdom.codec import parse_graph6
    from locdom.linegraph import line_graph
    from locdom.solvers import solve_min

    results, latencies, errors = [], [], []
    t0 = clock()
    for text in texts:
        row = []
        g = parse_graph6(text)
        line = None
        for p in PARAMS:
            if line is None and p in L_PARAMS:
                line = line_graph(g).line
            target = line if p in L_PARAMS else g
            t = clock()
            try:
                r = solve_min(target, p)
            except Exception as exc:  # recorded as a failed operation
                errors.append(f"{text} {p}: {exc!r}")
                row.append(None)
            else:
                row.append([r.value, sorted(r.witness)])
            latencies.append(clock() - t)
        results.append(row)
    wall = clock() - t0
    return {"wall_s": wall, "results": results, "latencies_s": latencies, "errors": errors}


def run_classes(size: str, clock=time.perf_counter) -> dict:
    """Class representatives for n = 1..max_n, then every bound check on them."""
    from locdom.verify import EnumerationSpec, check_graph, enumerate_graphs

    max_n = SIZES[size]["classes_max_n"]
    t0 = clock()
    reps = []
    counts = []
    for n in range(1, max_n + 1):
        found = list(enumerate_graphs(EnumerationSpec(n, dedup_isomorphic=True)))
        counts.append(len(found))
        reps.extend(found)
    theorems = {}
    for theorem in ALL_THEOREMS:
        value_sum, checked, skipped, violations = 0, 0, Counter(), 0
        for g in reps:
            report = check_graph(g, theorem)
            if report.skipped_reason is not None:
                skipped[report.skipped_reason] += 1
                continue
            checked += 1
            value_sum += sum(chk.value for chk in report.checks)
            violations += sum(not chk.holds for chk in report.checks)
        theorems[theorem] = {
            "value_sum": value_sum,
            "checked": checked,
            "skipped": dict(sorted(skipped.items())),
            "violations": violations,
        }
    wall = clock() - t0
    return {"wall_s": wall, "counts": counts, "theorems": theorems}


# ------------------------------------------------- solve / classes checks


def _line_graph_oracle(n: int, edges: list):
    """L(G) built here from the sorted edge list, independent of the package."""
    from locdom.core import Graph

    pairs = []
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            if {a, b} & set(edges[j]):
                pairs.append((i, j))
    return Graph(len(edges), pairs)


def _feasible(g, p: str, w: list) -> bool:
    from locdom import solvers as s

    if p == "dom":
        return s.is_dominating(g, w)
    if p == "tdom":
        return s.is_total_dominating(g, w)
    if p == "ld":
        return s.is_dominating(g, w) and s.is_locating(g, w)
    if p == "ltd":
        return s.is_total_dominating(g, w) and s.is_locating(g, w)
    if p == "eld":
        return s.is_edge_dominating(g, w) and s.is_edge_locating(g, w)
    if p == "eltd":
        return s.is_edge_total_dominating(g, w) and s.is_edge_locating(g, w)
    return s.is_edge_dominating(g, w) and s.is_weak_edge_locating(g, w)


def check_solve(pool: list, results: list, ref_results: list,
                witnesses: bool) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all solve calls and per-graph identities.

    Every seed: each value equals the reference (relabeling keeps values);
    the witness is feasible by the public predicates and its size is the
    value; eld(G) = ld(L(G)) and eltd(G) = ltd(L(G)) with the same least
    witness; dom <= tdom, weld <= eld <= eltd and ld <= ltd.  With
    `witnesses` (the reference seed) every witness must match exactly too.
    """
    from locdom.core import Graph

    attempted = failed = 0
    problems: list[str] = []
    if len(results) != len(pool):
        return len(pool) * (len(PARAMS) + 1), len(pool) * (len(PARAMS) + 1), [
            f"{len(results)} result rows for {len(pool)} graphs"
        ]
    for i, ((n, edges), row) in enumerate(zip(pool, results)):
        g = Graph(n, edges)
        line = _line_graph_oracle(n, edges)
        for p, got in zip(PARAMS, row):
            attempted += 1
            bad = None
            if got is None:
                bad = "raised"
            else:
                value, witness = got
                if len(witness) != value:
                    bad = f"witness size {len(witness)} != value {value}"
                elif not _feasible(line if p in L_PARAMS else g, p, witness):
                    bad = f"witness {witness} infeasible"
                else:
                    want = ref_results[i][PARAMS.index(p)]
                    if value != want[0] or (witnesses and witness != want[1]):
                        bad = f"{got} != reference {want}"
            if bad:
                failed += 1
                problems.append(f"graph {i} {p}: {bad}")
        attempted += 1
        if any(got is None for got in row):
            failed += 1
            continue
        v = dict(zip(PARAMS, row))
        relations = (
            v["eld"] == v["ld"],
            v["eltd"] == v["ltd"],
            v["dom"][0] <= v["tdom"][0],
            v["weld"][0] <= v["eld"][0] <= v["eltd"][0],
            v["ld"][0] <= v["ltd"][0],
        )
        if not all(relations):
            failed += 1
            problems.append(f"graph {i}: parameter relations fail {relations}")
    return attempted, failed, problems


def check_classes(result: dict, size: str, ref: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): one operation per order n and per theorem."""
    max_n = SIZES[size]["classes_max_n"]
    attempted = failed = 0
    problems = []
    expected = list(CLASSES_CONNECTED[1:max_n + 1])
    for n, (got, want) in enumerate(zip(result["counts"], expected), start=1):
        attempted += 1
        if got != want:
            failed += 1
            problems.append(f"n={n}: {got} classes, expected {want}")
    if len(result["counts"]) != len(expected):
        attempted += 1
        failed += 1
        problems.append(f"class counts {result['counts']} for n=1..{max_n}")
    for theorem in ALL_THEOREMS:
        attempted += 1
        got = result["theorems"].get(theorem)
        bad = None
        if got is None:
            bad = "missing"
        elif got["violations"]:
            bad = f"{got['violations']} violations"
        elif got["checked"] + sum(got["skipped"].values()) != sum(expected):
            bad = "checked + skipped does not cover every class"
        elif ref is not None and got != ref["theorems"][theorem]:
            bad = f"{got} != reference {ref['theorems'][theorem]}"
        if bad:
            failed += 1
            problems.append(f"{theorem}: {bad}")
    return attempted, failed, problems
