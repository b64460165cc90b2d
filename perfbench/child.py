"""One repetition of a workload, in a fresh interpreter.

Reads a JSON request on stdin: {"workload", "size", "texts", "out_dir",
"trace", "probe", "spans_out"}.  Writes one JSON result on stdout.  `run.py`
starts this with `src` on PYTHONPATH, so every repetition pays import and
table set-up once, as a user's run does.  With "probe" the repetition runs under
`workloads.Probes` and is timed by `Probes.clock`, which leaves the probe time
out.  The result includes the child's own peak RSS.
"""

from __future__ import annotations

import json
import sys
import time

import workloads


def _run(request: dict, clock) -> dict:
    workload, size = request["workload"], request["size"]
    if workload == "census6":
        return workloads.run_census(size, request["out_dir"], clock)
    if workload == "solve_mid":
        return workloads.run_solve(request["texts"], clock)
    return workloads.run_classes(size, clock)


def main() -> int:
    request = json.load(sys.stdin)
    import locdom.cli  # noqa: F401  (imports every module; import time is setup_s's part)

    rec = None
    if request["trace"]:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    if request["probe"]:
        with workloads.Probes() as probes:
            result = _run(request, probes.clock)
        result["wall_norm"] = probes.norm
        result["probe_ms"] = [round(p * 1e3, 4) for p in probes.samples]
    else:
        result = _run(request, time.perf_counter)
    if rec is not None:
        self_s, calls, top = rec.self_times()
        result["trace"] = {
            "self_s": self_s,
            "calls": calls,
            "counts": dict(rec.counts),
            "attributed_s": top,
        }
        if request.get("spans_out"):
            rec.write(request["spans_out"], result["wall_s"])
    result["peak_rss_kb"] = workloads.peak_rss_kb()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
