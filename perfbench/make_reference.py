"""Regenerate perfbench/reference.json from the package source in ./src.

Run from the repository root: `python3 perfbench/make_reference.py`.  Only
rerun it when an output of locdom is meant to change; the benchmark treats
any difference from this file as a wrong output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    ref = {"source": run.environment(), "census": {}, "solve_mid": {}, "classes6": {}}
    for size in wl.SIZES:
        run.OUT.mkdir(exist_ok=True)
        census = wl.run_census(size, str(run.OUT))
        ref["census"][size] = {}
        for r in census["runs"]:
            summary, digest = wl.census_digest(Path(r["path"]).read_text().splitlines())
            ref["census"][size][r["theorem"]] = {"summary": summary, "digest": digest}
        texts = [wl.encode_graph6(n, e) for n, e in wl.solve_pool(wl.DEFAULT_SEED, size)]
        ref["solve_mid"][size] = {
            "seed": wl.DEFAULT_SEED,
            "pool_sha256": wl.pool_digest(texts),
            "results": wl.run_solve(texts)["results"],
        }
        classes = wl.run_classes(size)
        ref["classes6"][size] = {"counts": classes["counts"], "theorems": classes["theorems"]}
    (ROOT / "perfbench" / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
