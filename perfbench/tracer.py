"""Span tracing of locdom's layers, installed from outside the package.

`install` replaces each traced public function in every `locdom` module
namespace that binds it (its defining module and each module that imports it
under its own name), so calls between modules and within a module both pass
through the wrapper.  Nothing inside `src/locdom` is changed.

A span is (name, parent span, start, end).  Generators get one span per
`next()`.  Spans stay in compact arrays in memory; `write` stores them when
the run ends.  A span's self time is its duration minus the durations of its
direct children, so the self times of all spans add up to the time covered by
top-level spans, and the rest of the traced wall time is reported as
unattributed.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

# (span name, defining module, attribute, is a generator)
TARGETS = (
    ("cli.main", "locdom.cli", "main", False),
    ("codec.parse_graph6", "locdom.codec", "parse_graph6", False),
    ("codec.write_graph6", "locdom.codec", "write_graph6", False),
    ("codec.report_lines", "locdom.codec", "report_lines", True),
    ("core.is_connected", "locdom.core", "is_connected", False),
    ("twins.edge_twin_masks", "locdom.twins", "edge_twin_masks", False),
    ("twins.is_edge_twin_free", "locdom.twins", "is_edge_twin_free", False),
    ("twins.check_observation1", "locdom.twins", "check_observation1", False),
    ("linegraph.line_graph", "locdom.linegraph", "line_graph", False),
    ("solvers.solve_min", "locdom.solvers", "solve_min", False),
    ("verify.enumerate_graphs", "locdom.verify", "enumerate_graphs", True),
    ("verify.canonical_form", "locdom.verify", "canonical_form", False),
    ("verify.check_graph", "locdom.verify", "check_graph", False),
)

PARAM_SHORT = ("dom", "tdom", "ld", "ltd", "eld", "eltd", "weld")


class Recorder:
    """In-memory spans plus counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap_function(self, fn, name: str, on_result=None, name_of=None):
        name_append, parent_append = self.name.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        starts, ends, stack = self.start, self.end, self.stack
        perf = time.perf_counter
        fixed = self.name_id(name) if name_of is None else None

        def traced(*args, **kwargs):
            nid = fixed if name_of is None else name_of(args, kwargs)
            idx = len(starts)
            name_append(nid)
            parent_append(stack[-1])
            start_append(0.0)
            end_append(0.0)
            stack.append(idx)
            t = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                e = perf()
                starts[idx] = t
                ends[idx] = e
                stack.pop()
            if on_result is not None:
                on_result(nid, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str, on_item=None):
        name_append, parent_append = self.name.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        starts, ends, stack = self.start, self.end, self.stack
        perf = time.perf_counter
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(starts)
                name_append(nid)
                parent_append(stack[-1])
                start_append(0.0)
                end_append(0.0)
                stack.append(idx)
                t = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    e = perf()
                    starts[idx] = t
                    ends[idx] = e
                    stack.pop()
                if on_item is not None:
                    on_item(item)
                yield item

        return traced

    def self_times(self) -> tuple[dict, dict, float]:
        """Per name: summed self time and call count; plus the top-level total."""
        n = len(self.start)
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            d = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += d
            else:
                top += d
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            key = self.names[self.name[i]]
            self_s[key] += self.end[i] - self.start[i] - child[i]
            calls[key] += 1
        return dict(self_s), dict(calls), top

    def write(self, path: str, wall_s: float) -> None:
        """One JSON header line, then the raw name/parent/start/end arrays, gzipped."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "wall_s": wall_s,
            "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def install(rec: Recorder) -> None:
    """Wrap every traced function under every name a locdom module binds it to."""
    import locdom
    import locdom.cli  # noqa: F401  (imports every traced module)
    from locdom.solvers import parse_parameter

    modules = [m for k, m in sys.modules.items() if k == "locdom" or k.startswith("locdom.")]
    solve_ids = {p: rec.name_id(f"solvers.solve_min.{p}") for p in PARAM_SHORT}
    label_cache: dict = {}

    def solve_name(args, kwargs):
        p = args[1] if len(args) > 1 else kwargs["parameter"]
        nid = label_cache.get(p)
        if nid is None:
            nid = label_cache[p] = solve_ids[parse_parameter(p).value]
        return nid

    def count_value(nid, result):
        rec.counts[rec.names[nid] + ".value_sum"] += result.value

    def count_graph(_):
        rec.counts["verify.graphs"] += 1

    def count_bytes(line):
        rec.counts["codec.report_bytes"] += len(line) + 1

    for name, modname, attr, is_gen in TARGETS:
        original = getattr(sys.modules[modname], attr)
        if name == "solvers.solve_min":
            wrapped = rec.wrap_function(original, name, count_value, solve_name)
        elif is_gen:
            on_item = {"verify.enumerate_graphs": count_graph,
                       "codec.report_lines": count_bytes}[name]
            wrapped = rec.wrap_generator(original, name, on_item)
        else:
            wrapped = rec.wrap_function(original, name)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
