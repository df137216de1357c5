"""Spans recorded from outside the program, and the summary read from them.

The traced pass wraps public names at each layer boundary of ``obsim``.
Modules import by name (``from .stats import run_trials``), so a wrapper
replaces every binding of the original function in every ``obsim`` module,
plus the CLI's scenario table. Hot per-trial functions (kernels, streams,
``observe`` on the trial path) are never wrapped: their per-call cost comes
from the timed loops in ``probes.py``.

A trace file is JSON lines. Record kinds:

- ``span``: ``run``, ``id``, ``parent``, ``name``, ``start``, ``end`` and
  optional ``attrs`` (counts measured at that boundary);
- ``count``: ``run``, ``name``, ``value``;
- ``probe``: ``run``, ``name``, ``value``, ``unit`` (timed-loop figures);
- ``pass``: ``run``, ``workload``, ``traced``, ``run_s`` for every pass of
  the run, traced or not, so the overhead can be read from the file.

Usage: ``python3 perfbench/tracing.py TRACE.jsonl [...]`` prints self time
per layer and per workload, the busiest span names and ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    """Keeps spans and counts in memory; ``write`` appends them to a file."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: list = []
        self._stack: list = []
        self._next_id = 0
        self.counts: dict = defaultdict(int)

    def span(self, name: str, fn, args=(), kwargs=None, attrs=None):
        """Call ``fn`` inside a span; ``attrs(args, kwargs, result)`` may add counts."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._stack.pop()
        record = {"kind": "span", "run": self.run_id, "id": span_id, "parent": parent,
                  "name": name, "start": start, "end": end}
        if attrs is not None:
            record["attrs"] = attrs(args, kwargs or {}, result)
        self.records.append(record)
        return result

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += value

    def write(self, path: Path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")
            for name, value in sorted(self.counts.items()):
                fh.write(json.dumps({"kind": "count", "run": self.run_id, "name": name,
                                     "value": value}) + "\n")


def _trials_attrs(args, kwargs, report):
    records = report.records
    return {"trials": report.trials, "records": 0 if records is None else len(records)}


def _bytes_attrs(args, kwargs, _result):
    out = args[0] if args else kwargs.get("out")
    return {"bytes": os.path.getsize(out) if out is not None else 0}


# (module, attribute, span name, attrs) of every wrapped public name
_SPANNED = (
    ("obsim.cli", "main", "cli.main", None),
    ("obsim.cli", "emit_csv", "cli.emit", _bytes_attrs),
    ("obsim.cli", "emit_json", "cli.emit", _bytes_attrs),
    ("obsim.stats", "run_trials", "stats.run_trials", _trials_attrs),
    ("obsim.stats", "sweep", "stats.sweep", None),
    ("obsim.stats", "chi_square_against_analytic", "stats.chi_square", None),
    ("obsim.taxonomy", "taxonomy_table", "taxonomy.table", None),
    ("obsim.taxonomy", "classify", "taxonomy.classify", None),
)


def _obsim_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "obsim" or name.startswith("obsim."))]


def install(recorder: Recorder):
    """Wrap the layer boundaries; returns a function that restores them.

    Targets missing from the program are skipped, so the trace degrades
    instead of failing when an internal name moves."""
    import obsim.checks
    import obsim.cli
    import obsim.taxonomy

    replaced: list = []  # (namespace, key, original)

    def rebind(original, wrapper) -> None:
        for module in _obsim_modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    replaced.append((namespace, key, original))
                    namespace[key] = wrapper

    def spanned(original, name, attrs):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.span(name, original, args, kwargs, attrs)
        return wrapper

    for module_name, attr, name, attrs in _SPANNED:
        original = getattr(sys.modules[module_name], attr, None)
        if original is not None:
            rebind(original, spanned(original, name, attrs))

    for attr, original in list(vars(obsim.checks).items()):
        if attr.startswith("check_") and callable(original):
            rebind(original, spanned(original, f"checks.{attr}", None))

    runners = getattr(obsim.cli, "_SCENARIO_RUNNERS", {})
    for scenario, original in list(runners.items()):
        replaced.append((runners, scenario, original))
        runners[scenario] = spanned(original, f"cli.scenario.{scenario}", None)

    # observe calls made by the taxonomy's witness search: counted, not spanned
    observe = getattr(obsim.taxonomy, "observe", None)
    if observe is not None:
        def counted_observe(*args, **kwargs):
            recorder.count("taxonomy.witness_observes")
            return observe(*args, **kwargs)
        replaced.append((vars(obsim.taxonomy), "observe", observe))
        obsim.taxonomy.observe = counted_observe

    def restore() -> None:
        for namespace, key, original in reversed(replaced):
            namespace[key] = original

    return restore


# --- reading a trace file ----------------------------------------------------

def read(paths) -> list:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    result = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]]
        kids = [(a, b) for a, b in kids if b > a]
        result[s["id"]] = (s["end"] - s["start"]) - _covered(kids)
    return result


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def run_summary(records, run_id: str) -> dict:
    """Per-name totals for one traced pass: calls, inclusive s, self s, attrs."""
    spans = [r for r in records if r["kind"] == "span" and r["run"] == run_id]
    selfs = self_times(spans)
    names: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": defaultdict(int)})
    for s in spans:
        entry = names[s["name"]]
        entry["calls"] += 1
        entry["s"] += s["end"] - s["start"]
        entry["self_s"] += selfs[s["id"]]
        for key, value in s.get("attrs", {}).items():
            entry["attrs"][key] += value
    counts = {r["name"]: r["value"] for r in records
              if r["kind"] == "count" and r["run"] == run_id}
    probes = {r["name"]: (r["value"], r["unit"]) for r in records
              if r["kind"] == "probe" and r["run"] == run_id}
    return {"names": names, "counts": counts, "probes": probes}


def overhead_s(records, workload: str) -> float:
    """Median traced run_s minus median untraced run_s for one workload."""
    passes = [r for r in records if r["kind"] == "pass" and r["workload"] == workload]
    traced = [r["run_s"] for r in passes if r["traced"]]
    plain = [r["run_s"] for r in passes if not r["traced"]]
    return statistics.median(traced) - statistics.median(plain)


def _name_s(summary: dict, name: str, key: str = "s") -> float:
    entry = summary["names"].get(name)
    return entry[key] if entry else 0.0


def _name_attr(summary: dict, name: str, attr: str) -> int:
    entry = summary["names"].get(name)
    return entry["attrs"].get(attr, 0) if entry else 0


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit). Scenario
    and check metrics appear for the scenarios and checks the pass ran."""
    trials = _name_attr(summary, "stats.run_trials", "trials")
    run_trials_s = _name_s(summary, "stats.run_trials")
    # replays made by the workload (span attrs) and by the probes (counts)
    replays = (_name_attr(summary, "core.verify_replay", "replays")
               + summary["counts"].get("core.replays", 0))
    replays_ok = (_name_attr(summary, "core.verify_replay", "replays_ok")
                  + summary["counts"].get("core.replays_ok", 0))
    metrics = dict(summary["probes"])
    metrics.update({
        "stats.run_trials.self_s": (_name_s(summary, "stats.run_trials", "self_s"), "s"),
        "stats.trials": (trials, "count"),
        "stats.ns_per_trial": (run_trials_s / trials * 1e9 if trials else 0.0, "ns"),
        "stats.chi_square.s": (_name_s(summary, "stats.chi_square"), "s"),
        "stats.sweep.self_s": (_name_s(summary, "stats.sweep", "self_s"), "s"),
        "core.records": (_name_attr(summary, "stats.run_trials", "records"), "count"),
        "core.replay_ok_ratio": (replays_ok / replays if replays else 0.0, "ratio"),
        "taxonomy.table_s": (_name_s(summary, "taxonomy.table"), "s"),
        "taxonomy.witness_observes": (summary["counts"].get("taxonomy.witness_observes", 0),
                                      "count"),
        "cli.emit_s": (_name_s(summary, "cli.emit"), "s"),
        "cli.bytes_out": (_name_attr(summary, "cli.emit", "bytes"), "bytes"),
    })
    for name, entry in summary["names"].items():
        if name.startswith("cli.scenario."):
            metrics[f"{name}.self_s"] = (entry["self_s"], "s")
        elif name.startswith("checks."):
            metrics[f"{name}.s"] = (entry["s"], "s")
    return metrics


def format_summary(records) -> str:
    """Self time per layer and per workload, top span names, and overheads."""
    passes = [r for r in records if r["kind"] == "pass"]
    workloads = sorted({r["workload"] for r in passes})
    lines = []
    for workload in workloads:
        runs = [r["run"] for r in passes if r["workload"] == workload and r["traced"]]
        layers: dict = defaultdict(list)
        names: dict = defaultdict(list)
        for run_id in runs:
            summary = run_summary(records, run_id)
            per_layer: dict = defaultdict(float)
            for name, entry in summary["names"].items():
                per_layer[layer_of(name)] += entry["self_s"]
                names[name].append((entry["calls"], entry["s"], entry["self_s"]))
            for layer, value in per_layer.items():
                layers[layer].append(value)
        lines.append(f"workload {workload}: {len(runs)} traced pass(es), medians")
        lines.append(f"  {'layer':<12} {'self_s':>10}")
        for layer in sorted(layers, key=lambda k: -statistics.median(layers[k])):
            lines.append(f"  {layer:<12} {statistics.median(layers[layer]):>10.4f}")
        lines.append(f"  {'span':<40} {'calls':>6} {'s':>10} {'self_s':>10}")
        for name in sorted(names, key=lambda k: -statistics.median(v[1] for v in names[k])):
            calls = statistics.median(v[0] for v in names[name])
            total = statistics.median(v[1] for v in names[name])
            own = statistics.median(v[2] for v in names[name])
            lines.append(f"  {name:<40} {calls:>6g} {total:>10.4f} {own:>10.4f}")
        if any(not r["traced"] for r in passes if r["workload"] == workload):
            lines.append(f"  trace.overhead_s {overhead_s(records, workload):.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python3 perfbench/tracing.py TRACE.jsonl [...]", file=sys.stderr)
        return 2
    print(format_summary(read(paths)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
