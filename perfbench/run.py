"""obsim's benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each pass runs in a fresh interpreter (``child.py``), one at a time, at
``--workers 1``. Passes repeat until ``--seconds`` have gone by and at
least ``MIN_PASSES`` untraced passes are done; the run reports medians over
its passes. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics read back from the written trace file. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the machine facts.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINNED = HERE / "pinned_sha256.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# set-up-only interpreters: a few up front, then one before each pass, so the
# set-up samples spread over the whole run; each pass adds its own set-up too
SETUP_PROBES_FIRST = 3
# a run takes the median of at least this many untraced passes, so that one
# slow pass of a long workload cannot move it alone
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
MAX_RUN_S = 150  # no further pass is started that would likely end after this


def machine_facts() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(
        sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
        for path in sorted(SRC.rglob("*.py"))
    )
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "src_lines": src_lines}


def _child(args: list, result: Path) -> dict | None:
    """Run one child interpreter; its result dict, or None when it failed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--result", str(result)]
                              + args, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {CHILD_TIMEOUT_S} s: {args}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def _planned_ops(workload: str, size: str) -> int:
    """Operations a pass would have attempted; 1 when even that is unknown."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import workloads

        return workloads.planned_ops(workload, size)
    except Exception:  # the program no longer imports: the pass still counts as failed
        return 1


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", pinned: Path = PINNED, work: Path = WORK) -> dict:
    """Runs passes for ``seconds``; returns the result object that is printed,
    plus the ``passes`` and, when traced, the ``trace_file``."""
    tag = f"{workload}-{seed}-{os.getpid()}"
    workdir = work / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    trace_file = work / f"trace-{workload}-{seed}.jsonl"
    if trace:
        trace_file.unlink(missing_ok=True)
    result_file = workdir / "pass.json"

    def setup_probe() -> None:
        res = _child(["--setup-only"], result_file)
        if res:
            setup.append(res["setup_s"])

    setup: list = []
    _child(["--setup-only"], result_file)  # warm the file cache and bytecode
    for _ in range(SETUP_PROBES_FIRST):
        setup_probe()
    passes: list = []
    attempted = failed = 0
    first_digests = None
    start = time.perf_counter()
    for attempt in itertools.count():
        traced = trace and attempt % 2 == 1  # traced passes alternate with untraced ones
        run_id = f"{tag}-{attempt}"
        args = ["--workload", workload, "--seed", str(seed), "--size", size,
                "--workdir", str(workdir / "out"), "--pinned", str(pinned), "--run-id", run_id]
        if traced:
            args += ["--trace-file", str(trace_file)]
        shutil.rmtree(workdir / "out", ignore_errors=True)
        pass_start = time.perf_counter()
        setup_probe()
        res = _child(args, result_file)
        if res is None:
            planned = _planned_ops(workload, size)
            attempted, failed = attempted + planned, failed + planned
        else:
            # identical flags must give identical bytes on every pass
            first_digests = first_digests or res["digests"]
            drift = [k for k, v in res["digests"].items() if first_digests.get(k, v) != v]
            attempted += res["attempted"]
            failed += min(res["attempted"], res["failed"] + len(drift))
            for line in res["failures"] + [f"{k}: bytes differ between passes" for k in drift]:
                print(f"failed: {line}", file=sys.stderr)
            setup.append(res["setup_s"])
            passes.append(dict(res, traced=traced, run=run_id))
            if trace:
                with open(trace_file, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"kind": "pass", "run": run_id, "workload": workload,
                                         "traced": traced, "run_s": res["run_s"]}) + "\n")
        now = time.perf_counter()
        out_of_time = now + (now - pass_start) - start > MAX_RUN_S
        enough = trace or attempt + 1 >= MIN_PASSES
        if traced == trace and ((now - start >= seconds and enough) or out_of_time):
            break
    shutil.rmtree(workdir, ignore_errors=True)

    out = {"correct": failed == 0 and bool(passes), "attempted": attempted, "failed": failed,
           "metrics": {}, "passes": passes}
    if not passes:
        return out
    plain = [p for p in passes if not p["traced"]]
    if trace and 0 < len(plain) < len(passes):
        out["metrics"] = per_layer(trace_file, workload)
        out["trace_file"] = str(trace_file)
    elif not trace:
        run_s = statistics.median(p["run_s"] for p in plain)
        out["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "obs_per_s": {"value": plain[0]["observations"] / run_s, "unit": "1/s"},
            "max_rss_mb": {"value": statistics.median(p["max_rss_mb"] for p in plain),
                           "unit": "MB"},
            "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "ops": {"value": statistics.median_low(p["attempted"] for p in plain), "unit": "count"},
        }
    return out


def per_layer(trace_file: Path, workload: str) -> dict:
    """Medians over the traced passes of every per-layer metric that
    BENCHMARK.json names; 0 where the workload never entered that code."""
    records = tracing.read([trace_file])
    runs = [r["run"] for r in records
            if r["kind"] == "pass" and r["traced"] and r["workload"] == workload]
    per_run = [tracing.layer_metrics(tracing.run_summary(records, run_id)) for run_id in runs]
    for metrics in per_run:
        metrics["trace.overhead_s"] = (tracing.overhead_s(records, workload), "s")
    return {m["name"]: {"value": statistics.median(r.get(m["name"], (0.0,))[0] for r in per_run),
                        "unit": m["unit"]}
            for m in SPEC["per_layer"]}


def _table(workload: str, result: dict) -> str:
    lines = [f"{workload}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']} passes={len(result['passes'])}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    if "ok_ratio" in result["metrics"]:
        lines.append(f"  {'fail_ratio':<44} {result['failed'] / result['attempted']:>16.6g} ratio")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "obsim" / "__init__.py").is_file():
        print(f"error: no obsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    facts = machine_facts()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if not all(r["metrics"] for r in results.values()):
        print("error: no pass completed; nothing was measured", file=sys.stderr)
        return 1
    for workload, result in results.items():
        print(_table(workload, result))
    if args.trace:
        print("trace files: " + " ".join(r["trace_file"] for r in results.values()))
    WORK.mkdir(exist_ok=True)
    for workload, result in results.items():
        saved = WORK / f"result-{workload}-{args.seed}-trace{args.trace}.json"
        saved.write_text(json.dumps(dict(result, facts=facts), indent=1), encoding="utf-8")
    print(json.dumps({"facts": facts}))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
