"""One workload pass in a fresh interpreter.

Times the import of ``obsim`` and ``obsim.cli`` (set-up), then runs the
workload's steps (the timed region), then judges every step's outputs.
With ``--trace-file`` the pass wraps the layer boundaries, appends its spans
to the file and runs the timed-loop probes after the workload. The pass
writes its figures as JSON to ``--result``.

Run by ``run.py``; not meant to be called by hand.
"""

import sys
import time

# set-up is what every CLI call pays: timed before anything else is imported
_t0 = time.perf_counter()
import obsim
import obsim.cli

SETUP_S = time.perf_counter() - _t0

import argparse
import json
import resource
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir")
    parser.add_argument("--result", required=True)
    parser.add_argument("--pinned")
    parser.add_argument("--trace-file")
    parser.add_argument("--run-id", default="pass")
    return parser.parse_args(argv)


def _error_text() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def run_pass(args) -> dict:
    import probes
    import tracing
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    plan = workloads.plan(args.workload, args.seed, workdir, args.size)
    pinned = {}
    if args.pinned and Path(args.pinned).exists():
        table = json.loads(Path(args.pinned).read_text(encoding="utf-8"))
        pinned = table.get(args.workload, {}).get(str(args.seed), {})

    recorder = tracing.Recorder(args.run_id) if args.trace_file else None
    restore = tracing.install(recorder) if recorder else None
    outcomes = []
    try:
        for step in plan.steps:
            t0 = time.perf_counter()
            try:
                if recorder and step.span:
                    value = recorder.span(step.span, step.run, attrs=step.attrs)
                else:
                    value = step.run()
                error = None
            except Exception:  # a failing step fails its operations, not the pass
                value, error = None, f"{step.name}: {_error_text()}"
            outcomes.append((step, value, error, time.perf_counter() - t0))
    finally:
        if restore:
            restore()
    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests = {label: workloads.sha256_file(path)
               for label, path in plan.outputs.items() if Path(path).exists()}
    attempted = failed = 0
    failures = []
    steps = []
    for step, value, error, seconds in outcomes:
        if error is not None:
            found = [error]
        else:
            try:
                found = step.judge(value)
            except Exception:
                found = [f"{step.name}: judge raised {_error_text()}"]
        found += workloads.digest_failures(
            {label: digests[label] for label in step.outputs if label in digests}, pinned)
        found += [f"{label}: not written" for label in step.outputs if label not in digests]
        attempted += step.ops
        failed += min(len(found), step.ops)
        failures.extend(found[:5])
        steps.append({"name": step.name, "s": seconds, "ops": step.ops, "failures": len(found)})

    result = {
        "setup_s": SETUP_S,
        "run_s": sum(s["s"] for s in steps),
        "max_rss_mb": max_rss_mb,
        "observations": plan.observations,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "digests": digests,
        "steps": steps,
    }
    if recorder:
        metrics, replays, replays_ok = probes.run(args.seed, args.size)
        recorder.count("core.replays", replays)
        recorder.count("core.replays_ok", replays_ok)
        for name, (value, unit) in metrics.items():
            recorder.records.append({"kind": "probe", "run": args.run_id, "name": name,
                                     "value": value, "unit": unit})
        recorder.write(Path(args.trace_file))
    return result


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    src = (ROOT / "src").resolve()
    if src not in Path(obsim.__file__).resolve().parents:
        print(f"obsim imported from {obsim.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": SETUP_S} if args.setup_only else run_pass(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
