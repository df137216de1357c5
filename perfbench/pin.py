"""Print the sha256 of every workload output at the given seeds, as JSON in
the layout of ``pinned_sha256.json``. Runs only the steps that write files.

    PYTHONPATH=src python3 perfbench/pin.py 0 1 2 > perfbench/pinned_sha256.json

Re-pin only for a change that alters output bytes on purpose and says so.
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads


def digests(workload: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        plan = workloads.plan(workload, seed, Path(tmp))
        for step in plan.steps:
            if step.outputs and step.judge(step.run()):
                raise SystemExit(f"{workload} seed {seed}: {step.name} failed; nothing pinned")
        return {label: workloads.sha256_file(path) for label, path in plan.outputs.items()}


def main(argv) -> int:
    seeds = [int(arg) for arg in argv] or [0]
    table = {w: {str(seed): digests(w, seed) for seed in seeds} for w in workloads.WORKLOADS}
    print(json.dumps(table, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
