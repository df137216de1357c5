"""Workload definitions: the steps each workload times and how each is judged.

A workload pass is a list of steps. Each step runs once inside the timed
region (``Step.run``) and is judged afterwards, outside it (``Step.judge``).
A step stands for ``Step.ops`` operations: one CLI call, one check, or one
replayed record each. A step that raises fails all of its operations.

Operation failure rules:

- a non-zero exit from ``obsim.cli.main`` or a failed check;
- a sweep row whose ``stats.estimator_status`` is ``fail``, or whose
  ``analytic_p`` is not ``quantum_machine_prob(gamma, profile)``;
- a final trajectory row with ``|total_length - 1| > 1e-9`` or
  ``n_fragments != breaks + 1``;
- a taxonomy JSON unlike ``EXPECTED_DEFAULT_TABLE``, or a wood-product JSON
  with the wrong trials, analytic value or meet, or a ``fail`` status;
- a replay mismatch, or a record that was never collected;
- an output file whose sha256 differs from the digest pinned for the seed.

``run.py`` adds one more: an output whose bytes differ between passes.

Sizes: ``FULL`` is the benchmark; ``TINY`` runs the same steps in well under
a second and exists for the benchmark's own tests.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from obsim import checks, cli, core, exemplars, machines, product, stats
from obsim.randomness import substream_seed

FULL = {
    "sweep": {"qm_grid": 13, "qm_trials": 100_000, "eps_grid": 25, "eps_trials": 10_000,
              "uniform_curve": {}, "segment_map": {}},
    "trajectory": {"breaks": 10_000, "elastic_suite": {}},
    "audit": {"wood_trials": 10_000, "product_theorem": {}, "compaction": {},
              "record_angles": 11, "record_trials": 20_000, "product_records": 110_000},
}

TINY = {
    "sweep": {"qm_grid": 3, "qm_trials": 200, "eps_grid": 3, "eps_trials": 200,
              "uniform_curve": {"trials": 200},
              "segment_map": {"trials": 200, "grid_points": 2}},
    "trajectory": {"breaks": 200,
                   "elastic_suite": {"breaks": 200, "lh_trials": 2_000,
                                     "trajectories": 3, "trajectory_breaks": 10}},
    "audit": {"wood_trials": 200, "product_theorem": {"trials": 200},
              "compaction": {"cases": 10},
              "record_angles": 3, "record_trials": 100, "product_records": 100},
}

SIZES = {"full": FULL, "tiny": TINY}

# the CLI's own default epsilon grid for epsilon-sweep
SWEEP_EPSILONS = (0.25, 0.5, 0.75, 1.0)


@dataclass
class Step:
    name: str
    run: Callable[[], object]
    judge: Callable[[object], list]
    ops: int = 1
    outputs: dict = field(default_factory=dict)  # output label -> path the step writes
    # a step that calls no wrapped program boundary gets a span of its own
    span: str | None = None
    attrs: Callable | None = None  # (args, kwargs, result) -> counts for that span


@dataclass
class Plan:
    steps: list
    observations: int

    @property
    def outputs(self) -> dict:
        return {label: path for step in self.steps for label, path in step.outputs.items()}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest_failures(digests: dict, pinned: dict) -> list:
    """One failure per output whose digest differs from its pin."""
    return [
        f"{label}: sha256 {digest[:12]} differs from pinned {pinned[label][:12]}"
        for label, digest in sorted(digests.items())
        if label in pinned and pinned[label] != digest
    ]


def _cli_step(name: str, argv: list, outputs: dict, judge_rows: Callable[[], list]) -> Step:
    def judge(code) -> list:
        if code != 0:
            return [f"{name}: obsim exited {code}"]
        return judge_rows()

    return Step(name, lambda: cli.main(argv), judge, 1, outputs)


def _check_step(name: str, kwargs: dict) -> Step:
    def run():
        return getattr(checks, name)(**kwargs)

    def judge(result) -> list:
        return [] if result.passed else [f"{name}: {result.detail}"]

    return Step(name, run, judge)


def _fmt9(value: float) -> str:
    return format(value, ".9g")


def machine_row_failures(path: Path, grid: int, trials: int, widths) -> list:
    """Judge a machine-sweep CSV: row count, trial count, the analytic column
    against ``quantum_machine_prob`` and the estimator status of each row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    gammas = [float(g) for g in np.linspace(0.0, math.pi, grid)]
    expected = [(g, w) for w in widths for g in gammas]
    if len(rows) != len(expected):
        return [f"{path.name}: {len(rows)} rows, expected {len(expected)}"]
    failures = []
    for row, (gamma, width) in zip(rows, expected):
        profile = machines.UniformBreak() if width is None else machines.SegmentBreak(width)
        p = machines.quantum_machine_prob(gamma, profile)
        yes, n = int(row["yes"]), int(row["trials"])
        where = f"{path.name} gamma={gamma:.4f} eps={row['epsilon']}"
        if n != trials:
            failures.append(f"{where}: {n} trials, expected {trials}")
        elif row["analytic_p"] != _fmt9(p):
            failures.append(f"{where}: analytic_p {row['analytic_p']} != {_fmt9(p)}")
        elif stats.estimator_status(yes, n, p) == "fail":
            failures.append(f"{where}: estimator status fail ({yes}/{n} vs {p})")
    return failures


def trajectory_failures(path: Path, breaks: int) -> list:
    """Judge the final row of an elastic trajectory CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != breaks + 1:
        return [f"{path.name}: {len(rows)} rows, expected {breaks + 1}"]
    last = rows[-1]
    failures = []
    if abs(float(last["total_length"]) - 1.0) > 1e-9:
        failures.append(f"{path.name}: final total_length {last['total_length']}")
    if int(last["n_fragments"]) != breaks + 1:
        failures.append(f"{path.name}: final n_fragments {last['n_fragments']} != {breaks + 1}")
    return failures


def taxonomy_json_failures(path: Path) -> list:
    from obsim.taxonomy import EXPECTED_DEFAULT_TABLE

    rows = json.loads(Path(path).read_text(encoding="utf-8"))["rows"]
    got = [(r["property"], r["effect"], r["predictability"], r["persistence"]) for r in rows]
    want = [(name, e.value, p.value, s.value) for name, e, p, s in EXPECTED_DEFAULT_TABLE]
    return [] if got == want else [f"{path.name}: taxonomy rows differ from the reference table"]


def wood_json_failures(path: Path, trials: int) -> list:
    rows = json.loads(Path(path).read_text(encoding="utf-8"))["rows"]
    want = ((1.0, True), (0.5, False))
    if len(rows) != len(want):
        return [f"{path.name}: {len(rows)} rows, expected {len(want)}"]
    failures = []
    for row, (p, meet) in zip(rows, want):
        if row["trials"] != trials or row["analytic_p"] != p or row["meet_actual"] is not meet:
            failures.append(f"{path.name}: row {row['product']} has wrong trials/analytic/meet")
        elif stats.estimator_status(row["yes"], row["trials"], p) == "fail":
            failures.append(f"{path.name}: row {row['product']} estimator status fail")
    return failures


def _sweep(size: dict, seed: int, workdir: Path) -> Plan:
    qm, eps = workdir / "quantum_machine.csv", workdir / "epsilon_sweep.csv"
    common = ["--seed", str(seed), "--workers", "1"]
    steps = [
        _cli_step(
            "cli.quantum-machine",
            ["quantum-machine", "--gamma-grid", str(size["qm_grid"]),
             "--trials", str(size["qm_trials"]), "--out", str(qm)] + common,
            {"quantum_machine.csv": qm},
            lambda: machine_row_failures(qm, size["qm_grid"], size["qm_trials"], [None]),
        ),
        _cli_step(
            "cli.epsilon-sweep",
            ["epsilon-sweep", "--gamma-grid", str(size["eps_grid"]),
             "--trials", str(size["eps_trials"]), "--out", str(eps)]
            + [a for w in SWEEP_EPSILONS for a in ("--epsilon", str(w))] + common,
            {"epsilon_sweep.csv": eps},
            lambda: machine_row_failures(eps, size["eps_grid"], size["eps_trials"],
                                         SWEEP_EPSILONS),
        ),
        _check_step("check_uniform_curve", size["uniform_curve"]),
        _check_step("check_segment_regime_map", size["segment_map"]),
    ]
    uc = {"trials": 100_000, **size["uniform_curve"]}
    sm = {"trials": 10_000, "grid_points": 25, "widths": (0.25, 0.5, 0.75), **size["segment_map"]}
    observations = (
        size["qm_grid"] * size["qm_trials"]
        + size["eps_grid"] * len(SWEEP_EPSILONS) * size["eps_trials"]
        + 8 * uc["trials"]
        + sm["grid_points"] * len(sm["widths"]) * sm["trials"]
    )
    return Plan(steps, observations)


def _trajectory(size: dict, seed: int, workdir: Path) -> Plan:
    band = workdir / "elastic.csv"
    breaks = size["breaks"]
    steps = [
        _cli_step(
            "cli.elastic",
            ["elastic", "--trials", str(breaks), "--seed", str(seed), "--workers", "1",
             "--out", str(band)],
            {"elastic.csv": band},
            lambda: trajectory_failures(band, breaks),
        ),
        _check_step("check_elastic_suite", size["elastic_suite"]),
    ]
    es = {"breaks": 10_000, "lh_trials": 100_000, "trajectories": 50, "trajectory_breaks": 60,
          **size["elastic_suite"]}
    observations = (breaks + es["breaks"] + es["lh_trials"]
                    + es["trajectories"] * es["trajectory_breaks"])
    return Plan(steps, observations)


def machine_process(profile) -> core.ObservationProcess:
    return machines.quantum_machine_process(
        machines.ElasticApparatus((0.0, 0.0, 1.0), 1.0, profile))


def coin_process() -> core.ObservationProcess:
    """Non-burnability x floatability: a fair coin on fresh dry intact wood."""
    return product.product_process(
        product.ProductObservation((exemplars.NON_BURNABILITY, exemplars.FLOATABILITY)))


def record_specs(size: dict, seed: int) -> list:
    """(process, state, trials, seed) for every recorded run of ``audit``:
    the uniform machine at equispaced angles on [0, pi], then the coin
    product on fresh dry intact wood."""
    angles = size["record_angles"]
    machine = machine_process(machines.UniformBreak())
    specs = [
        (machine, machines.sphere_point_at(k * math.pi / (angles - 1)), size["record_trials"],
         substream_seed(seed, k))
        for k in range(angles)
    ]
    specs.append((coin_process(), exemplars.DRY_INTACT, size["product_records"],
                  substream_seed(seed, angles)))
    return specs


def _audit(size: dict, seed: int, workdir: Path) -> Plan:
    tax, wood = workdir / "classify.json", workdir / "wood_product.json"
    common = ["--seed", str(seed), "--workers", "1"]
    steps = [
        _cli_step("cli.classify", ["classify", "--out", str(tax)] + common,
                  {"classify.json": tax}, lambda: taxonomy_json_failures(tax)),
        _cli_step("cli.wood-product",
                  ["wood-product", "--trials", str(size["wood_trials"]), "--out", str(wood)]
                  + common,
                  {"wood_product.json": wood},
                  lambda: wood_json_failures(wood, size["wood_trials"])),
        _check_step("check_taxonomy_fixture", {}),
        _check_step("check_product_choice_theorem", size["product_theorem"]),
        _check_step("check_compaction_creation", size["compaction"]),
    ]
    specs = record_specs(size, seed)
    for spec in specs:
        steps += _record_steps(*spec)
    n_records = sum(spec[2] for spec in specs)
    pt = {"trials": 10_000, **size["product_theorem"]}
    cc = {"cases": 100, **size["compaction"]}
    observations = (2 * size["wood_trials"] + 2 * pt["trials"] + 2 * cc["cases"]
                    + 2 * n_records)
    return Plan(steps, observations)


def _record_steps(process, state, trials: int, seed: int) -> list:
    """Collect ``trials`` records, then replay each; the records are dropped
    before the next recorded run starts."""
    recorded: list = []

    def collect():
        recorded[:] = stats.run_trials(process, state, trials, seed, collect_records=True).records

    def replay_all():
        replayed = len(recorded)
        mismatches = sum(1 for rec in recorded if not core.verify_replay(process, rec))
        recorded.clear()
        return replayed, mismatches

    def judge_replay(result) -> list:
        # every record is one operation; records never collected fail too
        replayed, mismatches = result
        return ([f"replay mismatch: {process.id}"] * mismatches
                + [f"{process.id}: record never collected"] * (trials - replayed))

    return [
        # collecting is not an operation of its own; a shortfall fails the replays
        Step("records.collect", collect, lambda _none: [], 0),
        Step("core.verify_replay", replay_all, judge_replay, trials,
             span="core.verify_replay", attrs=_replay_attrs),
    ]


def _replay_attrs(_args, _kwargs, result) -> dict:
    replayed, mismatches = result
    return {"replays": replayed, "replays_ok": replayed - mismatches}


_PLANS = {"sweep": _sweep, "trajectory": _trajectory, "audit": _audit}
WORKLOADS = tuple(_PLANS)


def plan(workload: str, seed: int, workdir: Path, size: str = "full") -> Plan:
    """The steps of one pass of ``workload`` writing its outputs to ``workdir``."""
    return _PLANS[workload](SIZES[size][workload], seed, Path(workdir))


def planned_ops(workload: str, size: str = "full") -> int:
    """Operations one pass attempts; known without running it."""
    return sum(step.ops for step in plan(workload, 0, Path("."), size).steps)
