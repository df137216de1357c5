"""Tests of the benchmark itself: metrics, failure rules, span arithmetic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(workload, trace, tmp_path, pinned=None):
    return run.run_workload(workload, 0, 0, trace, size="tiny",
                            pinned=pinned or tmp_path / "no-pins.json", work=tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_emits_every_end_to_end_metric(workload, tmp_path):
    result = _tiny(workload, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_workload_emits_every_per_layer_metric(workload, tmp_path):
    result = _tiny(workload, True, tmp_path)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    records = tracing.read([result["trace_file"]])
    traced = [p["run"] for p in result["passes"] if p["traced"]]
    measured = tracing.layer_metrics(tracing.run_summary(records, traced[0]))
    assert {name: unit for name, (_v, unit) in measured.items()} == {
        name: want[name] for name in measured}
    summary = tracing.format_summary(records)
    assert f"workload {workload}" in summary and "trace.overhead_s" in summary


def test_tampered_pinned_digest_fails_the_op_that_wrote_it(tmp_path):
    digests = _tiny("audit", False, tmp_path)["passes"][0]["digests"]
    assert set(digests) == {"classify.json", "wood_product.json"}
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"audit": {"0": digests}}))
    assert _tiny("audit", False, tmp_path, pins)["failed"] == 0

    tampered = dict(digests, **{"classify.json": "0" * 64})
    pins.write_text(json.dumps({"audit": {"0": tampered}}))
    result = _tiny("audit", False, tmp_path, pins)
    assert result["failed"] == len(result["passes"]) >= 1  # the classify call of each pass
    assert not result["correct"]


def test_digest_failures_only_for_pinned_labels():
    assert workloads.digest_failures({"a": "x", "b": "y"}, {"a": "x"}) == []
    assert len(workloads.digest_failures({"a": "x", "b": "y"}, {"a": "z", "b": "y"})) == 1


def test_sweep_row_with_wrong_analytic_fails(tmp_path):
    path = tmp_path / "qm.csv"
    header = "gamma_rad,epsilon,analytic_p,empirical_p,yes,trials,wilson_lo,wilson_hi,seed\n"
    good = header + "0,1,1,1,100,100,0.9,1,7\n3.14159265,1,0,0,0,100,0,0.1,7\n"
    path.write_text(good)
    assert workloads.machine_row_failures(path, 2, 100, [None]) == []
    path.write_text(good.replace("0,1,1,1,100", "0,1,0.5,1,100"))
    assert len(workloads.machine_row_failures(path, 2, 100, [None])) == 1
    # a deterministic row must match the closed form exactly
    path.write_text(good.replace("1,100,100,0.9", "1,99,100,0.9"))
    assert len(workloads.machine_row_failures(path, 2, 100, [None])) == 1


def test_final_trajectory_row_is_judged(tmp_path):
    path = tmp_path / "band.csv"
    header = "step,n_fragments,total_length,max_fragment,subhalf_fragments,fragmentation_p,seed\n"
    path.write_text(header + "0,1,1,1,0,0,0\n1,2,1,0.6,1,0.5,0\n")
    assert workloads.trajectory_failures(path, 1) == []
    path.write_text(header + "0,1,1,1,0,0,0\n1,3,1.00001,0.6,1,0.5,0\n")
    assert len(workloads.trajectory_failures(path, 1)) == 2


def _span(sid, parent, name, start, end, **attrs):
    record = {"kind": "span", "run": "r", "id": sid, "parent": parent, "name": name,
              "start": start, "end": end}
    if attrs:
        record["attrs"] = attrs
    return record


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "cli.scenario.quantum-machine", 1.0, 4.0),
        _span(2, 0, "cli.emit", 3.0, 6.0, bytes=12),  # overlaps its sibling
        _span(3, 1, "stats.sweep", 2.0, 3.0),
        _span(4, 3, "stats.run_trials", 2.0, 2.5, trials=10, records=0),
        _span(5, 0, "stats.chi_square", 9.5, 12.0),  # clipped to the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 10.0 - 5.0 - 0.5, 1: 2.0, 2: 3.0, 3: 0.5, 4: 0.5, 5: 2.5})

    summary = tracing.run_summary(spans, "r")
    metrics = tracing.layer_metrics(summary)
    assert metrics["cli.scenario.quantum-machine.self_s"] == (pytest.approx(2.0), "s")
    assert metrics["stats.sweep.self_s"] == (pytest.approx(0.5), "s")
    assert metrics["stats.ns_per_trial"] == (pytest.approx(0.05e9), "ns")
    assert metrics["cli.bytes_out"] == (12, "bytes")
    assert metrics["stats.chi_square.s"] == (pytest.approx(2.5), "s")
    assert "checks.check_uniform_curve.s" not in metrics


def test_overhead_is_traced_minus_untraced_median():
    records = [{"kind": "pass", "run": str(i), "workload": "w", "traced": i % 2 == 1,
                "run_s": s} for i, s in enumerate((1.0, 1.5, 3.0, 1.25))]
    assert tracing.overhead_s(records, "w") == pytest.approx(1.375 - 2.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "audit",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
