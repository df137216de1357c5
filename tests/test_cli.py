import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import signal
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from obsim import checks, cli
from obsim.checks import CheckResult
from obsim.cli import (ELASTIC_HEADER, QM_HEADER, TAXONOMY_HEADER, WOOD_HEADER, emit_csv,
                       emit_json)


def run(*argv):
    return cli.main(list(argv))


def _tree(root: Path) -> dict:
    """Every path under ``root`` with its bytes (None for a directory)."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


def read_rows(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestExitCodes:
    def test_success(self, tmp_path):
        out = tmp_path / "qm.csv"
        assert run("quantum-machine", "--gamma-grid", "13", "--trials", "100",
                   "--seed", "42", "--out", str(out)) == 0
        rows = read_rows(out)
        assert rows[0] == list(QM_HEADER)
        assert len(rows) == 14  # header + 13 grid points

    def test_zero_trials_is_config_error(self, capsys):
        assert run("quantum-machine", "--trials", "0") == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], ["no-such-scenario"], ["--seed", "7"]])
    def test_missing_or_unknown_scenario_names_the_choices(self, argv, capsys):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in cli.SCENARIOS)

    def test_bad_gamma_grid(self, capsys):
        assert run("quantum-machine", "--gamma-grid", "1", "--trials", "10") == 2
        assert "--gamma-grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag,bound",
        [
            (("elastic", "--trials", "200001"), "--trials", "200000"),
            (("quantum-machine", "--trials", "10000001"), "--trials", "10000000"),
            (("all", "--trials", "10000001", "--out", "bundle"), "--trials", "10000000"),
            (("quantum-machine", "--gamma-grid", "1000000000"), "--gamma-grid", "10000"),
            (("epsilon-sweep", "--gamma-grid", "10001"), "--gamma-grid", "10000"),
            (("epsilon-sweep",) + ("--epsilon", "0.5") * 17, "--epsilon", "16"),
        ],
    )
    def test_over_a_bound_rejected_before_any_trial(self, tmp_path, monkeypatch, capsys,
                                                   argv, flag, bound):
        def must_not_run(cfg):
            raise AssertionError("a scenario ran before the bounds were checked")

        monkeypatch.setattr(cli, "_SCENARIO_RUNNERS",
                            {name: must_not_run for name in cli._SCENARIO_RUNNERS})
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert flag in err and bound in err
        assert not any(tmp_path.iterdir())

    def test_bounds_are_far_from_the_defaults(self):
        for row in cli._SCENARIOS.values():
            assert 10 * row.trials <= row.max_trials
            assert 10 * row.gamma_grid <= cli._MAX_GAMMA_GRID

    def test_bad_epsilon(self, capsys):
        assert run("epsilon-sweep", "--epsilon", "1.5", "--trials", "10") == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_bad_seed(self, capsys):
        assert run("quantum-machine", "--seed", "-1", "--trials", "10") == 2
        assert "--seed" in capsys.readouterr().err

    def test_check_failure_maps_to_exit_3(self, monkeypatch, tmp_path, capsys):
        failing = lambda: CheckResult("stub", False, "synthetic failure")
        monkeypatch.setattr(checks, "check_taxonomy_fixture", failing)
        out = tmp_path / "t.csv"
        assert run("classify", "--out", str(out), "--check") == 3
        assert "synthetic failure" in capsys.readouterr().err

    def test_check_runs_the_checks_of_its_row_once_each(self, monkeypatch, tmp_path):
        ran = []
        for name, check in list(vars(checks).items()):
            if name.startswith("check_") and callable(check):
                stub = lambda name=name: ran.append(name) or CheckResult(name, True, "")
                monkeypatch.setattr(checks, name, stub)
        assert run("all", "--trials", "3", "--gamma-grid", "2", "--out", str(tmp_path / "all"),
                   "--check") == 0
        assert ran == ["check_uniform_curve", "check_segment_regime_map",
                       "check_product_choice_theorem", "check_compaction_creation",
                       "check_elastic_suite", "check_taxonomy_fixture", "check_csv_determinism"]
        ran.clear()
        assert run("wood-product", "--trials", "3", "--out", str(tmp_path / "wood.csv"),
                   "--check") == 0
        assert ran == ["check_product_choice_theorem", "check_compaction_creation"]

    def test_classify_check_passes(self, tmp_path):
        out = tmp_path / "taxonomy.json"
        assert run("classify", "--out", str(out), "--check") == 0
        payload = json.loads(out.read_text())
        names = [row["property"] for row in payload["rows"]]
        assert names == [
            "burnability", "floatability", "incompressibility", "sawtooth-position",
            "quantum-machine", "left-handedness", "fragmentation",
        ]


class TestOutputs:
    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("quantum-machine", "--gamma-grid", "5", "--trials", "500", "--seed", "3")
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_mirrors_csv(self, tmp_path):
        c, j = tmp_path / "r.csv", tmp_path / "r.json"
        args = ("quantum-machine", "--gamma-grid", "3", "--trials", "200", "--seed", "5")
        assert run(*args, "--out", str(c)) == 0
        assert run(*args, "--out", str(j), "--format", "json") == 0
        rows = read_rows(c)
        payload = json.loads(j.read_text())
        assert payload["meta"]["seed"] == 5
        assert payload["meta"]["version"]
        assert len(payload["rows"]) == len(rows) - 1
        assert list(payload["rows"][0].keys()) == sorted(QM_HEADER) or set(
            payload["rows"][0]
        ) == set(QM_HEADER)

    def test_format_inferred_from_extension(self, tmp_path):
        out = tmp_path / "auto.json"
        assert run("classify", "--out", str(out)) == 0
        json.loads(out.read_text())

    def test_epsilon_sweep_headers_and_regimes(self, tmp_path):
        out = tmp_path / "eps.csv"
        assert run("epsilon-sweep", "--gamma-grid", "5", "--trials", "400",
                   "--seed", "1", "--epsilon", "0.5", "--epsilon", "1.0",
                   "--out", str(out)) == 0
        rows = read_rows(out)
        assert rows[0] == list(QM_HEADER)
        assert len(rows) == 1 + 2 * 5
        for row in rows[1:]:
            gamma, eps = float(row[0]), float(row[1])
            if abs(math.cos(gamma)) > eps:
                assert row[4] in ("0", row[5])  # yes count is 0 or trials

    @pytest.mark.parametrize("ext", ["csv", "json"])
    def test_negative_zero_epsilon_is_zero(self, tmp_path, ext):
        outputs = []
        for eps in ("-0.0", "0"):
            out = tmp_path / f"eps{eps}.{ext}"
            assert run("epsilon-sweep", "--epsilon", eps, "--gamma-grid", "3",
                       "--trials", "20", "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]  # the parsed "0" is +0.0

    def test_wood_product_rows(self, tmp_path):
        out = tmp_path / "wood.csv"
        assert run("wood-product", "--trials", "300", "--seed", "2", "--out", str(out)) == 0
        rows = read_rows(out)
        assert rows[0] == list(WOOD_HEADER)
        certain = rows[1]
        assert certain[0] == "product(burnability,floatability)"
        assert certain[2] == "300" and certain[8 - 1] == "true"
        coin = rows[2]
        assert coin[0] == "product(non-burnability,floatability)"
        assert coin[7] == "false"

    def test_elastic_rows_conserve_length(self, tmp_path):
        out = tmp_path / "elastic.csv"
        assert run("elastic", "--trials", "50", "--seed", "4", "--out", str(out)) == 0
        rows = read_rows(out)
        assert rows[0] == list(ELASTIC_HEADER)
        assert len(rows) == 52  # header + initial state + 50 breaks
        last = rows[-1]
        assert int(last[1]) == 51
        assert abs(float(last[2]) - 1.0) < 1e-6  # column is rounded to 9 digits
        subhalf = [int(r[4]) for r in rows[1:]]
        assert subhalf == sorted(subhalf)

    def test_all_writes_one_file_per_scenario(self, tmp_path):
        outdir = tmp_path / "bundle"
        assert run("all", "--trials", "50", "--seed", "6", "--out", str(outdir)) == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [
            "classify.csv", "elastic.csv", "epsilon_sweep.csv",
            "quantum_machine.csv", "wood_product.csv",
        ]

    @pytest.mark.parametrize(
        "scenario,target",
        [
            pytest.param("elastic", "missing/band.csv", id="parent-missing"),
            pytest.param("elastic", ".", id="out-is-directory"),
            pytest.param("all", "taken.csv", id="all-out-is-file"),
            pytest.param("all", "busy", id="all-target-is-directory"),
        ],
    )
    def test_bad_out_rejected_before_any_trial(self, tmp_path, monkeypatch, capsys,
                                               scenario, target):
        def must_not_run(cfg):
            raise AssertionError("a scenario ran before --out was checked")

        monkeypatch.setattr(cli, "_SCENARIO_RUNNERS",
                            {name: must_not_run for name in cli._SCENARIO_RUNNERS})
        (tmp_path / "taken.csv").write_text("keep\n")
        (tmp_path / "busy" / "elastic.csv").mkdir(parents=True)  # blocks one 'all' target
        before = _tree(tmp_path)
        out = tmp_path / target
        assert run(scenario, "--trials", "6000", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err
        assert _tree(tmp_path) == before

    def test_all_with_two_epsilons_creates_nothing(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert run("all", "--trials", "10", "--out", str(out),
                   "--epsilon", "0.5", "--epsilon", "0.7") == 2
        assert "--epsilon" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "band.csv"
        out.write_text("old\n")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", refuse)
        assert run("elastic", "--trials", "5", "--out", str(out)) == 2
        assert "--out" in capsys.readouterr().err
        assert out.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["band.csv"]

    def test_failed_rename_in_all_leaves_every_old_file(self, tmp_path, monkeypatch, capsys):
        out, fresh = tmp_path / "bundle", tmp_path / "fresh"
        assert run("all", "--trials", "20", "--seed", "1", "--out", str(out)) == 0
        assert run("all", "--trials", "20", "--seed", "2", "--out", str(fresh)) == 0
        before = _tree(out)
        assert _tree(fresh) != before  # the refused run would change the bundle
        replace, targets = os.replace, []

        def refuse_first(src, dst):
            targets.append(dst)
            if len(targets) == 1:
                raise OSError("rename refused")
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", refuse_first)
        assert run("all", "--trials", "20", "--seed", "2", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"--out {targets[0]}" in err and "Traceback" not in err
        assert _tree(out) == before  # no file renamed, and no .tmp file left

    def test_refused_second_rename_in_all_leaves_only_the_first_file_new(self, tmp_path,
                                                                         monkeypatch, capsys):
        out, fresh = tmp_path / "bundle", tmp_path / "fresh"
        assert run("all", "--trials", "20", "--seed", "1", "--out", str(out)) == 0
        assert run("all", "--trials", "20", "--seed", "2", "--out", str(fresh)) == 0
        before, new = _tree(out), _tree(fresh)
        replace, targets = os.replace, []

        def refuse_second(src, dst):
            targets.append(Path(dst))
            if len(targets) == 2:
                raise OSError("rename refused")
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", refuse_second)
        assert run("all", "--trials", "20", "--seed", "2", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"--out {targets[1]}" in err and "Traceback" not in err
        first = targets[0].name
        assert new[first] != before[first]
        assert _tree(out) == {**before, first: new[first]}  # and no .tmp file left

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_target_is_written_through(self, tmp_path):
        # a device or pipe (/dev/null, /dev/stdout, <(...)) must not be renamed over
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run("elastic", "--trials", "5", "--out", str(fifo)) == 0
            data = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert data.splitlines()[0] == ",".join(ELASTIC_HEADER)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe.csv"]

    def test_symlink_target_is_written_through(self, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        assert run("elastic", "--trials", "5", "--out", str(link)) == 0
        assert link.is_symlink()
        assert read_rows(real)[0] == list(ELASTIC_HEADER)

    def test_all_requires_out(self, capsys):
        assert run("all", "--trials", "10") == 2
        assert "--out" in capsys.readouterr().err
        assert run("all", "--trials", "10", "--out", "") == 2  # not the working directory
        assert "--out" in capsys.readouterr().err

    def test_taxonomy_schema(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run("classify", "--out", str(out)) == 0
        rows = read_rows(out)
        assert rows[0] == list(TAXONOMY_HEADER)
        table = {r[0]: tuple(r[1:4]) for r in rows[1:]}
        assert table["burnability"] == ("invasive-destruction", "deterministic", "intrinsic")
        assert table["fragmentation"] == ("non-invasive-discovery", "intermediary", "ephemeral")

    def test_emit_csv_empty_stream_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_csv(out, QM_HEADER, [])
        assert out.read_text() == ",".join(QM_HEADER) + "\n"

    def test_stdout_when_no_out(self, capsys):
        assert run("classify") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(TAXONOMY_HEADER)
        assert len(lines) == 8


# --- the writer ----------------------------------------------------------------
# The emitters write into the open file; their bytes must equal a report built
# whole in memory: a StringIO CSV and one json.dumps string.

def _reference_csv(header, rows) -> str:
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format(value, ".9g")
        return "" if value is None else str(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(v) for v in row])
    return buffer.getvalue()


def _reference_json(meta, header, rows) -> str:
    objects = [{key: float(format(v, ".9g")) if isinstance(v, float) else v
                for key, v in zip(header, row)} for row in rows]
    return json.dumps({"meta": meta, "rows": objects}, indent=2, sort_keys=True) + "\n"


TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\'\n;') + ["é", "γ", "中", "😀"]), max_size=6)
CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**64 - 1),
    st.floats(),
    st.sampled_from((-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, 0.1, 1 / 3)),
    st.floats().map(np.float64),  # a float subclass: formatted as its float value
    TEXT,
)


@st.composite
def _tables(draw):
    header = draw(st.lists(TEXT.filter(bool), min_size=1, max_size=4, unique=True))
    return header, draw(st.lists(st.tuples(*[CELLS] * len(header)), max_size=4))


@given(table=_tables(), to_file=st.booleans(), fmt=st.sampled_from(("csv", "json")))
@example(table=(list(QM_HEADER), []), to_file=True, fmt="json")
@example(table=(list(QM_HEADER), []), to_file=False, fmt="json")
@settings(max_examples=200, deadline=None)
def test_emitters_match_a_report_built_in_memory(table, to_file, fmt):
    header, rows = table
    meta = {"scenario": "x", "seed": 2**64 - 1, "trials": 3, "version": "0"}
    if fmt == "csv":
        expected = _reference_csv(header, rows)
        emit = lambda out: emit_csv(out, header, iter(rows))
    else:
        expected = _reference_json(meta, header, rows)
        emit = lambda out: emit_json(out, meta, header, iter(rows))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "r.out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            emit(out if to_file else None)
        got = out.read_bytes() if to_file else stdout.getvalue().encode("utf-8")
    assert got == expected.encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("error", [OSError("disk full"), RuntimeError("bug"), KeyboardInterrupt()],
                         ids=["OSError", "RuntimeError", "KeyboardInterrupt"])
def test_rows_failing_mid_write_leave_the_old_file(tmp_path, monkeypatch, capsys, fmt, error):
    out = tmp_path / f"band.{fmt}"
    out.write_bytes(b"old\n")

    def rows():
        yield (0, 1, 1.0, 1.0, 0, 0.0, 0)
        raise error

    monkeypatch.setattr(cli, "_SCENARIO_RUNNERS", {"elastic": lambda cfg: (ELASTIC_HEADER, rows())})
    argv = ("elastic", "--out", str(out))
    if isinstance(error, OSError):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "disk full" in err
    else:
        with pytest.raises(type(error)):
            run(*argv)
    assert out.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def _python_child(stdout, *argv, buffered=False, **popen):
    """``buffered`` gives the child a buffered stdout even where PYTHONUNBUFFERED is set."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE,
                            text=True, env=env, **popen)


def _obsim_child(stdout, *argv, **popen):
    return _python_child(stdout, "-m", "obsim.cli", *argv, **popen)


# every scenario that writes to stdout ("all" writes a directory), in both formats
STDOUT_RUNS = [[scenario, "--trials", "3", "--gamma-grid", "2", "--format", fmt]
               for scenario in cli.SCENARIOS if scenario != "all" for fmt in ("csv", "json")]

# runs each argv list as ``python -m obsim.cli`` does, each in a child forked
# after one import of obsim and, through obsim.checks, of every scenario module
# (a fresh interpreter per run costs about 0.14 s on a 2-vCPU host), with stdout
# on a pipe whose reader is gone ("closed") or on a file at that path that may
# not grow; prints [exit code, stderr] per run
_FORK_EACH = """
import json, os, resource, signal, sys
from obsim import checks, cli
children = []
for argv, stdout in json.loads(sys.argv[1]):
    err_read, err_write = os.pipe()
    pid = os.fork()
    if pid == 0:
        if stdout == "closed":
            read_end, out = os.pipe()
            os.close(read_end)
        else:
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write over the limit fails instead
            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
            resource.setrlimit(resource.RLIMIT_FSIZE, (0, hard))
            out = os.open(stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        os.dup2(out, 1)
        os.dup2(err_write, 2)  # a pipe: the file-size limit does not reach it
        raise SystemExit(cli.main(argv))
    os.close(err_write)
    children.append((pid, err_read))
results = []
for pid, err_read in children:
    with os.fdopen(err_read) as err:
        text = err.read()
    results.append((os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), text))
print(json.dumps(results))
"""


def _forked_runs(stdout_of):
    """[exit code, stderr] of every run in STDOUT_RUNS, each on ``stdout_of(argv)``."""
    runs = json.dumps([(argv, stdout_of(argv)) for argv in STDOUT_RUNS])
    results, err = _python_child(subprocess.PIPE, "-c", _FORK_EACH, runs).communicate(timeout=60)
    assert err == ""
    return json.loads(results)


def test_reader_closing_stdout_early_exits_1_without_a_traceback():
    # 100 000 breaks are megabytes of rows, so each child is still writing when
    # its reader leaves after the first line; the two formats run side by side
    children = {fmt: _obsim_child(subprocess.PIPE, "elastic", "--trials", "100000",
                                  "--format", fmt) for fmt in ("csv", "json")}
    first_lines = {}
    for fmt, child in children.items():
        first_lines[fmt] = child.stdout.readline()
        child.stdout.close()
    assert first_lines == {"csv": ",".join(ELASTIC_HEADER) + "\n", "json": "{\n"}
    # a reader gone before anything is written: even a report shorter than the
    # pipe's buffer meets EPIPE, at its first flush
    forked = _forked_runs(lambda argv: "closed")
    # on a buffered stdout that report is still buffered after its failed flush,
    # so the interpreter's last flush at exit meets the closed pipe once more
    read_end, write_end = os.pipe()
    os.close(read_end)
    children["buffered"] = _obsim_child(write_end, "classify", buffered=True)
    os.close(write_end)
    for child in children.values():
        assert child.wait(timeout=60) == 1
        assert child.stderr.read() == ""  # no traceback, no message
        child.stderr.close()
    assert forked == [[1, ""]] * len(STDOUT_RUNS)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
def test_failed_stdout_write_exits_2_naming_stdout(tmp_path):
    with open("/dev/full", "w") as full:
        children = [_obsim_child(full, "elastic", "--trials", "10", "--format", fmt)
                    for fmt in ("csv", "json")]
    # a stdout redirected to a file that may not grow: every report's first flush fails
    forked = _forked_runs(lambda argv: str(tmp_path / f"{argv[0]}.{argv[-1]}"))
    results = [(child.wait(timeout=60), child.stderr.read()) for child in children] + forked
    for child in children:
        child.stderr.close()
    for (code, err), argv in zip(results, [["elastic"]] * 2 + STDOUT_RUNS, strict=True):
        assert code == 2, argv
        assert "Traceback" not in err, argv
        assert "error: cannot write stdout" in err, argv
    assert len(list(tmp_path.iterdir())) == len(STDOUT_RUNS)
    assert {p.stat().st_size for p in tmp_path.iterdir()} == {0}


def _file_size_limit(limit):
    def apply():  # runs in the child only
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write over the limit fails instead
        resource.setrlimit(resource.RLIMIT_FSIZE,
                           (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
    return apply


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
def test_failed_all_bundle_leaves_every_old_file(tmp_path):
    # at 100 kB the seed-2 bundle fails at elastic.csv, after three of its
    # files were written: none of them may reach the directory
    out = tmp_path / "bundle"
    assert run("all", "--seed", "1", "--out", str(out)) == 0
    before = _tree(out)
    child = _obsim_child(subprocess.DEVNULL, "all", "--seed", "2", "--out", str(out),
                         preexec_fn=_file_size_limit(100_000))
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    assert "Traceback" not in err and "elastic.csv" in err
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
    assert _tree(out) == before


# runs each argv list through cli.main in one process; prints [exit, stderr] per run
_MAIN_EACH = """
import contextlib, io, json, sys
from obsim import cli
results = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        results.append((cli.main(argv), err.getvalue()))
print(json.dumps(results))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
def test_write_over_a_file_size_limit_exits_2_and_keeps_the_old_file(tmp_path):
    # every scenario in both formats, seed 2 over its seed-1 file, under each
    # limit in its own child: a report longer than the limit must fail whole
    names = [f"{scenario}.{fmt}" for scenario in cli.SCENARIOS if scenario != "all"
             for fmt in ("csv", "json")]

    def argv(name, seed, out):
        return [name.split(".")[0], "--trials", "3", "--gamma-grid", "2", "--seed", str(seed),
                "--out", str(out / name)]

    for name in names:
        assert run(*argv(name, 2, tmp_path)) == 0
    new = {name: (tmp_path / name).read_bytes() for name in names}
    children = {}
    for limit in (0, 100, 1000):
        out = tmp_path / str(limit)
        out.mkdir()
        for name in names:
            assert run(*argv(name, 1, out)) == 0
        old = _tree(out)
        runs = json.dumps([argv(name, 2, out) for name in names])
        children[limit] = (out, old, _python_child(subprocess.PIPE, "-c", _MAIN_EACH, runs,
                                                   preexec_fn=_file_size_limit(limit)))
    outcomes = {0: set(), 2: set()}
    for limit, (out, old, child) in children.items():
        results, child_err = child.communicate(timeout=60)
        assert child.returncode == 0, child_err
        for name, (code, err) in zip(names, json.loads(results)):
            assert "Traceback" not in err
            assert code == (2 if len(new[name]) > limit else 0), (limit, name, err)
            assert not code or f"cannot write --out {out / name}" in err
            outcomes[code].add(name)
            expected = old[name] if code else new[name]
            assert (out / name).read_bytes() == expected, (limit, name)
        assert sorted(p.name for p in out.iterdir()) == sorted(names)  # no temp file left
    assert outcomes[0] and outcomes[2]  # both outcomes were exercised


def test_json_rows_are_written_before_the_next_is_drawn():
    meta = {"scenario": "x", "seed": 1, "trials": 4, "version": "0"}
    header = ("step", "x", "s")
    table = [(k, k / 4, "γ" * k) for k in range(4)]  # floats that .9g leaves exact
    drawn = 0
    writes = []  # (rows drawn so far, text) for every write

    class Recorder:
        def write(self, text):
            writes.append((drawn, text))

        def flush(self):  # stdout is flushed once the report is written
            pass

    def rows():
        nonlocal drawn
        for row in table:
            drawn += 1
            yield row

    with contextlib.redirect_stdout(Recorder()):
        emit_json(None, meta, header, rows())
    assert "".join(text for _, text in writes) == _reference_json(meta, header, table)
    for k, row in enumerate(table):
        row_text = json.dumps(dict(zip(header, row)), indent=2, sort_keys=True)
        before_next = "".join(text for n, text in writes if n == k + 1)
        assert "\n    " + row_text.replace("\n", "\n    ") in before_next


@pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in cli.SCENARIOS)])
def test_help_lists_every_flag_and_both_trial_bounds(argv, capsys):
    # argparse reads a stray % in a help string only when it prints the help
    assert run(*argv) == 0
    page = capsys.readouterr().out
    flags = [f"--{key.replace('_', '-')}" for key in cli._CONFIG_KEYS] + ["--check", "--config"]
    assert all(flag in page for flag in flags)
    assert "10000000" in page and "200000" in page


@pytest.mark.parametrize("scenario,flags", [
    ("classify", ["--seed", "7"]),
    ("quantum-machine", ["--seed", "7", "--trials", "50", "--gamma-grid", "3"]),
])
def test_flags_may_come_before_the_scenario(scenario, flags, capsys):
    assert run(*flags, scenario) == 0
    before = capsys.readouterr().out
    assert run(scenario, *flags) == 0
    assert capsys.readouterr().out == before


@pytest.mark.parametrize("scenario", sorted(cli._SCENARIO_RUNNERS))
def test_every_scenario_yields_its_rows_lazily(scenario):
    args = cli._build_parser().parse_args([scenario, "--trials", "3", "--gamma-grid", "2"])
    header, rows = cli._SCENARIO_RUNNERS[scenario](cli._merge_config(args))
    assert iter(rows) is rows and not isinstance(rows, (list, tuple))
    assert all(len(row) == len(header) for row in rows)


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# archived sweep settings\n"
            "trials = 120\n"
            "seed = 9\n"
            "gamma-grid = 4\n",
            encoding="utf-8",
        )
        out = tmp_path / "a.csv"
        assert run("quantum-machine", "--config", str(config), "--out", str(out)) == 0
        rows = read_rows(out)
        assert len(rows) == 5
        assert rows[1][5] == "120"
        out2 = tmp_path / "b.csv"
        assert run("quantum-machine", "--config", str(config), "--trials", "60",
                   "--out", str(out2)) == 0
        assert read_rows(out2)[1][5] == "60"

    @pytest.mark.parametrize(
        "text,line,key",
        [
            pytest.param("bogus = 1\n", 1, "bogus", id="unknown-key"),
            pytest.param("trials = abc\n", 1, "trials", id="trials-not-int"),
            pytest.param("gamma-grid = 3\nseed = 1.5\n", 2, "seed", id="seed-not-int"),
            pytest.param("# widths\nepsilon = 0.5, x\n", 2, "epsilon", id="epsilon-not-float"),
            pytest.param("trials = 10\nepsilon =\n", 2, "epsilon", id="epsilon-empty"),
            pytest.param("epsilon = ,\n", 1, "epsilon", id="epsilon-only-commas"),
            pytest.param("out =\n", 1, "out", id="out-empty"),
        ],
    )
    def test_bad_config_line_rejected(self, tmp_path, capsys, text, line, key):
        config = tmp_path / "bad.cfg"
        config.write_text(text, encoding="utf-8")
        assert run("quantum-machine", "--config", str(config)) == 2
        err = capsys.readouterr().err
        assert f"{config}:{line}:" in err and key in err
        assert "Traceback" not in err

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "trials = 50\nseed = 7\ngamma-grid = 3\nepsilon = 0.5\n"
        outs = []
        for name, data in (("plain", text.encode("utf-8")),
                           ("bom", b"\xef\xbb\xbf" + text.encode("utf-8"))):
            config, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
            config.write_bytes(data)
            assert run("epsilon-sweep", "--config", str(config), "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_epsilon_list_in_config(self, tmp_path):
        config = tmp_path / "eps.cfg"
        config.write_text("epsilon = 0.25, 0.75\ntrials = 100\ngamma-grid = 3\n")
        out = tmp_path / "eps.csv"
        assert run("epsilon-sweep", "--config", str(config), "--out", str(out)) == 0
        eps_values = {row[1] for row in read_rows(out)[1:]}
        assert eps_values == {"0.25", "0.75"}

    @pytest.mark.parametrize("key,value,changes_bytes", [
        ("trials", "7", True), ("seed", "5", True), ("gamma-grid", "3", True),
        ("epsilon", "0.25, 0.75", True), ("out", None, False), ("format", "json", True),
        ("workers", "2", False),
    ])
    def test_config_key_gives_the_bytes_of_its_flag(self, tmp_path, capsys, key, value,
                                                    changes_bytes):
        small = {"--trials": "20", "--gamma-grid": "3"}
        small.pop(f"--{key}", None)
        base = ["epsilon-sweep", *(arg for item in small.items() for arg in item)]
        reports = {}
        for via in ("config", "flag", "neither"):
            out = tmp_path / via / "report.txt"  # an extension that names no format
            out.parent.mkdir()
            text = str(out) if key == "out" else value
            argv = base if key == "out" else [*base, "--out", str(out)]
            if via == "config":
                config = tmp_path / "run.cfg"
                config.write_text(f"{key} = {text}\n", encoding="utf-8")
                argv = [*argv, "--config", str(config)]
            elif via == "flag":
                argv = [*argv, *(arg for tok in text.split(", ") for arg in (f"--{key}", tok))]
            assert run(*argv) == 0
            reports[via] = out.read_bytes() if out.exists() else capsys.readouterr().out.encode()
        assert reports["config"] == reports["flag"]
        assert (reports["neither"] != reports["flag"]) == changes_bytes

    def test_unknown_format_in_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "xml.cfg"
        config.write_text("format = xml\n", encoding="utf-8")
        assert run("quantum-machine", "--config", str(config)) == 2
        err = capsys.readouterr().err
        assert "--format" in err and "xml" in err and "Traceback" not in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("quantum-machine", "--config", "/nonexistent.cfg") == 2
        assert "--config" in capsys.readouterr().err
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(b"# \xe9psilon\ntrials = 10\n")
        assert run("quantum-machine", "--config", str(latin1)) == 2
        err = capsys.readouterr().err
        assert "--config" in err and "Traceback" not in err


def test_cli_run_leaves_scipy_stats_unimported(tmp_path):
    # scipy is a test dependency only, so a run loads no scipy module; numpy
    # loads only when a run counts outcomes in blocks, never with ``import obsim.cli``,
    # which loads no other obsim module; a scenario loads only the modules it runs
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from obsim import cli\n"
        "numpy_at_import = 'numpy' in sys.modules\n"
        "obsim_at_import = sorted(m for m in sys.modules if m.startswith('obsim.'))\n"
        f"code = cli.main(['quantum-machine', '--gamma-grid', '3', '--trials', '10', "
        f"'--out', {str(tmp_path / 'qm.csv')!r}])\n"
        "print(code, any(m.partition('.')[0] == 'scipy' for m in sys.modules), numpy_at_import,\n"
        "      ','.join(obsim_at_import), ','.join(m for m in ('obsim.checks', 'obsim.taxonomy',\n"
        "      'obsim.product', 'obsim.exemplars') if m in sys.modules) or '-')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False", "False", "obsim.cli", "-"]


@pytest.mark.parametrize("argv, loaded", [
    (["quantum-machine", "--gamma-grid", "3", "--trials", "10", "--out", "qm.csv"], "csv"),
    (["classify", "--format", "json", "--out", "table.json"], "json"),
], ids=["csv", "json"])
def test_cli_run_loads_only_its_own_writers_module(tmp_path, argv, loaded):
    # ``import obsim.cli`` loads neither report format's module, and a run loads
    # only its writer's; a fresh interpreter per format, as a module stays loaded.
    # Neither run loads ``statistics``: the Wilson bounds' z is a constant
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from obsim import cli\n"
        "at_import = [m for m in ('csv', 'json') if m in sys.modules]\n"
        f"code = cli.main({argv!r})\n"
        "print(code, ','.join(at_import) or '-', ','.join(m for m in ('csv', 'json') if m in sys.modules),\n"
        "      'statistics' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "-", loaded, "False"]
    assert (tmp_path / argv[-1]).stat().st_size > 0


@pytest.mark.parametrize("n", [2, 3, 13, 25, 101, 1000])
def test_gamma_grid_is_linspace_bit_for_bit(n):
    rows = cli._machine_rows({"gamma_grid": n, "trials": 1, "seed": 0}, None)
    assert [row[0].hex() for row in rows] == [g.hex() for g in np.linspace(0.0, math.pi, n).tolist()]


# --- the CLI contract on generated input -------------------------------------
# Every run either succeeds (0) or exits 2 naming a flag or the config's
# path:line, never with a traceback, and an exit 2 leaves the file tree as it
# was. Trials stay <= 20 and grids <= 4 so a few hundred runs take seconds.

OUT_NAMES = ("r.csv", "r.json", "bundle", "missing/r.csv", ".", "taken.csv", "busy")
CONFIG_VALUES = ("", "0", "1", "3", "20", "-1", "1.5", "0.5", "0.25, 0.75", ",", "nan",
                 "abc", "csv", "json", "xml", "1e3",
                 ", ".join(str(k / 16) for k in range(16)),  # the most widths allowed
                 ", ".join(str(k / 16) for k in range(17)))  # one too many
CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(("trials", "seed", "gamma-grid", "gamma_grid", "epsilon",
                               "format", "workers", "bogus", "check")),
              st.sampled_from(CONFIG_VALUES)),
    st.tuples(st.just("out"), st.sampled_from(("",) + OUT_NAMES)),
    st.sampled_from((("# note", None), ("no equals sign", None), ("", None))),
)


def _flag(name, values):
    return st.one_of(st.just(()), st.sampled_from(values).map(lambda v: (name, v)))


ARGV_TAILS = st.tuples(
    st.sampled_from(cli.SCENARIOS),
    st.sampled_from(("1", "2", "7", "20", "0", "-1")).map(lambda n: ("--trials", n)),
    st.sampled_from(("2", "3", "4", "1")).map(lambda n: ("--gamma-grid", n)),
    _flag("--seed", ("0", "7", str(2**64 - 1), "-1", str(2**64), "x")),
    st.lists(st.sampled_from(("0", "0.5", "1", "0.25", "1.5", "nan", "x")), max_size=2).map(
        lambda ws: tuple(a for w in ws for a in ("--epsilon", w))),
    _flag("--format", ("csv", "json", "csv", "json", "xml")),
    _flag("--workers", ("1", "3", "0")),
    _flag("--out", ("",) + OUT_NAMES),
)


@given(
    tail=ARGV_TAILS,
    lines=st.one_of(st.none(), st.none(), st.lists(CONFIG_LINES, max_size=3)),
    bad_byte=st.sampled_from((False, False, False, True)),
)
@settings(max_examples=300, deadline=None)
def test_cli_contract_on_generated_input(tail, lines, bad_byte):
    scenario, *flags = tail
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "taken.csv").write_text("keep\n")
        (root / "busy" / "elastic.csv").mkdir(parents=True)  # blocks one 'all' target

        def path(name):
            return str(root / name) if name else ""

        argv = [scenario]
        for flag in flags:
            if flag:
                argv += [flag[0], path(flag[1]) if flag[0] == "--out" else flag[1]]
        config = root / "run.cfg"
        if lines is not None:
            text = "".join(
                f"{key}\n" if value is None
                else f"{key} = {path(value) if key == 'out' else value}\n"
                for key, value in lines
            ).encode("utf-8")
            config.write_bytes(text + (b"seed = \xff\n" if bad_byte else b""))
            argv += ["--config", str(config)]
        before = _tree(root)
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = cli.main(argv)
        err = err.getvalue()
        event(f"exit {code}")
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err
        if code == 2:
            assert re.search(r"--[a-z]", err) or f"{config}:" in err, (argv, err)
            assert _tree(root) == before, argv
