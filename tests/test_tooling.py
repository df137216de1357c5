"""The test set-up and the tools around the package do what they promise."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(argv, cwd, **env):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, **env}, timeout=120)


def test_a_failing_given_test_prints_its_example(tmp_path):
    # under the project's warnings-as-errors settings, with this suite's conftest
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n",
        encoding="utf-8",
    )
    done = run(["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
                "--rootdir", str(tmp_path), "test_fails.py"], tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example: test_fails(" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr


def test_reach_prints_the_lines_a_run_never_reached(tmp_path):
    code = "from obsim import cli; raise SystemExit(cli.main(['classify', '--out', 'c.csv']))"
    src = str(ROOT / "src")
    env = {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = run([str(ROOT / "tools" / "reach.py"), "-c", code], tmp_path, **env)
    assert (tmp_path / "c.csv").exists()
    out = done.stdout
    # classify reaches no elastic walk, which gates, and the devnull redirect is allowed
    assert "\n  break_trajectory:\n" in out
    assert "os.dup2(devnull, sys.stdout.fileno())  [allowed: " in out
    assert "== reach: the traced run exited 0" in out
    assert "unreached lines gate: src/obsim/" in out
    assert done.returncode == 1, done.stderr
    # a run that fails keeps its own status
    failed = run([str(ROOT / "tools" / "reach.py"), "-c", "raise SystemExit(3)"], tmp_path, **env)
    assert failed.returncode == 3, failed.stderr
