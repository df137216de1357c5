"""Pinned output bytes: the report files are a pure function of the flags.

The digests below were taken from ``obsim all --out DIR --trials 500
--seed 3 --gamma-grid 5`` in CSV and in JSON. A refactor that changes any of
them changes the determinism contract and must say so.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsim import (
    FLOATABILITY,
    FRAGMENTATION,
    NON_BURNABILITY,
    YES,
    ElasticBandState,
    ProductObservation,
    SequenceStream,
    TrialStream,
)
from obsim import cli

GOLDEN_SHA256 = {
    "csv": {
        "classify.csv": "8e0ba95aec7b6c50163bf1f6c9abe937c01ef5a6f9afb4f2cb59137cff5dd19b",
        "elastic.csv": "e08bef6a0a1a0e80b5bccc48a738acf0299612962cec587aef3ad32120f5b3e4",
        "epsilon_sweep.csv": "7bb0f1913050ade7a45e06592713deb36e1d2fb38a13befa81cb8ecb46e85989",
        "quantum_machine.csv": "fc0c5b3cb829c5f2f1c56c8acdddbc502f2ec9524fa74a5dcf409d0fa561bfdc",
        "wood_product.csv": "c195ad834a510af475f7f73b4847603681e15e96674fb959006232a02af1456d",
    },
    "json": {
        "classify.json": "f48616772328a1ecd063173d0fe28a37d7271ea08dbf21cffab80a4ea72369e3",
        "elastic.json": "b3295dd9c4d6bc8e481b5db341b0d0b5b3dcf0de266da9d2140ef0b0959abeb9",
        "epsilon_sweep.json": "970c44a23418c1f4efab015a052ff273458f989a80fe8b2d278fee27aaa3334d",
        "quantum_machine.json": "f134dead478a088d16bf9723ccc1c59eff3395e3735b8565194b86a19d8fedf0",
        "wood_product.json": "83ce162162ac5f2e0323df9c5c751d9b5a5f8c9d61383baf4a95a1549f6d162a",
    },
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_SHA256))
def test_all_bundle_bytes_are_pinned(tmp_path, fmt):
    out = tmp_path / fmt
    argv = ["all", "--out", str(out), "--trials", "500", "--seed", "3",
            "--gamma-grid", "5", "--format", fmt]
    assert cli.main(argv) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN_SHA256[fmt]


# sha256 of each demo's stdout; the demos run at fixed seeds, so their text is
# as much a pure function of the code as the report files are
DEMO_STDOUT_SHA256 = {
    "classify_processes.py": "b906b8e00e6f29f25febc4c0f7c08ce1b8f5fc5e838ae8a7ad79d68658950375",
    "elastic_trajectories.py": "62d3b9bd31e4e14abd63eb5ea240c0aacf2da5574728212c23dc2d70230ca1ac",
    "epsilon_regimes.py": "4549b3aa41844c061a3842f1ca5d13da3c27dd86ca3d640b92aed918f1dbbbe0",
    "quantum_machine_curve.py": "67f3bfc8b4d6b71c8b3b8bfe977bb030d3abe7cc8eb33f0957c82dbf97633fa6",
    "replayable_records.py": "a1db47d2cb96fc1775435adccd65dfb68ec913faee11a3fa6ea3e57102712463",
    "wood_meet_properties.py": "411eb713595929bf920f1e1d054e22701781b2a0a826806f6c80600a8ec91fe5",
}
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_pinned(demo):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]


COIN = ProductObservation((NON_BURNABILITY, FLOATABILITY))


@given(r=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_two_component_choice_splits_at_one_half(r):
    assert COIN.choose(SequenceStream([r])) == (0 if r < 0.5 else 1)


def test_two_component_choice_boundary_draws():
    below, above = 0.5 - 2.0**-54, 1.0 - 2.0**-53
    for r, expected in ((0.0, 0), (below, 0), (0.5, 1), (above, 1)):
        assert COIN.choose(SequenceStream([r])) == expected


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       index=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_fragment_pick_and_product_choice_agree(seed, index):
    # fragment 0 is below half the band and fragment 1 above it, so the
    # fragmentation test answers yes exactly when the pick fell on index 0
    band = ElasticBandState((0.3, 0.7), 1.0)
    outcome, _post = FRAGMENTATION.kernel(band, TrialStream(seed, index))
    assert (outcome is YES) == (COIN.choose(TrialStream(seed, index)) == 0)
