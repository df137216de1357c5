"""Every module-level import in src/, tests/ and demos/ is read by its file,
and the package's public names are those of its home modules."""

import ast
import importlib
from pathlib import Path

import pytest

import obsim

ROOT = Path(__file__).resolve().parents[1]


def _unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]  # `import a.b` binds `a`
                if name != "*" and name not in read:
                    unread.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return unread


def test_every_module_level_import_is_read():
    files = sorted(path for top in ("src", "tests", "demos") for path in (ROOT / top).rglob("*.py"))
    assert len(files) > 20
    assert [line for path in files for line in _unread_imports(path)] == []


# each public name of the package, by the module that defines it
PUBLIC = {
    "core": "NO YES Branch NotDecidableError ObservationProcess ObservationRecord ObsimError "
            "Outcome PropertyDef ScenarioMismatchError is_actual observe repeat_probabilities "
            "replay verify_replay",
    "exemplars": "ASHES BURNABILITY DRY_INTACT FLOATABILITY FRAGMENTATION INCOMPRESSIBILITY "
                 "LEFT_HANDEDNESS NON_BURNABILITY NON_FRAGMENTATION WET_INTACT BandStep "
                 "ElasticBandState Integrity Moisture SolidState WoodState break_trajectory",
    "machines": "BreakageProfile ElasticApparatus LinePosition PointBreak SawtoothRuler "
                "SegmentBreak SpherePoint UniformBreak quantum_machine_prob "
                "quantum_machine_process sawtooth_position_process sphere_point_at",
    "product": "ProductObservation meet_actual product_observe product_process",
    "randomness": "RecordingStream SequenceStream TrialStream substream_seed",
    "stats": "TrialReport chi_square_against_analytic estimator_status run_trials sweep "
             "wilson_interval",
    "taxonomy": "EXPECTED_DEFAULT_TABLE Effect EffectVerdict ObservationClassification "
                "Persistence Predictability StateProbe classify classify_persistence "
                "classify_predictability default_suite effect_verdict taxonomy_table",
}


def test_every_public_name_is_its_home_modules_object():
    homes = {name: module for module, names in PUBLIC.items() for name in names.split()}
    assert len(homes) == 71
    assert sorted(obsim.__all__) == sorted(homes)
    star: dict = {}
    exec("from obsim import *", star)
    listed = dir(obsim)
    for name, module in homes.items():
        home = getattr(importlib.import_module(f"obsim.{module}"), name)
        assert getattr(obsim, name) is home, name
        assert star[name] is home, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="'no_such_name'"):
        obsim.no_such_name
