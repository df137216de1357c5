"""obsim: Monte Carlo toy models of observation.

Yes/no observation processes over simple entities (wood, solids, elastic
bands, a particle on a sphere, a particle on a line), product observations
of meet properties, a three-axis taxonomy of observational processes, and a
seedable trial harness that verifies empirical statistics against the
closed-form probabilities.

Each public name, and each submodule, is imported on its first use, so
``import obsim`` loads no scenario module.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "core": (
        "NO", "YES", "Branch", "NotDecidableError", "ObservationProcess",
        "ObservationRecord", "ObsimError", "Outcome", "PropertyDef",
        "ScenarioMismatchError", "is_actual", "observe", "repeat_probabilities",
        "replay", "verify_replay",
    ),
    "exemplars": (
        "ASHES", "BURNABILITY", "DRY_INTACT", "FLOATABILITY", "FRAGMENTATION",
        "INCOMPRESSIBILITY", "LEFT_HANDEDNESS", "NON_BURNABILITY",
        "NON_FRAGMENTATION", "WET_INTACT", "BandStep", "ElasticBandState",
        "Integrity", "Moisture", "SolidState", "WoodState", "break_trajectory",
    ),
    "machines": (
        "BreakageProfile", "ElasticApparatus", "LinePosition", "PointBreak",
        "SawtoothRuler", "SegmentBreak", "SpherePoint", "UniformBreak",
        "quantum_machine_prob", "quantum_machine_process",
        "sawtooth_position_process", "sphere_point_at",
    ),
    "product": (
        "ProductObservation", "meet_actual", "product_observe", "product_process",
    ),
    "randomness": ("RecordingStream", "SequenceStream", "TrialStream", "substream_seed"),
    "stats": (
        "TrialReport", "chi_square_against_analytic", "estimator_status", "run_trials",
        "sweep", "wilson_interval",
    ),
    "taxonomy": (
        "EXPECTED_DEFAULT_TABLE", "Effect", "EffectVerdict", "ObservationClassification",
        "Persistence", "Predictability", "StateProbe", "classify", "classify_persistence",
        "classify_predictability", "default_suite", "effect_verdict", "taxonomy_table",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (*_HOMES, "blocks", "checks", "cli")

__all__ = list(_HOME_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
