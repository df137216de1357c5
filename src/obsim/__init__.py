"""obsim: Monte Carlo toy models of observation.

Yes/no observation processes over simple entities (wood, solids, elastic
bands, a particle on a sphere, a particle on a line), product observations
of meet properties, a three-axis taxonomy of observational processes, and a
seedable trial harness that verifies empirical statistics against the
closed-form probabilities.
"""

__version__ = "0.1.0"

from .core import (
    NO,
    YES,
    Branch,
    NotDecidableError,
    ObservationProcess,
    ObservationRecord,
    ObsimError,
    Outcome,
    PropertyDef,
    ScenarioMismatchError,
    is_actual,
    observe,
    repeat_probabilities,
    replay,
    verify_replay,
)
from .exemplars import (
    ASHES,
    BURNABILITY,
    DRY_INTACT,
    FLOATABILITY,
    FRAGMENTATION,
    INCOMPRESSIBILITY,
    LEFT_HANDEDNESS,
    NON_BURNABILITY,
    NON_FRAGMENTATION,
    WET_INTACT,
    BandStep,
    ElasticBandState,
    Integrity,
    Moisture,
    SolidState,
    WoodState,
    break_trajectory,
)
from .machines import (
    BreakageProfile,
    ElasticApparatus,
    LinePosition,
    PointBreak,
    SawtoothRuler,
    SegmentBreak,
    SpherePoint,
    UniformBreak,
    quantum_machine_prob,
    quantum_machine_process,
    sawtooth_position_process,
    sphere_point_at,
)
from .product import (
    ProductObservation,
    meet_actual,
    product_analytic,
    product_observe,
    product_process,
)
from .randomness import RecordingStream, SequenceStream, TrialStream, substream_seed
from .stats import (
    TrialReport,
    chi_square_against_analytic,
    estimator_status,
    run_trials,
    sweep,
    wilson_interval,
)
from .taxonomy import (
    EXPECTED_DEFAULT_TABLE,
    Effect,
    EffectVerdict,
    ObservationClassification,
    Persistence,
    Predictability,
    StateProbe,
    classify,
    classify_persistence,
    classify_predictability,
    default_suite,
    effect_verdict,
    taxonomy_table,
)
