import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from obsim import (
    BURNABILITY,
    DRY_INTACT,
    EXPECTED_DEFAULT_TABLE,
    FLOATABILITY,
    FRAGMENTATION,
    INCOMPRESSIBILITY,
    LEFT_HANDEDNESS,
    NO,
    YES,
    Branch,
    ElasticApparatus,
    ElasticBandState,
    Effect,
    Persistence,
    Predictability,
    PropertyDef,
    SegmentBreak,
    SolidState,
    StateProbe,
    UniformBreak,
    classify,
    classify_persistence,
    classify_predictability,
    default_suite,
    effect_verdict,
    quantum_machine_process,
    run_trials,
    sphere_point_at,
    taxonomy_table,
    verify_replay,
)
from obsim.core import NotDecidableError, ObservationProcess
from obsim.exemplars import ASHES, WET_INTACT, WoodState

WOOD_PROBE = StateProbe((DRY_INTACT, WET_INTACT, ASHES))
SOLID_PROBE = StateProbe((SolidState(1.0, 0.05), SolidState(2.0, 0.0)))
ELASTIC_PROBE = StateProbe(
    (
        ElasticBandState.unbroken(1.0),
        ElasticBandState((0.7, 0.3), 1.0),
        ElasticBandState((0.4, 0.3, 0.3), 1.0),
    )
)

MACHINE = quantum_machine_process(ElasticApparatus((0.0, 0.0, 1.0), 1.0, UniformBreak()))
INTERIOR_GAMMAS = tuple(k * math.pi / 7 for k in range(1, 7))
SPHERE_PROBE = StateProbe(tuple(sphere_point_at(g) for g in INTERIOR_GAMMAS))

# floatability with the same kernel, analytic and branches, but declaring its
# posts as representatives, which certify nothing about where a state goes
LOOSE_FLOATABILITY = dataclasses.replace(FLOATABILITY, posts_exact=False)


class TestEffect:
    def test_fragmentation_is_non_invasive_discovery(self):
        prop = PropertyDef("fragmentation", FRAGMENTATION)
        assert effect_verdict(prop, ELASTIC_PROBE).effect is Effect.NON_INVASIVE_DISCOVERY

    def test_incompressibility_is_creation(self):
        prop = PropertyDef("incompressibility", INCOMPRESSIBILITY)
        verdict = effect_verdict(prop, SOLID_PROBE)
        assert verdict.effect is Effect.INVASIVE_CREATION
        assert verdict.witness == SolidState(1.0, 0.05)
        # replay the confirming record and watch the actuality flip
        assert verify_replay(INCOMPRESSIBILITY, verdict.witness_record)
        assert INCOMPRESSIBILITY.analytic(verdict.witness_record.pre_state) == 0.0
        assert INCOMPRESSIBILITY.analytic(verdict.witness_record.post_state) == 1.0

    def test_burnability_is_destruction(self):
        prop = PropertyDef("burnability", BURNABILITY)
        verdict = effect_verdict(prop, WOOD_PROBE)
        assert verdict.effect is Effect.INVASIVE_DESTRUCTION
        assert verdict.witness == DRY_INTACT
        assert verify_replay(BURNABILITY, verdict.witness_record)
        assert BURNABILITY.analytic(verdict.witness_record.pre_state) == 1.0
        assert BURNABILITY.analytic(verdict.witness_record.post_state) == 0.0

    def test_floatability_is_invasive_discovery(self):
        prop = PropertyDef("floatability", FLOATABILITY)
        assert effect_verdict(prop, WOOD_PROBE).effect is Effect.INVASIVE_DISCOVERY

    def test_left_handedness_is_creation(self):
        probe = StateProbe((ElasticBandState.unbroken(1.0),))
        verdict = effect_verdict(PropertyDef("left-handedness", LEFT_HANDEDNESS), probe)
        assert verdict.effect is Effect.INVASIVE_CREATION
        assert verdict.witness_record is not None
        assert verify_replay(LEFT_HANDEDNESS, verdict.witness_record)
        assert verdict.witness_record.outcome is YES

    def test_machine_is_creation(self):
        verdict = effect_verdict(PropertyDef("machine", MACHINE), SPHERE_PROBE)
        assert verdict.effect is Effect.INVASIVE_CREATION
        assert MACHINE.analytic(verdict.witness_record.post_state) == 1.0

    def test_unconfirmed_witness_is_not_decidable(self):
        # yes has probability ~2.5e-7 here: the witness exists on paper, but no
        # record confirms it within the fixed number of tries
        probe = StateProbe((sphere_point_at(math.pi - 1e-3),))
        prop = PropertyDef("machine", MACHINE)
        with pytest.raises(NotDecidableError, match="1024 tries"):
            effect_verdict(prop, probe)
        row = classify(prop, probe)
        assert row.effect is None and row.witness_record is None
        assert any(note.startswith("effect: ") and "machine" in note for note in row.notes)

    @pytest.mark.parametrize("state,why", [
        (WET_INTACT, "cannot certify non-invasiveness"),  # no branch moves wet wood
        (DRY_INTACT, "cannot rule out destruction"),  # dry wood floats and gets wet
    ])
    def test_representative_posts_leave_effect_undecided(self, state, why):
        prop = PropertyDef("floatability", LOOSE_FLOATABILITY)
        probe = StateProbe((state,))
        with pytest.raises(NotDecidableError, match=why):
            effect_verdict(prop, probe)
        row = classify(prop, probe)
        assert row.effect is None and row.witness_record is None
        assert any(note.startswith("effect: ") and why in note for note in row.notes)

    def test_zero_probability_branch_is_not_invasive(self):
        # a certain branch that keeps the state, beside one of probability 0 that
        # would burn it: a branch that cannot happen neither moves nor destroys
        def branches(state):
            outcome = YES if FLOATABILITY.analytic(state) == 1.0 else NO
            return Branch(outcome, state, 1.0), Branch(NO, ASHES, 0.0)

        still = ObservationProcess(
            "still", WoodState, lambda state, rng: (branches(state)[0].outcome, state),
            analytic=FLOATABILITY.analytic, branches=branches,
        )
        verdict = effect_verdict(PropertyDef("still", still), WOOD_PROBE)
        assert verdict.effect is Effect.NON_INVASIVE_DISCOVERY

    def test_not_decidable_without_branches(self):
        bare = ObservationProcess(
            "bare", WoodState, BURNABILITY.kernel, analytic=BURNABILITY.analytic
        )
        with pytest.raises(NotDecidableError):
            effect_verdict(PropertyDef("bare", bare), WOOD_PROBE)


class TestPredictability:
    def test_floatability_deterministic(self):
        assert classify_predictability(FLOATABILITY, WOOD_PROBE) is Predictability.DETERMINISTIC

    def test_machine_nowhere_deterministic_off_poles(self):
        assert (
            classify_predictability(MACHINE, SPHERE_PROBE)
            is Predictability.NOWHERE_DETERMINISTIC
        )

    def test_fragmentation_intermediary(self):
        assert classify_predictability(FRAGMENTATION, ELASTIC_PROBE) is Predictability.INTERMEDIARY

    def test_segment_machine_intermediary_across_regimes(self):
        process = quantum_machine_process(
            ElasticApparatus((0.0, 0.0, 1.0), 1.0, SegmentBreak(0.5))
        )
        probe = StateProbe(tuple(sphere_point_at(g) for g in (0.2, 1.0, 1.5, 2.0, 2.9)))
        assert classify_predictability(process, probe) is Predictability.INTERMEDIARY

    def test_exception_states_are_excluded(self):
        pole_states = (sphere_point_at(0.0), sphere_point_at(math.pi))
        probe_with = StateProbe(SPHERE_PROBE.states + pole_states, exceptions=pole_states)
        assert (
            classify_predictability(MACHINE, probe_with)
            is Predictability.NOWHERE_DETERMINISTIC
        )
        probe_without = StateProbe(SPHERE_PROBE.states + pole_states)
        assert classify_predictability(MACHINE, probe_without) is Predictability.INTERMEDIARY

    def test_all_states_exceptional_not_decidable(self):
        probe = StateProbe((DRY_INTACT,), exceptions=(DRY_INTACT,))
        with pytest.raises(NotDecidableError):
            classify_predictability(FLOATABILITY, probe)

    def test_deterministic_has_zero_empirical_variance(self):
        for state in WOOD_PROBE.states:
            report = run_trials(FLOATABILITY, state, 2000, seed=3)
            assert report.yes in (0, 2000)


class TestPersistence:
    def test_machine_position_is_intrinsic(self):
        assert classify_persistence(PropertyDef("m", MACHINE), SPHERE_PROBE) is Persistence.INTRINSIC

    def test_left_handedness_is_ephemeral(self):
        prop = PropertyDef("lh", LEFT_HANDEDNESS)
        assert classify_persistence(prop, ELASTIC_PROBE) is Persistence.EPHEMERAL

    def test_incompressibility_is_intrinsic(self):
        prop = PropertyDef("inc", INCOMPRESSIBILITY)
        assert classify_persistence(prop, SOLID_PROBE) is Persistence.INTRINSIC

    def test_burnability_is_intrinsic(self):
        # destroyed by its own test, but the repeat outcome stays certain
        prop = PropertyDef("burn", BURNABILITY)
        assert classify_persistence(prop, WOOD_PROBE) is Persistence.INTRINSIC

    def test_fragmentation_is_ephemeral(self):
        prop = PropertyDef("frag", FRAGMENTATION)
        assert classify_persistence(prop, ELASTIC_PROBE) is Persistence.EPHEMERAL


class TestTable:
    def test_default_suite_matches_reference(self):
        rows = taxonomy_table(default_suite())
        got = tuple((r.property_name, r.effect, r.predictability, r.persistence) for r in rows)
        assert got == EXPECTED_DEFAULT_TABLE

    def test_creation_rows_carry_replayable_witnesses(self):
        for (prop, _probe), row in zip(default_suite(), taxonomy_table(default_suite())):
            if row.effect in (Effect.INVASIVE_CREATION, Effect.INVASIVE_DESTRUCTION):
                assert row.witness is not None
                assert row.witness_record is not None
                assert verify_replay(prop.process, row.witness_record)

    def test_classification_is_pure(self):
        first = taxonomy_table(default_suite())
        second = taxonomy_table(default_suite())
        assert first == second
        with ThreadPoolExecutor(max_workers=4) as pool:
            tables = list(pool.map(lambda _: taxonomy_table(default_suite()), range(8)))
        assert all(t == first for t in tables)

    def test_not_decidable_rows_are_marked(self):
        bare = ObservationProcess("bare", WoodState, BURNABILITY.kernel)
        row = classify(PropertyDef("bare", bare), WOOD_PROBE)
        assert row.effect is None and row.predictability is None and row.persistence is None
        assert len(row.notes) == 3

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            StateProbe(())
        with pytest.raises(ValueError):
            StateProbe((DRY_INTACT, SolidState(1.0, 0.0)))
