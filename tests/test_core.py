import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obsim import (
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
    ElasticApparatus,
    ElasticBandState,
    NotDecidableError,
    ObservationProcess,
    Outcome,
    ProductObservation,
    PropertyDef,
    ScenarioMismatchError,
    SegmentBreak,
    SequenceStream,
    SolidState,
    SpherePoint,
    TrialStream,
    UniformBreak,
    WoodState,
    is_actual,
    observe,
    product_process,
    quantum_machine_process,
    repeat_probabilities,
    replay,
    run_trials,
    sphere_point_at,
    verify_replay,
)
from obsim.core import NO, YES

MACHINE = quantum_machine_process(ElasticApparatus((0.0, 0.0, 1.0), 1.0, UniformBreak()))
COIN = product_process(ProductObservation((NON_BURNABILITY, FLOATABILITY)))
# floatability declaring its posts as representatives, with no repeat answer
LOOSE_FLOATABILITY = dataclasses.replace(FLOATABILITY, posts_exact=False)

ALL_PROCESS_STATES = [
    (BURNABILITY, DRY_INTACT),
    (BURNABILITY, WET_INTACT),
    (BURNABILITY, ASHES),
    (NON_BURNABILITY, DRY_INTACT),
    (FLOATABILITY, WET_INTACT),
    (FLOATABILITY, ASHES),
    (INCOMPRESSIBILITY, SolidState(1.0, 0.05)),
    (INCOMPRESSIBILITY, SolidState(2.0, 0.0)),
    (LEFT_HANDEDNESS, ElasticBandState.unbroken(1.0)),
    (LEFT_HANDEDNESS, ElasticBandState((0.7, 0.3), 1.0)),
    (FRAGMENTATION, ElasticBandState((0.7, 0.3), 1.0)),
    (NON_FRAGMENTATION, ElasticBandState((0.4, 0.3, 0.3), 1.0)),
    (MACHINE, sphere_point_at(math.pi / 3)),
]


# two-outcome processes built on core.yes_no_branches: the machine over every
# profile kind (widths 0 and 1 included) and both blind picks over small bands
RHO = (0.0, 0.0, 1.0)
PROFILES = st.one_of(
    st.just(UniformBreak()),
    st.one_of(st.sampled_from((0.0, 1.0)), st.floats(min_value=0.0, max_value=1.0)).map(SegmentBreak),
)
SPHERE_STATES = st.one_of(
    st.floats(min_value=0.0, max_value=math.pi).map(sphere_point_at),
    st.sampled_from((SpherePoint(RHO), SpherePoint((0.0, 0.0, -1.0)), SpherePoint((1.0, 0.0, 0.0)))),
)
FRAGMENT_LISTS = st.lists(
    st.one_of(st.sampled_from((0.125, 0.25, 0.5)), st.floats(min_value=1e-3, max_value=1.0)),
    min_size=1,
    max_size=6,
)
TWO_OUTCOME_CASES = st.one_of(
    st.builds(
        lambda profile, state: (quantum_machine_process(ElasticApparatus(RHO, 1.0, profile)), state),
        PROFILES,
        SPHERE_STATES,
    ),
    st.builds(
        lambda process, frags: (process, ElasticBandState(tuple(frags), math.fsum(frags))),
        st.sampled_from((FRAGMENTATION, NON_FRAGMENTATION)),
        FRAGMENT_LISTS,
    ),
)
DRAW_GRID = 60  # a multiple of every band size above, so each pick index gets equal draws


class TestTwoOutcomeBranches:
    @given(case=TWO_OUTCOME_CASES, seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_branches_analytic_and_kernel_agree(self, case, seed):
        process, state = case
        branches = process.branches(state)
        analytic = process.analytic(state)
        assert math.fsum(b.prob for b in branches) == pytest.approx(1.0, abs=1e-15)
        assert sum(b.prob for b in branches if b.outcome is YES) == analytic
        assert all(b.prob > 0.0 for b in branches)
        if analytic in (0.0, 1.0):
            certain = YES if analytic == 1.0 else NO
            assert all(process.kernel(state, TrialStream(seed, i))[0] is certain for i in range(50))
        # the kernel's yes share over an even grid of single draws is the
        # analytic value to within one grid step; this is what catches an
        # analytic value strictly inside (0, 1) that the kernel never realizes
        yes = sum(
            process.kernel(state, SequenceStream(((j + 0.5) / DRAW_GRID,)))[0] is YES
            for j in range(DRAW_GRID)
        )
        assert abs(yes / DRAW_GRID - analytic) <= 1.0 / DRAW_GRID


class TestOutcome:
    def test_exactly_two_values(self):
        assert {o.value for o in Outcome} == {"yes", "no"}


class TestObserve:
    def test_burnability_dry_intact(self):
        outcome, post, record = observe(BURNABILITY, DRY_INTACT, TrialStream(0))
        assert outcome is YES
        assert post == ASHES
        assert record.draws == ()

    def test_floatability_on_ashes(self):
        outcome, post, _ = observe(FLOATABILITY, ASHES, TrialStream(0))
        assert outcome is NO
        assert post == ASHES

    def test_scenario_mismatch(self):
        with pytest.raises(ScenarioMismatchError):
            observe(BURNABILITY, SolidState(1.0, 0.0), TrialStream(0))
        with pytest.raises(ScenarioMismatchError):
            observe(MACHINE, DRY_INTACT, TrialStream(0))
        with pytest.raises(ScenarioMismatchError):
            observe(COIN, SolidState(1.0, 0.0), TrialStream(0))

    def test_record_indexes_and_draw_counts(self):
        _, _, rec = observe(LEFT_HANDEDNESS, ElasticBandState.unbroken(1.0), TrialStream(3), index=7)
        assert rec.index == 7
        assert len(rec.draws) == 1
        _, _, rec = observe(MACHINE, sphere_point_at(1.0), TrialStream(3))
        assert len(rec.draws) == 1

    @pytest.mark.parametrize("process,state", ALL_PROCESS_STATES, ids=lambda v: str(v))
    def test_variant_closure(self, process, state):
        _, post, _ = observe(process, state, TrialStream(11))
        assert type(post) is type(state)

    @pytest.mark.parametrize("process,state", ALL_PROCESS_STATES, ids=lambda v: str(v))
    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    @example(seed=0)
    @settings(max_examples=25, deadline=None)
    def test_replay_determinism(self, process, state, seed):
        _, _, record = observe(process, state, TrialStream(seed))
        assert verify_replay(process, record)
        assert replay(process, record) == (record.outcome, record.post_state)

    # the other states answer yes and no at every draw: the machine at both
    # poles, the coin on ashes (each component answers there as it does not on dry wood)
    @pytest.mark.parametrize("process,state,elsewhere", [
        (MACHINE, sphere_point_at(1.0), (sphere_point_at(0.0), sphere_point_at(math.pi))),
        (COIN, DRY_INTACT, (ASHES,)),
    ])
    def test_tampered_records_fail_replay(self, process, state, elsewhere):
        # the records of a run in blocks; both outcomes come up in 64 trials
        records = run_trials(process, state, 64, 5, collect_records=True).records
        assert {rec.outcome for rec in records} == {YES, NO}
        for rec in records:
            other = next(s for s in elsewhere
                         if process.kernel(s, SequenceStream(rec.draws))[0] is not rec.outcome)
            # replayed after the true pre-state, so a kernel that keeps values
            # of the last state it saw must notice the change
            assert verify_replay(process, rec)
            assert not verify_replay(process, rec._replace(pre_state=other))
            flip = next(r for r in (0.0, 0.9)
                        if process.kernel(state, SequenceStream((r,)))[0] is not rec.outcome)
            assert not verify_replay(process, rec._replace(outcome=NO if rec.outcome is YES else YES))
            assert not verify_replay(process, rec._replace(draws=(flip,)))
            assert not verify_replay(process, rec._replace(post_state=state))
            # a record holds exactly the draws its observation read
            assert not verify_replay(process, rec._replace(draws=rec.draws + (0.123, 0.456)))
            with pytest.raises(RuntimeError, match="exhausted"):
                verify_replay(process, rec._replace(draws=rec.draws[:-1]))
        # burnability reads no draw at all
        _, _, burnt = observe(BURNABILITY, DRY_INTACT, TrialStream(5))
        assert burnt.draws == () and verify_replay(BURNABILITY, burnt)
        assert not verify_replay(BURNABILITY, burnt._replace(draws=(0.5,)))

    @pytest.mark.parametrize("process,state", ALL_PROCESS_STATES, ids=lambda v: str(v))
    def test_equal_post_state_objects_replay(self, process, state):
        # replay compares post-states by identity first, then by value
        _, post, record = observe(process, state, TrialStream(11))
        twin = dataclasses.replace(post)
        assert twin is not post
        assert verify_replay(process, record._replace(post_state=twin))

    def test_records_are_immutable_tuples(self):
        _, _, rec = observe(MACHINE, sphere_point_at(1.0), TrialStream(3), index=7)
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        assert repr(rec) == (
            f"ObservationRecord(process_id={rec.process_id!r}, pre_state={rec.pre_state!r}, "
            f"outcome={rec.outcome!r}, post_state={rec.post_state!r}, draws={rec.draws!r}, "
            "index=7)"
        )
        process_id, pre, outcome, post, draws, index = rec
        assert rec == (process_id, pre, outcome, post, draws, index)


class TestActuality:
    def test_burnability_actual_on_dry_intact(self):
        assert is_actual(PropertyDef("burnability", BURNABILITY), DRY_INTACT)

    def test_fragmentation_not_actual_on_unbroken(self):
        prop = PropertyDef("fragmentation", FRAGMENTATION)
        assert not is_actual(prop, ElasticBandState.unbroken(1.0))

    def test_left_handedness_never_actual(self):
        prop = PropertyDef("left-handedness", LEFT_HANDEDNESS)
        for frags in ((1.0,), (0.7, 0.3), (0.25, 0.25, 0.25, 0.25)):
            assert not is_actual(prop, ElasticBandState(frags, 1.0))

    def test_no_analytic_is_not_decidable(self):
        bare = ObservationProcess("bare", WoodState, BURNABILITY.kernel)
        with pytest.raises(NotDecidableError):
            is_actual(PropertyDef("bare", bare), DRY_INTACT)

    @pytest.mark.parametrize("process,state", ALL_PROCESS_STATES, ids=lambda v: str(v))
    def test_actuality_iff_certainty(self, process, state):
        prop = PropertyDef(process.id, process)
        assert is_actual(prop, state) == (process.analytic(state) == 1.0)


class TestRepeatYesCertain:
    def test_compacted_solid_vacuously_certain(self):
        # a solid the press would squeeze beyond 1% cannot answer yes at all,
        # so no yes-post-state is reachable
        assert repeat_probabilities(INCOMPRESSIBILITY, SolidState(1.0, 0.05)) == ()

    def test_left_handedness_must_be_recreated(self):
        assert repeat_probabilities(LEFT_HANDEDNESS, ElasticBandState.unbroken(1.0)) == (0.5,)
        assert repeat_probabilities(LEFT_HANDEDNESS, ElasticBandState((0.6, 0.4), 1.0)) == (0.5,)

    def test_floatability_stays_certain(self):
        assert repeat_probabilities(FLOATABILITY, DRY_INTACT) == (1.0,)
        assert repeat_probabilities(FLOATABILITY, WET_INTACT) == (1.0,)

    def test_machine_endpoint_stays_certain(self):
        assert repeat_probabilities(MACHINE, sphere_point_at(math.pi / 3)) == (1.0,)

    def test_empty_wherever_yes_is_unreachable(self):
        # representative posts and no repeat answer: nothing to repeat on ashes
        assert repeat_probabilities(LOOSE_FLOATABILITY, ASHES) == ()
        # a declared repeat answer is not read where yes cannot happen
        unreachable = dataclasses.replace(LEFT_HANDEDNESS, analytic=lambda state: 0.0)
        assert repeat_probabilities(unreachable, ElasticBandState.unbroken(1.0)) == ()

    def test_not_decidable_without_enumeration(self):
        opaque = ObservationProcess(
            "opaque", WoodState, BURNABILITY.kernel, analytic=BURNABILITY.analytic
        )
        with pytest.raises(NotDecidableError):
            repeat_probabilities(opaque, DRY_INTACT)
        bare = ObservationProcess("bare", WoodState, BURNABILITY.kernel)
        with pytest.raises(NotDecidableError):
            repeat_probabilities(bare, DRY_INTACT)
        with pytest.raises(NotDecidableError):
            repeat_probabilities(LOOSE_FLOATABILITY, DRY_INTACT)
