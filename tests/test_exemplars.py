import math
import sys
from fractions import Fraction

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
    ElasticBandState,
    RecordingStream,
    SequenceStream,
    SolidState,
    TrialStream,
    break_trajectory,
)
from obsim.core import NO, YES
from obsim.exemplars import _units, _walk

NONE_STREAM = SequenceStream(())


def assert_step_is(step, state):
    """A walker step reports the kernel walk's state bit for bit."""
    assert step.n_fragments == len(state.fragments)
    assert step.total_length.hex() == math.fsum(state.fragments).hex()
    assert step.max_fragment.hex() == max(state.fragments).hex()
    assert step.subhalf == state.subhalf_count()
    assert step.state() == state


def enumerated_yes_fraction(process, state):
    """Oracle for the blind-pick processes: walk every equiprobable pick."""
    n = len(state.fragments)
    yes = 0
    for i in range(n):
        outcome, post = process.kernel(state, SequenceStream(((i + 0.5) / n,)))
        assert post == state
        if outcome is YES:
            yes += 1
    return yes / n


class TestWood:
    @pytest.mark.parametrize(
        "state,outcome,post",
        [
            (DRY_INTACT, YES, ASHES),
            (WET_INTACT, NO, WET_INTACT),
            (ASHES, NO, ASHES),
        ],
    )
    def test_burnability(self, state, outcome, post):
        assert BURNABILITY.kernel(state, NONE_STREAM) == (outcome, post)
        assert BURNABILITY.analytic(state) == (1.0 if outcome is YES else 0.0)

    @pytest.mark.parametrize(
        "state,outcome,post",
        [
            (DRY_INTACT, NO, ASHES),
            (WET_INTACT, YES, WET_INTACT),
            (ASHES, YES, ASHES),
        ],
    )
    def test_non_burnability_inverts(self, state, outcome, post):
        assert NON_BURNABILITY.kernel(state, NONE_STREAM) == (outcome, post)
        assert NON_BURNABILITY.analytic(state) == (1.0 if outcome is YES else 0.0)

    @pytest.mark.parametrize(
        "state,outcome,post",
        [
            (DRY_INTACT, YES, WET_INTACT),
            (WET_INTACT, YES, WET_INTACT),
            (ASHES, NO, ASHES),
        ],
    )
    def test_floatability_wets_what_it_confirms(self, state, outcome, post):
        assert FLOATABILITY.kernel(state, NONE_STREAM) == (outcome, post)
        assert FLOATABILITY.analytic(state) == (1.0 if outcome is YES else 0.0)

    def test_float_then_burn_differs_from_burn_then_float(self):
        # both orders answer (yes, no), but along different trajectories
        _, wet = FLOATABILITY.kernel(DRY_INTACT, NONE_STREAM)
        burn_after_float = BURNABILITY.kernel(wet, NONE_STREAM)
        assert burn_after_float == (NO, WET_INTACT)
        _, ashes = BURNABILITY.kernel(DRY_INTACT, NONE_STREAM)
        float_after_burn = FLOATABILITY.kernel(ashes, NONE_STREAM)
        assert float_after_burn == (NO, ASHES)
        assert burn_after_float != float_after_burn


class TestSolid:
    def test_compressible_solid_fails_then_is_compacted(self):
        outcome, pressed = INCOMPRESSIBILITY.kernel(SolidState(1.0, 0.05), NONE_STREAM)
        assert outcome is NO
        assert pressed == SolidState(0.95, 0.0)

    def test_second_press_succeeds_unchanged(self):
        _, pressed = INCOMPRESSIBILITY.kernel(SolidState(1.0, 0.05), NONE_STREAM)
        outcome, again = INCOMPRESSIBILITY.kernel(pressed, NONE_STREAM)
        assert outcome is YES
        assert again == pressed

    def test_already_incompressible(self):
        outcome, post = INCOMPRESSIBILITY.kernel(SolidState(2.0, 0.0), NONE_STREAM)
        assert outcome is YES
        assert post == SolidState(2.0, 0.0)

    def test_threshold_is_inclusive(self):
        outcome, _ = INCOMPRESSIBILITY.kernel(SolidState(1.0, 0.01), NONE_STREAM)
        assert outcome is YES
        assert INCOMPRESSIBILITY.analytic(SolidState(1.0, 0.01)) == 1.0
        assert INCOMPRESSIBILITY.analytic(SolidState(1.0, 0.0100001)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SolidState(0.0, 0.5)
        with pytest.raises(ValueError):
            SolidState(1.0, 1.5)


class TestLeftHandedness:
    def test_yes_iff_left_piece_longer(self):
        band = ElasticBandState.unbroken(1.0)
        outcome, post = LEFT_HANDEDNESS.kernel(band, SequenceStream((0.75,)))
        assert outcome is YES
        assert post.fragments == (0.75, 0.25)
        outcome, post = LEFT_HANDEDNESS.kernel(band, SequenceStream((0.25,)))
        assert outcome is NO
        outcome, _ = LEFT_HANDEDNESS.kernel(band, SequenceStream((0.5,)))
        assert outcome is NO  # exact midpoint resolves to no

    def test_breaks_the_longest_fragment_lowest_index_on_ties(self):
        band = ElasticBandState((0.2, 0.3, 0.3, 0.2), 1.0)
        _, post = LEFT_HANDEDNESS.kernel(band, SequenceStream((0.5,)))
        assert post.fragments == (0.2, 0.15, 0.15, 0.3, 0.2)

    @pytest.mark.parametrize("fragments,yes_post,no_post", [
        ((1.0,), (0.75, 0.25), (0.25, 0.75)),
        ((0.7, 0.3),
         (0.5249999999999999, 0.17500000000000004, 0.3), (0.175, 0.5249999999999999, 0.3)),
        ((0.5, 0.3, 0.2), (0.375, 0.125, 0.3, 0.2), (0.125, 0.375, 0.3, 0.2)),
        # a tie: the leftmost of the equal longest fragments is split
        ((0.4, 0.4, 0.2),
         (0.30000000000000004, 0.09999999999999998, 0.4, 0.2),
         (0.1, 0.30000000000000004, 0.4, 0.2)),
    ])
    def test_representative_posts(self, fragments, yes_post, no_post):
        branches = LEFT_HANDEDNESS.branches(ElasticBandState(fragments, 1.0))
        assert [(b.outcome, b.post.fragments, b.post.original_length, b.prob)
                for b in branches] == [(YES, yes_post, 1.0, 0.5), (NO, no_post, 1.0, 0.5)]

    @pytest.mark.parametrize("fragments", [
        (5e-324,), (math.inf,), (0.5, math.inf), (math.nan, 0.5),
    ])
    def test_a_fragment_that_cannot_break_raises_before_drawing(self, fragments):
        # no draw splits these into two positive finite pieces, so redrawing
        # would never end; a finite stream shows that none is drawn
        state = ElasticBandState(fragments, 1.0)
        stream = RecordingStream(SequenceStream((0.5,) * 100))
        with pytest.raises(ValueError, match="cannot break"):
            LEFT_HANDEDNESS.kernel(state, stream)
        assert stream.draws == []
        with pytest.raises(ValueError, match="cannot break"):
            LEFT_HANDEDNESS.branches(state)

    def test_the_shortest_breakable_fragment_breaks(self):
        outcome, post = LEFT_HANDEDNESS.kernel(
            ElasticBandState.unbroken(1e-323), SequenceStream((0.5,))
        )
        assert outcome is NO
        assert post.fragments == (5e-324, 5e-324)

    def test_each_break_adds_one_fragment(self):
        state = ElasticBandState.unbroken(1.0)
        for k in range(40):
            assert len(state.fragments) == k + 1
            _, state = LEFT_HANDEDNESS.kernel(state, TrialStream(21, k))
        assert all(f > 0.0 for f in state.fragments)
        assert abs(math.fsum(state.fragments) - 1.0) <= 1e-9

    def test_analytic_is_a_fair_coin_everywhere(self):
        for frags in ((1.0,), (0.7, 0.3), (0.5, 0.25, 0.25)):
            assert LEFT_HANDEDNESS.analytic(ElasticBandState(frags, 1.0)) == 0.5

    @given(draws=st.lists(st.floats(min_value=1e-6, max_value=0.999999), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_length_conservation_and_monotone_subhalf(self, draws):
        state = ElasticBandState.unbroken(1.0)
        subhalf_before = 0
        for r in draws:
            _, state = LEFT_HANDEDNESS.kernel(state, SequenceStream((r,)))
            count = state.subhalf_count()
            assert count >= subhalf_before
            subhalf_before = count
        assert abs(math.fsum(state.fragments) - 1.0) <= 1e-9
        assert all(f > 0.0 for f in state.fragments)

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        breaks=st.integers(min_value=0, max_value=2_000),
    )
    @example(seed=0, breaks=2_000)
    @example(seed=2**64 - 1, breaks=2_000)
    @settings(max_examples=10, deadline=None)
    def test_break_trajectory_is_the_kernel_walk(self, seed, breaks):
        steps = list(break_trajectory(seed, breaks))
        assert len(steps) == breaks + 1
        state = ElasticBandState.unbroken(1.0)
        for i, step in enumerate(steps):
            if i:
                _, state = LEFT_HANDEDNESS.kernel(state, TrialStream(seed, i - 1))
            assert_step_is(step, state)

    @pytest.mark.parametrize("draws", [(0.5,), (0.5, 0.25, 0.75), (0.75, 0.5)])
    def test_walk_breaks_the_leftmost_of_equal_lengths(self, draws):
        # dyadic draws split exactly, so equal lengths tie at almost every break
        rs = [draws[i % len(draws)] for i in range(300)]
        state = ElasticBandState.unbroken(1.0)
        for i, step in enumerate(_walk(SequenceStream((r,)) for r in rs)):
            if i:
                _, state = LEFT_HANDEDNESS.kernel(state, SequenceStream((rs[i - 1],)))
            assert_step_is(step, state)
        assert len(set(state.fragments)) < len(state.fragments) // 10

    @given(st.floats(min_value=5e-324, allow_infinity=False))
    @example(5e-324)
    @example(sys.float_info.min)
    @example(1.0)
    @example(sys.float_info.max)
    def test_units_are_exact(self, x):
        assert Fraction(_units(x), 1 << 1074) == Fraction(x)

    def test_kept_step_builds_its_own_state_later(self):
        walk = break_trajectory(11, 400)
        kept = [(step, step.state()) for step, _ in zip(walk, range(60))]
        for _ in walk:  # the walk moves on and its split log grows
            pass
        for step, state in kept:
            assert step.state() == state

    def test_trajectory_grows_the_band(self):
        # the one walk that feeds each post-state into the next observation
        *_, last = break_trajectory(2, 3)
        state = last.state()
        assert len(state.fragments) == 4
        assert all(f > 0.0 for f in state.fragments)
        assert abs(math.fsum(state.fragments) - state.original_length) <= 1e-9

    def test_breaking_never_lowers_fragmentation_probability(self):
        # integer cross-multiplication keeps the comparison exact
        for t in range(20):
            state = ElasticBandState.unbroken(1.0)
            for i in range(30):
                k_before, n_before = state.subhalf_count(), len(state.fragments)
                _, state = LEFT_HANDEDNESS.kernel(state, TrialStream(100 + t, i))
                k_after, n_after = state.subhalf_count(), len(state.fragments)
                assert k_after * n_before >= k_before * n_after


class TestBlindPick:
    @pytest.mark.parametrize(
        "frags,expected",
        [((1.0,), 0.0), ((0.7, 0.3), 0.5), ((0.4, 0.3, 0.3), 1.0)],
    )
    def test_fragmentation_matches_enumeration(self, frags, expected):
        state = ElasticBandState(frags, 1.0)
        assert enumerated_yes_fraction(FRAGMENTATION, state) == expected
        assert FRAGMENTATION.analytic(state) == expected

    @pytest.mark.parametrize(
        "frags,expected",
        [((1.0,), 1.0), ((0.7, 0.3), 0.5), ((0.4, 0.3, 0.3), 0.0)],
    )
    def test_non_fragmentation_matches_enumeration(self, frags, expected):
        state = ElasticBandState(frags, 1.0)
        assert enumerated_yes_fraction(NON_FRAGMENTATION, state) == expected
        assert NON_FRAGMENTATION.analytic(state) == expected

    def test_exact_half_fragment_answers_no_to_both(self):
        state = ElasticBandState((0.5, 0.5), 1.0)
        for process in (FRAGMENTATION, NON_FRAGMENTATION):
            outcome, post = process.kernel(state, SequenceStream((0.1,)))
            assert outcome is NO
            assert post == state

    def test_pick_is_non_invasive(self):
        state = ElasticBandState((0.6, 0.25, 0.15), 1.0)
        for i in range(50):
            _, post = FRAGMENTATION.kernel(state, TrialStream(31, i))
            assert post == state

    def test_fragmentation_actual_iff_all_below_half(self):
        from obsim import PropertyDef, is_actual

        prop = PropertyDef("fragmentation", FRAGMENTATION)
        for frags, expected in (
            ((1.0,), False),
            ((0.7, 0.3), False),
            ((0.4, 0.3, 0.3), True),
            ((0.5, 0.5), False),  # exact half is not "shorter"
        ):
            state = ElasticBandState(frags, 1.0)
            assert is_actual(prop, state) == expected
            assert expected == (state.max_fragment() < 0.5)

    def test_non_fragmentation_actual_only_for_the_unbroken_band(self):
        from obsim import PropertyDef, is_actual

        prop = PropertyDef("non-fragmentation", NON_FRAGMENTATION)
        assert is_actual(prop, ElasticBandState.unbroken(2.0))
        for frags in ((0.7, 0.3), (0.51, 0.49), (0.4, 0.3, 0.3), (0.5, 0.5)):
            assert not is_actual(prop, ElasticBandState(frags, 1.0))


class TestElasticState:
    def test_validation(self):
        with pytest.raises(ValueError):
            ElasticBandState((), 1.0)
        with pytest.raises(ValueError):
            ElasticBandState((1.0,), 0.0)

    @pytest.mark.parametrize("fragments,length", [((math.inf,), math.inf), ((0.5,), math.nan)])
    def test_nan_or_infinite_band_is_rejected(self, fragments, length):
        # NaN compares false to everything, so the check is written to fail on it
        with pytest.raises(ValueError):
            ElasticBandState(fragments, length)

    def test_descriptors(self):
        assert str(DRY_INTACT) == "wood(intact,dry)"
        assert str(ASHES) == "wood(ashes)"
        assert "2 fragments" in str(ElasticBandState((0.5, 0.5), 1.0))
