import math
import sys
from fractions import Fraction
from unittest import mock

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
    run_trials,
)
from obsim import blocks, exemplars, randomness, stats
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
        # no first draw decides it, and a count long enough for blocks runs the kernel
        assert LEFT_HANDEDNESS.first_draw(state) is None
        with pytest.raises(ValueError, match="cannot break"):
            run_trials(LEFT_HANDEDNESS, state, stats.BLOCKS_FROM, 0)

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
    # 7 draws to a list: one short of, on, or one past a list's end, and a third list
    @example(seed=4, breaks=6)
    @example(seed=4, breaks=7)
    @example(seed=4, breaks=8)
    @example(seed=4, breaks=21)
    @settings(max_examples=10, deadline=None)
    @pytest.mark.parametrize("numpy_loaded", [True, False], ids=["blocks", "pure"])
    def test_break_trajectory_is_the_kernel_walk(self, seed, breaks, numpy_loaded):
        state = ElasticBandState.unbroken(1.0)
        steps = 0
        with pytest.MonkeyPatch.context() as patch:
            if numpy_loaded:  # the walk draws from numpy, here 7 at a time
                patch.setattr(randomness, "_DRAWS_PER_LIST", 7)
            else:  # the walk draws one at a time
                patch.delitem(sys.modules, "numpy")
            drawn = mock.Mock(side_effect=blocks.first_draws)
            patch.setattr(blocks, "first_draws", drawn)
            for i, step in enumerate(break_trajectory(seed, breaks)):
                if i:
                    _, state = LEFT_HANDEDNESS.kernel(state, TrialStream(seed, i - 1))
                assert_step_is(step, state)
                steps += 1
        assert steps == breaks + 1
        assert drawn.call_count == (-(-breaks // 7) if numpy_loaded else 0)

    @pytest.mark.parametrize("draws", [(0.5,), (0.5, 0.25, 0.75), (0.75, 0.5)])
    def test_walk_breaks_the_leftmost_of_equal_lengths(self, draws):
        # dyadic draws split exactly, so equal lengths tie at almost every break
        rs = [draws[i % len(draws)] for i in range(300)]
        state = ElasticBandState.unbroken(1.0)
        for i, step in enumerate(_walk(rs, lambda i: NONE_STREAM)):
            if i:
                _, state = LEFT_HANDEDNESS.kernel(state, SequenceStream((rs[i - 1],)))
            assert_step_is(step, state)
        assert len(set(state.fragments)) < len(state.fragments) // 10

    @pytest.mark.parametrize("zeros", [(0,), (0, 1, 2), (3, 7, 8, 50)])
    def test_walk_redraws_a_zero_first_draw_from_the_rest_of_its_stream(self, zeros):
        # a first draw of 0.0 leaves a zero-length piece: the kernel reads the
        # stream's second draw, and the walk must read that draw from rest(i)
        firsts = [0.0 if i in zeros else TrialStream(5, i).draw() for i in range(60)]
        seconds = [0.125 + i / 128 for i in range(60)]
        state = ElasticBandState.unbroken(1.0)
        steps = _walk(firsts, lambda i: SequenceStream((seconds[i],)))
        for i, step in enumerate(steps):
            if i:
                pair = SequenceStream((firsts[i - 1], seconds[i - 1]))
                _, state = LEFT_HANDEDNESS.kernel(state, pair)
            assert_step_is(step, state)

    @staticmethod
    def _walk_and_streams(kind, seed, breaks):
        """A walk of ``breaks`` breaks, and a function giving the stream that the
        kernel reads at break i."""
        if kind == "trajectory":
            return break_trajectory(seed, breaks), lambda i: TrialStream(seed, i)
        if kind == "dyadic":  # draws of 1/4, 1/2 and 3/4: equal lengths tie at the top
            rs = [0.25 * (1 + int(3 * TrialStream(seed, i).draw())) for i in range(breaks)]
            return _walk(rs, lambda i: NONE_STREAM), lambda i: SequenceStream((rs[i],))
        # every fifth first draw is 0.0, which the walk redraws from the rest of its stream
        firsts = [0.0 if (seed + i) % 5 == 0 else TrialStream(seed, i).draw()
                  for i in range(breaks)]
        seconds = [0.125 + (i % 96) / 128 for i in range(breaks)]
        return (_walk(firsts, lambda i: SequenceStream((seconds[i],))),
                lambda i: SequenceStream((firsts[i], seconds[i])))

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        asks=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=80),
    )
    @example(seed=0, asks=[1] * 80)  # every step: one splice each, and no sort
    @example(seed=1, asks=[1, 0] * 40)  # gaps of one step: a sort each
    @example(seed=2, asks=[0, 0, 1] + [0] * 60 + [1, 1, 0, 1])  # a gap of many, then splices
    @example(seed=3, asks=[2] * 80)  # every step twice
    @example(seed=4, asks=[0] * 79 + [1])  # only the last step, as check_elastic_suite asks
    @settings(max_examples=30, deadline=None)
    @pytest.mark.parametrize("kind", ["trajectory", "dyadic", "zero-first-draw"])
    def test_state_on_any_steps_is_the_kernel_walk(self, kind, seed, asks):
        # asks[i] states are built at step i; a state splices the previous step's
        # band where that was built, returns the band again where this step's was,
        # and sorts the heap by path otherwise
        steps, stream = self._walk_and_streams(kind, seed, len(asks) - 1)
        sorts = mock.Mock(side_effect=exemplars._positional)
        state = ElasticBandState.unbroken(1.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exemplars, "_positional", sorts)
            for i, step in enumerate(steps):
                if i:
                    _, state = LEFT_HANDEDNESS.kernel(state, stream(i - 1))
                for _ in range(asks[i]):
                    got = step.state()
                    assert got == state
                    assert [f.hex() for f in got.fragments] == [f.hex() for f in state.fragments]
        # the walk starts with step 0's band built, so neither step 0 nor step 1 sorts
        assert sorts.call_count == sum(1 for i in range(2, len(asks)) if asks[i] and not asks[i - 1])

    def test_trajectory_redraws_from_the_trial_stream_past_its_first_draw(self, monkeypatch):
        # first_draws stands in a 0.0 for some trials' first draws, so a redraw that
        # read the trial's first draw again would split where the kernel does not
        zeros = {0, 4, 5, 31}
        monkeypatch.setattr(exemplars, "first_draws", lambda seed, stop: (
            0.0 if i in zeros else TrialStream(seed, i).draw() for i in range(stop)))
        state = ElasticBandState.unbroken(1.0)
        for i, step in enumerate(break_trajectory(9, 40)):
            if i:
                rng = TrialStream(9, i - 1)
                if i - 1 in zeros:
                    rng.draw()
                    rng = SequenceStream((0.0, rng.draw()))
                _, state = LEFT_HANDEDNESS.kernel(state, rng)
            assert_step_is(step, state)

    @given(
        r=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        longest=st.floats(min_value=5e-324, max_value=1.0, exclude_min=True),
    )
    @example(r=0.1, longest=0.7)  # err is nonzero
    @example(r=0.5, longest=1.0)
    @example(r=0.5, longest=5 * 5e-324)  # subnormal: the half rounds to even
    @example(r=1 - 2**-53, longest=1e-323)
    @example(r=1 - 2**-53, longest=sys.float_info.min)  # a power of two
    @example(r=0.3, longest=2.0**-1073)
    @example(r=0.7, longest=2.0**-600)
    @settings(max_examples=300, deadline=None)
    def test_one_error_term_is_the_exact_change_of_the_sum(self, r, longest):
        # the walk's update: Fast2Sum, exact as left <= longest
        left = r * longest
        right = longest - left
        err = -left - (right - longest)
        assert Fraction(longest) - Fraction(left) == Fraction(right) + Fraction(err)
        assert _units(left) + _units(right) - _units(longest) == -_units(err)
        if r >= 0.5:
            assert err == 0.0  # Sterbenz: longest - left is exact

    @given(st.floats(min_value=5e-324, allow_infinity=False))
    @example(5e-324)
    @example(sys.float_info.min)
    @example(1.0)
    @example(sys.float_info.max)
    def test_units_are_exact(self, x):
        assert Fraction(_units(x), 1 << 1074) == Fraction(x)

    def test_only_the_latest_step_builds_a_state(self):
        # the walk's heap is the only record of the band: a step it has moved
        # past must refuse rather than build the band as it is now
        walk = break_trajectory(11, 400)
        state = ElasticBandState.unbroken(1.0)
        kept = [next(walk)]
        for i, step in enumerate(walk):
            _, state = LEFT_HANDEDNESS.kernel(state, TrialStream(11, i))
            for old in kept:
                with pytest.raises(ValueError, match="moved past"):
                    old.state()
            assert_step_is(step, state)
            kept = kept[-5:] + [step]

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
