import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import obsim
from obsim import (
    ElasticApparatus,
    LinePosition,
    PointBreak,
    RecordingStream,
    SawtoothRuler,
    ScenarioMismatchError,
    SegmentBreak,
    SequenceStream,
    SolidState,
    SpherePoint,
    TrialStream,
    UniformBreak,
    observe,
    quantum_machine_prob,
    quantum_machine_process,
    run_trials,
    sawtooth_position_process,
    sphere_point_at,
    substream_seed,
)
from obsim.checks import _legendre_rule, segment_prob_oracle
from obsim.core import NO, YES
from obsim.machines import machine_sweep

PI = math.pi
RHO = (0.0, 0.0, 1.0)


def quad_oracle(gamma, width):
    """The break-density integral by scipy's adaptive quadrature, split at the
    landing point: the library reference for ``segment_prob_oracle``."""
    from scipy.integrate import quad

    landing = 0.5 * (1.0 + math.cos(gamma))
    a, b = 0.5 - 0.5 * width, 0.5 + 0.5 * width
    pts = (landing,) if a < landing < b else None
    return quad(lambda x: 1.0 / width if x < landing else 0.0, a, b, points=pts, limit=200)[0]


NORTH = SpherePoint(RHO)
SOUTH = SpherePoint((0.0, 0.0, -1.0))
EQUATOR = SpherePoint((1.0, 0.0, 0.0))  # cos gamma exactly 0
A, B = sphere_point_at(0.3), sphere_point_at(2.8)  # yes and no at the draw 0.5


def uniform_apparatus():
    return ElasticApparatus(RHO, 1.0, UniformBreak())


class TestClosedForm:
    @pytest.mark.parametrize(
        "gamma,expected",
        [
            (0.0, 1.0),
            (PI / 2, 0.5),
            (PI / 3, 0.75),
            (2 * PI / 3, 0.25),
            (PI, 0.0),
        ],
    )
    def test_uniform_values(self, gamma, expected):
        assert quantum_machine_prob(gamma, UniformBreak()) == pytest.approx(expected, abs=1e-12)

    def test_endpoints_exact(self):
        assert quantum_machine_prob(0.0, UniformBreak()) == 1.0
        assert quantum_machine_prob(PI, UniformBreak()) == 0.0

    def test_uniform_matches_half_angle_form(self):
        for k in range(26):
            gamma = k * PI / 25
            assert quantum_machine_prob(gamma, UniformBreak()) == pytest.approx(
                math.cos(gamma / 2) ** 2, abs=1e-12
            )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            quantum_machine_prob(-0.1, UniformBreak())
        with pytest.raises(ValueError):
            quantum_machine_prob(PI + 0.1, UniformBreak())

    @given(gamma=st.floats(min_value=0.0, max_value=PI))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, gamma):
        total = quantum_machine_prob(gamma, UniformBreak()) + quantum_machine_prob(
            PI - gamma, UniformBreak()
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestPointProfile:
    def test_break_below_particle_is_certain_yes(self):
        # particle lands 3/4 of the way up at gamma = pi/3; a break fixed at
        # the quarter point is always below it
        assert quantum_machine_prob(PI / 3, PointBreak(0.25)) == 1.0

    def test_break_above_particle_is_certain_no(self):
        assert quantum_machine_prob(2 * PI / 3, PointBreak(0.75)) == 0.0

    def test_exact_tie_resolves_to_no(self):
        # an exactly orthogonal state lands at the midpoint; cos is exact 0
        process = quantum_machine_process(ElasticApparatus(RHO, 1.0, PointBreak(0.5)))
        assert process.analytic(SpherePoint((1.0, 0.0, 0.0))) == 0.0

    def test_no_draws_consumed(self):
        process = quantum_machine_process(ElasticApparatus(RHO, 1.0, PointBreak(0.25)))
        outcome, post = process.kernel(sphere_point_at(PI / 3), SequenceStream(()))
        assert outcome is YES
        assert post == SpherePoint(RHO)


class TestSegmentProfile:
    def test_width_one_equals_uniform_everywhere(self):
        for k in range(26):
            gamma = k * PI / 25
            assert quantum_machine_prob(gamma, SegmentBreak(1.0)) == quantum_machine_prob(
                gamma, UniformBreak()
            )

    def test_width_zero_equals_midpoint_break(self):
        for k in range(26):
            gamma = k * PI / 25
            assert quantum_machine_prob(gamma, SegmentBreak(0.0)) == quantum_machine_prob(
                gamma, PointBreak(0.5)
            )

    def test_width_zero_limit_cases(self):
        assert quantum_machine_prob(PI / 4, SegmentBreak(0.0)) == 1.0
        assert quantum_machine_prob(3 * PI / 4, SegmentBreak(0.0)) == 0.0
        # cos gamma is exactly 0: the particle lands on the break point, a tie
        process = quantum_machine_process(ElasticApparatus(RHO, 1.0, SegmentBreak(0.0)))
        tie = SpherePoint((1.0, 0.0, 0.0))
        assert process.analytic(tie) == 0.0
        assert {process.kernel(tie, TrialStream(3, i))[0] for i in range(200)} == {NO}

    @pytest.mark.parametrize("width", [5e-324, 1e-310, 2.0**-1000, 1e-300, 0.5])
    def test_tiny_width_keeps_the_tie_fair(self, width):
        # at cos gamma = 0 every positive width answers yes exactly when the
        # break lands below the midpoint, even where width * draw is subnormal
        process = quantum_machine_process(ElasticApparatus(RHO, 1.0, SegmentBreak(width)))
        tie = SpherePoint((1.0, 0.0, 0.0))
        assert process.analytic(tie) == 0.5
        below = [j / 64 for j in range(32)] + [0.5 - 2.0**-53]
        above = [0.5 + j / 64 for j in range(32)] + [1.0 - 2.0**-53]
        assert all(process.kernel(tie, SequenceStream((r,)))[0] is YES for r in below)
        assert all(process.kernel(tie, SequenceStream((r,)))[0] is NO for r in above)

    def test_formula_matches_integration_oracle(self):
        # the derived closed form against direct quadrature of the break density
        for width in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            for k in range(26):
                gamma = k * PI / 25
                formula = quantum_machine_prob(gamma, SegmentBreak(width))
                assert abs(formula - segment_prob_oracle(gamma, width)) <= 1e-9

    def test_oracle_is_quad_on_the_check_grid(self):
        # the in-repo Gauss-Legendre oracle against scipy's adaptive quadrature
        # with the same breakpoints, on check_segment_regime_map's 3 x 25 grid
        for width in (0.25, 0.5, 0.75):
            for k in range(25):
                gamma = k * PI / 24
                assert abs(segment_prob_oracle(gamma, width) - quad_oracle(gamma, width)) <= 1e-12

    # Below about 1e-3 a piece between a band end and the landing point can be
    # a few floats wide; both rules then evaluate nodes that round onto its
    # ends and may differ by up to density x ulp(0.5), about 1e-16 / width.
    @given(width=st.floats(min_value=1e-3, max_value=1.0), gamma=st.floats(min_value=0.0, max_value=PI))
    @settings(max_examples=300, deadline=None)
    def test_oracle_is_quad(self, width, gamma):
        assert abs(segment_prob_oracle(gamma, width) - quad_oracle(gamma, width)) <= 1e-12

    def test_legendre_rule_is_numpys(self):
        # the in-package Newton rule against numpy's eigenvalue rule, imported here only
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(20)
        rule = _legendre_rule()
        assert len(rule) == 20
        assert all(a < b for (a, _), (b, _) in zip(rule, rule[1:]))
        assert max(abs(t - x) for (t, _), x in zip(rule, nodes.tolist())) <= 4e-16
        assert max(abs(w - v) for (_, w), v in zip(rule, weights.tolist())) <= 4e-15
        assert abs(math.fsum(w for _, w in rule) - 2.0) <= 1e-15

    def test_oracle_loads_no_numpy_polynomial(self):
        # in a fresh interpreter, as the quadrature is the package's own
        src = Path(obsim.__file__).resolve().parents[1]
        script = (
            "import sys\n"
            "from obsim.checks import check_segment_regime_map\n"
            "result = check_segment_regime_map(trials=200, grid_points=2)\n"
            "print(result.passed, 'numpy.polynomial' in sys.modules)\n"
        )
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True", "False"]

    @pytest.mark.parametrize("width", [0.0, 5e-309, 3e-16, 1e-15, math.nan, math.inf, 1.5])
    def test_oracle_rejects_widths_it_cannot_integrate(self, width):
        # a band a few floats wide puts the nodes on the piece ends (3e-16 gives
        # 0.658 against 0.602 at pi / 2), and below about 5.6e-309 1 / width overflows
        with pytest.raises(ValueError, match="width"):
            segment_prob_oracle(PI / 2, width)

    def test_oracle_at_its_narrowest_width(self):
        for k in range(201):
            gamma = k * PI / 200
            formula = quantum_machine_prob(gamma, SegmentBreak(1e-6))
            assert abs(formula - segment_prob_oracle(gamma, 1e-6)) <= 1e-9

    def test_interior_value_from_oracle(self):
        gamma = math.acos(0.25)
        assert segment_prob_oracle(gamma, 0.5) == pytest.approx(0.75, abs=1e-12)
        assert quantum_machine_prob(gamma, SegmentBreak(0.5)) == pytest.approx(0.75, abs=1e-12)

    def test_interior_value_against_monte_carlo(self):
        # run_trials counts in blocks the same integer as the kernel loop over
        # TrialStream(2024, i) (test_blocks ties the two bit for bit)
        gamma = math.acos(0.25)
        process = quantum_machine_process(ElasticApparatus(RHO, 1.0, SegmentBreak(0.5)))
        state = sphere_point_at(gamma)
        trials = 1_000_000
        yes = run_trials(process, state, trials, 2024).yes
        sigma = math.sqrt(0.75 * 0.25 / trials)
        assert abs(yes / trials - 0.75) < 5 * sigma

    def test_deterministic_regime_has_zero_variance(self):
        gamma = math.acos(0.75)
        process = quantum_machine_process(ElasticApparatus(RHO, 1.0, SegmentBreak(0.5)))
        state = sphere_point_at(gamma)
        outcomes = {process.kernel(state, TrialStream(5, i))[0] for i in range(2000)}
        assert outcomes == {YES}


class TestMachineSweep:
    @pytest.mark.parametrize("trials", [3, 40])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_is_a_width_major_loop_of_run_trials(self, trials, seed):
        # pair k of the grid, counted width by width, runs at substream_seed(seed, k):
        # the machine checks' pinned-seed inputs depend on this order
        widths = (None, 0.0, 1e-310, 1.0)
        gammas = (0.0, 1.0, PI / 2, 2.5, PI)
        expected = []
        for k, (width, gamma) in enumerate((w, g) for w in widths for g in gammas):
            profile = UniformBreak() if width is None else SegmentBreak(width)
            process = quantum_machine_process(ElasticApparatus(RHO, 1.0, profile))
            report = run_trials(process, sphere_point_at(gamma), trials, substream_seed(seed, k))
            expected.append((width, gamma, report))
        assert list(machine_sweep(widths, gammas, trials, seed)) == expected


class TestMachineKernel:
    def test_aligned_particle_always_yes(self):
        process = quantum_machine_process(uniform_apparatus())
        state = sphere_point_at(0.0)
        for i in range(200):
            outcome, post = process.kernel(state, TrialStream(9, i))
            assert outcome is YES
            assert post == SpherePoint(RHO)

    def test_antipodal_particle_always_no(self):
        process = quantum_machine_process(uniform_apparatus())
        state = sphere_point_at(PI)
        for i in range(200):
            outcome, post = process.kernel(state, TrialStream(9, i))
            assert outcome is NO
            assert post == SpherePoint((-0.0, -0.0, -1.0))

    # the kernel keeps cos gamma of the last state object it saw; every call
    # must still answer as a process that has seen no state before
    @given(
        profile=st.sampled_from([UniformBreak(), SegmentBreak(0.25), SegmentBreak(1e-310),
                                 PointBreak(0.5), PointBreak(0.3)]),
        calls=st.lists(st.tuples(
            st.one_of(
                st.sampled_from([NORTH, SOUTH, EQUATOR, A, B]),
                # a new object on every call, equal to any other of its direction
                st.sampled_from([RHO, (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), A.direction])
                .map(SpherePoint),
                st.floats(min_value=0.0, max_value=PI).map(sphere_point_at),
            ),
            st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53) | st.sampled_from([0.0, 0.5]),
        ), min_size=1, max_size=8),
    )
    @example(profile=UniformBreak(), calls=[(A, 0.5), (B, 0.5), (A, 0.5)])
    @example(profile=SegmentBreak(1e-310), calls=[(EQUATOR, 0.5 - 2.0**-53), (NORTH, 0.9),
                                                  (SpherePoint((1.0, 0.0, 0.0)), 0.5)])
    @example(profile=PointBreak(0.5), calls=[(NORTH, 0.5), (EQUATOR, 0.5), (SOUTH, 0.5),
                                             (SpherePoint(RHO), 0.5)])
    @settings(max_examples=300, deadline=None)
    def test_kernel_answers_each_state_as_a_fresh_process(self, profile, calls):
        process = quantum_machine_process(ElasticApparatus(RHO, 1.0, profile))
        for state, r in calls:
            fresh = quantum_machine_process(ElasticApparatus(RHO, 1.0, profile))
            outcome, post = process.kernel(state, SequenceStream((r,)))
            want_outcome, want_post = fresh.kernel(state, SequenceStream((r,)))
            assert outcome is want_outcome
            assert post.direction == want_post.direction

    def test_post_state_repeat_is_certain(self):
        process = quantum_machine_process(uniform_apparatus())
        _, post = process.kernel(sphere_point_at(1.1), TrialStream(1))
        again = process.analytic(post)
        assert again in (0.0, 1.0)
        outcome2, post2 = process.kernel(post, TrialStream(2))
        assert post2 == post

    def test_validation(self):
        with pytest.raises(ValueError):
            SpherePoint((1.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            ElasticApparatus((0.0, 0.0, 0.5))
        with pytest.raises(ValueError):
            ElasticApparatus(RHO, 0.0)
        with pytest.raises(ValueError):
            PointBreak(1.5)
        with pytest.raises(ValueError):
            SegmentBreak(-0.2)

    @pytest.mark.parametrize("build", [
        lambda: SpherePoint((math.nan, 0.0, 0.0)),
        lambda: sphere_point_at(math.nan),
        lambda: ElasticApparatus((0.0, math.nan, 1.0)),
        lambda: quantum_machine_process(ElasticApparatus((math.nan, 0.0, 0.0))),
    ])
    def test_nan_geometry_is_rejected(self, build):
        # a NaN norm fails every comparison; accepted, it would clamp cos to 1
        # and answer yes on every trial
        with pytest.raises(ValueError, match="unit vector"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: SolidState(math.inf, 0.5),
        lambda: SolidState(math.nan, 0.5),
        lambda: ElasticApparatus(RHO, math.inf),
        lambda: ElasticApparatus(RHO, math.nan),
    ])
    def test_infinite_sizes_are_rejected(self, build):
        with pytest.raises(ValueError, match="positive and finite"):
            build()

    def test_sphere_point_at(self):
        for gamma in (0.1, 1.0, 2.3):
            u = sphere_point_at(gamma).direction
            assert u[0] * RHO[0] + u[1] * RHO[1] + u[2] * RHO[2] == pytest.approx(
                math.cos(gamma), abs=1e-12
            )

    @given(gamma=st.floats(min_value=0.0, max_value=PI))
    @example(gamma=0.0)
    @example(gamma=PI / 2)
    @example(gamma=PI)
    @settings(max_examples=300, deadline=None)
    def test_sphere_point_at_tilts_toward_x(self, gamma):
        u = sphere_point_at(gamma).direction
        assert u == (math.sin(gamma), 0.0, math.cos(gamma))
        assert math.copysign(1.0, u[1]) == 1.0  # y is +0.0, never -0.0


class TestSawtooth:
    def test_nearest_cavity(self):
        snap = sawtooth_position_process(SawtoothRuler(pitch=1.0, offset=0.0), target=0).kernel
        outcome, post = snap(LinePosition(0.3), SequenceStream(()))
        assert outcome is YES
        assert post == LinePosition(0.0)

    def test_at_center_is_fixed_point(self):
        snap = sawtooth_position_process(SawtoothRuler(pitch=1.0, offset=0.0), target=2).kernel
        outcome, post = snap(LinePosition(2.0), SequenceStream(()))
        assert outcome is YES
        assert post == LinePosition(2.0)

    def test_offset_and_pitch(self):
        ruler = SawtoothRuler(pitch=0.5, offset=0.2)
        outcome, post = sawtooth_position_process(ruler, target=0).kernel(
            LinePosition(0.44), SequenceStream(()))
        assert outcome is YES
        assert post == LinePosition(0.2)
        outcome, post = sawtooth_position_process(ruler, target=-2).kernel(
            LinePosition(-0.6), SequenceStream(()))
        assert outcome is YES
        assert post.x == pytest.approx(-0.8)

    def test_tooth_tip_fair_draw(self):
        snap = sawtooth_position_process(SawtoothRuler(pitch=1.0, offset=0.0), target=1).kernel
        counts = {0: 0, 1: 0}
        trials = 10_000
        for i in range(trials):
            outcome, post = snap(LinePosition(0.5), TrialStream(13, i))
            k = int(post.x)  # the cavity, read off its center at pitch 1, offset 0
            assert (outcome is YES) == (k == 1)
            counts[k] += 1
        assert counts[0] + counts[1] == trials
        assert abs(counts[1] - trials / 2) < 4 * math.sqrt(trials / 4)

    def test_tip_consumes_one_draw_else_none(self):
        snap = sawtooth_position_process(SawtoothRuler(pitch=1.0, offset=0.0), target=0).kernel
        stream = RecordingStream(SequenceStream((0.3,)))
        snap(LinePosition(0.5), stream)
        assert stream.draws == [0.3]
        snap(LinePosition(0.4), SequenceStream(()))

    def test_scenario_is_checked_before_the_kernel_runs(self):
        # as for every process, observe and run_trials check the state, not the kernel
        process = sawtooth_position_process(SawtoothRuler(), target=0)
        with pytest.raises(ScenarioMismatchError):
            observe(process, SolidState(1.0, 0.0), TrialStream(0))
        with pytest.raises(ScenarioMismatchError):
            run_trials(process, SolidState(1.0, 0.0), 10, seed=0)

    def test_position_process_analytics(self):
        ruler = SawtoothRuler(pitch=1.0, offset=0.0)
        process = sawtooth_position_process(ruler, target=0)
        assert process.analytic(LinePosition(0.3)) == 1.0
        assert process.analytic(LinePosition(1.2)) == 0.0
        assert process.analytic(LinePosition(0.5)) == 0.5
        assert process.analytic(LinePosition(-0.5)) == 0.5
        assert process.analytic(LinePosition(1.5)) == 0.0

    @pytest.mark.parametrize("pitch,offset", [
        (math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
    ])
    def test_ruler_needs_finite_positive_pitch_and_finite_offset(self, pitch, offset):
        with pytest.raises(ValueError, match="SawtoothRuler"):
            SawtoothRuler(pitch=pitch, offset=offset)

    def test_ruler_validation(self):
        with pytest.raises(ValueError):
            SawtoothRuler(pitch=0.0)
        with pytest.raises(ValueError):
            LinePosition(math.inf)
