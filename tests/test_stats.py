import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsim import (
    BURNABILITY,
    DRY_INTACT,
    FLOATABILITY,
    FRAGMENTATION,
    INCOMPRESSIBILITY,
    LEFT_HANDEDNESS,
    NON_BURNABILITY,
    NON_FRAGMENTATION,
    YES,
    ElasticApparatus,
    ElasticBandState,
    LinePosition,
    ProductObservation,
    SawtoothRuler,
    SegmentBreak,
    SolidState,
    TrialStream,
    UniformBreak,
    chi_square_against_analytic,
    estimator_status,
    product_process,
    quantum_machine_process,
    run_trials,
    sawtooth_position_process,
    sphere_point_at,
    substream_seed,
    sweep,
    verify_replay,
    wilson_interval,
)
from obsim.core import ScenarioMismatchError
from obsim.stats import Z, _chi_square_sf


def machine(profile):
    return quantum_machine_process(ElasticApparatus((0.0, 0.0, 1.0), 1.0, profile))


MACHINE = machine(UniformBreak())

# every registered process, each on a state where it has work to do
PROCESS_CASES = (
    (BURNABILITY, DRY_INTACT),
    (NON_BURNABILITY, DRY_INTACT),
    (FLOATABILITY, DRY_INTACT),
    (INCOMPRESSIBILITY, SolidState(1.0, 0.05)),
    (LEFT_HANDEDNESS, ElasticBandState((0.7, 0.3), 1.0)),
    (FRAGMENTATION, ElasticBandState((0.7, 0.2, 0.1), 1.0)),
    (NON_FRAGMENTATION, ElasticBandState((0.7, 0.2, 0.1), 1.0)),
    (MACHINE, sphere_point_at(1.0)),
    (machine(SegmentBreak(0.5)), sphere_point_at(1.3)),
    (machine(SegmentBreak(0.0)), sphere_point_at(1.3)),
    (sawtooth_position_process(SawtoothRuler(), 0), LinePosition(0.5)),
    (product_process(ProductObservation((BURNABILITY, FLOATABILITY))), DRY_INTACT),
    (product_process(ProductObservation((NON_BURNABILITY, FLOATABILITY))), DRY_INTACT),
)


def wilson_roots_oracle(yes, trials, confidence):
    """Independent Wilson bounds: the two roots p of (p_hat - p)^2 = z^2 p(1-p)/n."""
    from statistics import NormalDist

    z = NormalDist().inv_cdf(0.5 + 0.5 * confidence)
    p_hat = yes / trials
    a = 1 + z * z / trials
    b = -(2 * p_hat + z * z / trials)
    c = p_hat * p_hat
    roots = sorted(np.roots([a, b, c]).real)
    return float(roots[0]), float(roots[1])


class TestWilson:
    def test_z_is_the_99_percent_normal_quantile(self):
        from statistics import NormalDist

        assert Z.hex() == NormalDist().inv_cdf(0.5 + 0.5 * 0.99).hex()

    def test_boundaries_are_exact(self):
        assert wilson_interval(0, 10)[0] == 0.0
        assert wilson_interval(10, 10)[1] == 1.0
        assert wilson_interval(0, 1)[0] == 0.0

    def test_50_of_100_against_root_oracle(self):
        low, high = wilson_interval(50, 100)
        olow, ohigh = wilson_roots_oracle(50, 100, 0.99)
        assert low == pytest.approx(olow, abs=1e-12)
        assert high == pytest.approx(ohigh, abs=1e-12)
        assert low <= 0.5 <= high
        assert low + high == pytest.approx(1.0, abs=1e-12)  # symmetric at p_hat = 1/2

    @given(
        trials=st.integers(min_value=1, max_value=10**6),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_interval_brackets_the_estimate(self, trials, frac):
        yes = min(trials, int(frac * trials))
        low, high = wilson_interval(yes, trials)
        p_hat = yes / trials
        assert 0.0 <= low <= p_hat <= high <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(5, 0)


class TestRunTrials:
    def test_deterministic_process_exact_count(self):
        report = run_trials(FLOATABILITY, DRY_INTACT, 100, seed=1)
        assert report.yes == 100
        assert report.p_hat == 1.0
        assert report.analytic == 1.0

    def test_machine_at_right_angle(self):
        report = run_trials(MACHINE, sphere_point_at(math.pi / 2), 100_000, seed=6)
        assert abs(report.p_hat - 0.5) <= 4 * math.sqrt(0.25 / 100_000)

    def test_seed_determinism_across_workers(self):
        state = sphere_point_at(1.0)
        one = run_trials(MACHINE, state, 20_000, seed=9, workers=1)
        four = run_trials(MACHINE, state, 20_000, seed=9, workers=4)
        assert one == four
        again = run_trials(MACHINE, state, 20_000, seed=9, workers=3)
        assert again == one

    def test_trial_streams_are_split_not_shared(self):
        assert TrialStream(1, 0).draw() != TrialStream(1, 1).draw()
        assert TrialStream(1, 0).draw() != TrialStream(2, 0).draw()
        assert TrialStream(7, 3).draw() == TrialStream(7, 3).draw()
        assert substream_seed(1, 0) != substream_seed(1, 1)

    def test_counting_matches_replay_log(self):
        report = run_trials(MACHINE, sphere_point_at(1.2), 500, seed=4, collect_records=True)
        assert report.records is not None and len(report.records) == 500
        assert sum(1 for r in report.records if r.outcome is YES) == report.yes
        assert all(verify_replay(MACHINE, r) for r in report.records)

    @given(
        case=st.sampled_from(PROCESS_CASES),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        trials=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_loop_with_or_without_records(self, case, seed, trials):
        process, state = case
        plain = run_trials(process, state, trials, seed)
        recorded = run_trials(process, state, trials, seed, collect_records=True)
        assert recorded.yes == plain.yes
        assert sum(r.outcome is YES for r in recorded.records) == plain.yes
        assert all(r.pre_state == state for r in recorded.records)
        yes = 0
        for i in range(trials):
            outcome, _post = process.kernel(state, TrialStream(seed, i))
            yes += outcome is YES
        assert plain.yes == yes

    def test_errors(self):
        with pytest.raises(ScenarioMismatchError):
            run_trials(BURNABILITY, SolidState(1.0, 0.0), 10, seed=0)
        coin = product_process(ProductObservation((NON_BURNABILITY, FLOATABILITY)))
        with pytest.raises(ScenarioMismatchError):
            run_trials(coin, SolidState(1.0, 0.0), 10, seed=0)
        with pytest.raises(ValueError):
            run_trials(BURNABILITY, DRY_INTACT, 0, seed=0)


class TestSweep:
    def test_gamma_grid_goodness_of_fit(self):
        gammas = [k * math.pi / 12 for k in range(13)]
        points = [(MACHINE, sphere_point_at(g)) for g in gammas]
        reports = sweep(points, trials=10_000, seed=17)
        _stat, dof, p_value = chi_square_against_analytic(reports)
        assert dof == 11  # the two certain endpoints are excluded
        assert p_value is not None and p_value > 0.01
        for report, g in zip(reports, gammas):
            if report.analytic in (0.0, 1.0):
                assert report.yes in (0, report.trials)

    def test_epsilon_grid_deterministic_points_have_zero_variance(self):
        gamma = math.acos(0.6)
        widths = (0.0, 0.25, 0.5, 1.0)
        points = [(machine(SegmentBreak(width)), sphere_point_at(gamma)) for width in widths]
        for width, report in zip(widths, sweep(points, trials=2_000, seed=8)):
            if width < 0.6:  # |cos gamma| above the width: deterministic
                assert report.yes in (0, report.trials)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep([], trials=10, seed=0)

    def test_degenerate_points_excluded_from_chi_square(self):
        reports = sweep([(FLOATABILITY, DRY_INTACT)], trials=50, seed=0)
        assert chi_square_against_analytic(reports) == (None, 0, None)

    def test_chi_square_helper_matches_z_scores(self):
        reports = [
            run_trials(MACHINE, sphere_point_at(g), 2_000, seed=5)
            for g in (0.8, 1.3, 2.1)
        ]
        stat, dof, p_value = chi_square_against_analytic(reports)
        assert dof == 3
        z_scores = [(r.p_hat - r.analytic) / math.sqrt(r.analytic * (1.0 - r.analytic) / r.trials)
                    for r in reports]
        assert stat == pytest.approx(math.fsum(z * z for z in z_scores), rel=1e-12)
        assert 0.0 <= p_value <= 1.0


def scipy_chi2_sf(x, dof):
    from scipy.stats import chi2

    return float(chi2.sf(x, dof))


class TestChiSquareTail:
    """The closed-form p-value against scipy.stats.chi2.sf, the library reference."""

    @given(dof=st.integers(min_value=1, max_value=400), ratio=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy(self, dof, ratio):
        x = ratio * dof
        p, ref = _chi_square_sf(x, dof), scipy_chi2_sf(x, dof)
        assert 0.0 <= p <= 1.0
        assert abs(p - ref) <= 1e-11 * ref

    # each log term near the peak is a difference of numbers near dof * log(dof),
    # about 1e6 at dof 160 000, so rounding alone moves it by about 1e-10
    @pytest.mark.parametrize("dof", [10_000, 80_001, 159_999, 160_000])
    def test_matches_scipy_at_the_cli_bound(self, dof):
        for factor in (0.9, 1.0, 1.05, 1.1, 1.2):
            x = factor * dof
            p, ref = _chi_square_sf(x, dof), scipy_chi2_sf(x, dof)
            assert abs(p - ref) <= 1e-9 * ref, (x, dof)

    def test_edges(self):
        for dof in (1, 2, 3, 400, 160_000):
            assert _chi_square_sf(0.0, dof) == 1.0
            assert _chi_square_sf(5e-324, dof) == scipy_chi2_sf(5e-324, dof) == 1.0
        for x in (1e-300, 1e-10, 0.5, 1.0, 30.0):
            assert abs(_chi_square_sf(x, 1) - scipy_chi2_sf(x, 1)) <= 1e-11 * scipy_chi2_sf(x, 1)
        # tails below the float range are 0.0: never NaN, never above 1
        for x, dof in ((1_500.0, 1), (1e4, 2), (1e6, 400), (2e5, 160_000), (1e308, 3),
                       (math.inf, 1), (math.inf, 2)):
            assert scipy_chi2_sf(x, dof) == 0.0
            assert _chi_square_sf(x, dof) == 0.0


class TestEstimatorStatus:
    def test_bands(self):
        trials = 10_000
        p = 0.5
        se = math.sqrt(p * (1 - p) / trials)
        mid = int(trials * p)
        assert estimator_status(mid, trials, p) == "ok"
        assert estimator_status(mid + int(4.5 * se * trials), trials, p) == "flag"
        assert estimator_status(mid + int(6 * se * trials), trials, p) == "fail"

    def test_degenerate(self):
        assert estimator_status(100, 100, 1.0) == "ok"
        assert estimator_status(99, 100, 1.0) == "fail"
