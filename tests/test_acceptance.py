"""Acceptance suite: runs every criterion at its stated tolerance and prints
one pass/fail line per criterion (use -s to see the lines on success)."""

import dataclasses
import math
import re
import types

import pytest

from obsim import (
    BURNABILITY,
    INCOMPRESSIBILITY,
    LEFT_HANDEDNESS,
    NO,
    YES,
    ElasticBandState,
    SegmentBreak,
    SolidState,
    checks,
    cli,
    product,
    taxonomy,
)
from obsim.checks import (
    check_compaction_creation,
    check_csv_determinism,
    check_elastic_suite,
    check_product_choice_theorem,
    check_segment_regime_map,
    check_taxonomy_fixture,
    check_uniform_curve,
)

CRITERIA = {
    check_uniform_curve: "two-outcome curve at N=1e5 within max(0.005, 4se), endpoints exact, under 5 s",
    check_segment_regime_map: "segment regime map: oracle 1e-9, exact deterministic regime, 0.01 window, eps=1 == uniform",
    check_product_choice_theorem: "product tests: certain pair 1e4/1e4, incompatible pair a fair coin, meet not actual",
    check_elastic_suite: "elastic band: conservation 1e-9 over 1e4 breaks, fair coin at 1e5, actuality threshold, monotone sub-half",
    check_compaction_creation: "creation by observation: 100 random solids fail then pass",
    check_taxonomy_fixture: "taxonomy table equals the reference classification exactly",
    check_csv_determinism: "byte-identical CSV from flags, from a --config file and from a rerun",
}

# the CLI names its checks, so that only --check imports obsim.checks; `all` runs these
ALL_CHECKS = [getattr(checks, name) for name in cli._SCENARIOS["all"].checks]
assert set(CRITERIA) == set(ALL_CHECKS)
assert set().union(*(row.checks for row in cli._SCENARIOS.values())) == set(
    cli._SCENARIOS["all"].checks)


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda fn: fn.__name__)
def test_acceptance(check, capsys):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {result.name}: {CRITERIA[check]}")
    assert result.passed, f"{result.name}: {result.detail}"


# Each check can be seen to fail: one test per check and reason, each patching
# the one thing that check judges. Seeds and bounds stay as they are.

def recount(report, yes):
    return dataclasses.replace(report, yes=yes, p_hat=yes / report.trials)


def patch_machine_sweep(monkeypatch, change):
    """checks.machine_sweep with each report passed through change(width, gamma, report)."""
    sweep = checks.machine_sweep
    monkeypatch.setattr(checks, "machine_sweep", lambda widths, gammas, trials, seed: (
        (w, g, change(w, g, r)) for w, g, r in sweep(widths, gammas, trials, seed)))


def patch_walk(monkeypatch, change):
    """checks.break_trajectory with step i of a walk of ``breaks`` breaks
    passed through change(breaks, i, step)."""
    walk = checks.break_trajectory
    monkeypatch.setattr(checks, "break_trajectory", lambda seed, breaks: (
        change(breaks, i, step) for i, step in enumerate(walk(seed, breaks))))


def patch_kernel(monkeypatch, name, kernel):
    """checks.<name> with this kernel and no first-draw decision, so that
    every trial runs it."""
    process = getattr(checks, name)
    monkeypatch.setattr(checks, name, dataclasses.replace(process, kernel=kernel, first_draw=None))


def test_uniform_curve_fails_on_a_shifted_analytic(monkeypatch):
    def shifted(gamma, profile):  # the endpoints stay exact
        p = exact(gamma, profile)
        return p if p in (0.0, 1.0) else p + 0.01

    exact = checks.quantum_machine_prob
    monkeypatch.setattr(checks, "quantum_machine_prob", shifted)
    result = check_uniform_curve()
    assert not result.passed
    assert re.search(r"gamma=\d\.\d{4}: \|\d\.\d{5} - \d\.\d{5}\| > ", result.detail)


def test_uniform_curve_fails_past_its_5_s_gate(monkeypatch):
    clock = iter([100.0, 106.0])
    monkeypatch.setattr(checks, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    result = check_uniform_curve()
    assert not result.passed
    assert result.detail == "runtime 6.00s exceeds 5s"


def test_uniform_curve_fails_on_a_pole_count_one_short(monkeypatch):
    patch_machine_sweep(monkeypatch, lambda w, g, r: recount(r, r.yes - 1) if g == 0.0 else r)
    result = check_uniform_curve()
    assert not result.passed
    assert result.detail == "gamma=0.0000: expected exact count, got 99999"


def test_segment_regime_map_fails_on_an_oracle_off_by_1e_8(monkeypatch):
    oracle = checks.segment_prob_oracle
    monkeypatch.setattr(checks, "segment_prob_oracle", lambda gamma, w: oracle(gamma, w) + 1e-8)
    result = check_segment_regime_map()
    assert not result.passed
    assert result.detail.startswith("oracle mismatch at gamma=0.0000, eps=0.25")


def test_segment_regime_map_fails_on_a_deterministic_count_with_variance(monkeypatch):
    # at gamma 0, cos gamma = 1 > 0.25: every trial answers yes, but one does not
    patch_machine_sweep(monkeypatch, lambda w, g, r: (
        recount(r, r.yes - 1) if (w, g) == (0.25, 0.0) else r))
    result = check_segment_regime_map()
    assert not result.passed
    assert result.detail == "eps=0.25, gamma=0.0000: deterministic regime has variance"


def test_segment_regime_map_fails_on_a_deterministic_count_the_other_way(monkeypatch):
    patch_machine_sweep(monkeypatch, lambda w, g, r: (
        recount(r, r.trials - r.yes) if (w, g) == (0.25, 0.0) else r))
    result = check_segment_regime_map()
    assert not result.passed
    assert result.detail == "eps=0.25, gamma=0.0000: wrong deterministic value"


def test_segment_regime_map_fails_on_a_window_two_points_high(monkeypatch):
    patch_machine_sweep(monkeypatch, lambda w, g, r: (
        recount(r, r.yes + r.trials // 50) if abs(math.cos(g)) < w else r))
    result = check_segment_regime_map()
    assert not result.passed
    assert re.search(r"(^|; )eps=0\.5, gamma=1\.5708: \|0\.5\d{3} - 0\.5000\| > 0\.01(;|$)",
                     result.detail)
    assert "deterministic" not in result.detail


def test_segment_regime_map_fails_on_a_full_width_off_the_uniform_band(monkeypatch):
    def off_at_full_width(gamma, profile):  # one float step toward 1/2
        p = exact(gamma, profile)
        return math.nextafter(p, 0.5) if profile == SegmentBreak(1.0) else p

    exact = checks.quantum_machine_prob
    monkeypatch.setattr(checks, "quantum_machine_prob", off_at_full_width)
    result = check_segment_regime_map()
    assert not result.passed
    assert result.detail.startswith("eps=1 differs from uniform at gamma=0.0000; ")
    assert "oracle" not in result.detail


def test_product_choice_theorem_fails_on_a_coin_that_always_answers_yes(monkeypatch):
    # the coin's non-burnability answers yes as burnability does on dry intact wood
    monkeypatch.setattr(product, "NON_BURNABILITY", BURNABILITY)
    result = check_product_choice_theorem()
    assert not result.passed
    assert "non-burnability*floatability: 0.5 outside Wilson 99%" in result.detail
    assert "non-burnability*floatability meet should not be actual" in result.detail


def test_product_choice_theorem_fails_on_a_certain_product_one_short(monkeypatch):
    sweep = checks.wood_product_sweep

    def one_short(trials, seed):
        (process, sure, meet), coin = sweep(trials, seed)
        return (process, recount(sure, sure.yes - 1), meet), coin

    monkeypatch.setattr(checks, "wood_product_sweep", one_short)
    result = check_product_choice_theorem()
    assert not result.passed
    assert result.detail == "burnability*floatability: 9999/10000 yes, expected all"


def test_product_choice_theorem_fails_on_a_meet_that_is_never_actual(monkeypatch):
    monkeypatch.setattr(product, "meet_actual", lambda prod, state: False)
    result = check_product_choice_theorem()
    assert not result.passed
    assert result.detail == "burnability*floatability meet should be actual"


def test_elastic_suite_fails_on_a_dropping_sub_half_count(monkeypatch):
    walk = checks.break_trajectory

    def dropping(seed, breaks):
        for i, step in enumerate(walk(seed, breaks)):
            yield dataclasses.replace(step, subhalf=-1) if i == 3 else step

    monkeypatch.setattr(checks, "break_trajectory", dropping)
    result = check_elastic_suite()
    assert not result.passed
    assert "sub-half count dropped at break 2" in result.detail


def test_elastic_suite_fails_on_a_band_that_grows(monkeypatch):
    def stretched(state):  # the last fragment 1e-6 longer
        return ElasticBandState((*state.fragments[:-1], state.fragments[-1] + 1e-6),
                                state.original_length)

    patch_walk(monkeypatch, lambda breaks, i, step: types.SimpleNamespace(
        subhalf=step.subhalf, state=lambda: stretched(step.state())) if i == breaks else step)
    result = check_elastic_suite()
    assert not result.passed
    assert re.fullmatch(r"length drifted to 1\.00000\d+ after 10000 breaks", result.detail)


def test_elastic_suite_fails_on_a_walk_one_break_short(monkeypatch):
    walk = checks.break_trajectory
    monkeypatch.setattr(checks, "break_trajectory",
                        lambda seed, breaks: walk(seed, breaks - 1 if breaks == 10_000 else breaks))
    result = check_elastic_suite()
    assert not result.passed
    assert result.detail == "expected 10001 fragments, got 10000"


def test_elastic_suite_fails_on_a_sub_half_count_one_high(monkeypatch):
    # one high at every step of the long walk: never dropping, but not the band's count
    patch_walk(monkeypatch, lambda breaks, i, step: types.SimpleNamespace(
        subhalf=step.subhalf + 1, state=step.state) if breaks == 10_000 else step)
    result = check_elastic_suite()
    assert not result.passed
    assert result.detail == "incremental sub-half bookkeeping disagrees with direct count"


def test_elastic_suite_fails_on_a_left_handedness_biased_to_0_51(monkeypatch):
    def biased(state, rng):
        return (YES if rng.draw() < 0.51 else NO), state

    patch_kernel(monkeypatch, "LEFT_HANDEDNESS", biased)
    result = check_elastic_suite()
    assert not result.passed
    assert re.fullmatch(r"left-handedness: 0\.5 outside Wilson 99% \[0\.5\d{3}, 0\.5\d{3}\]",
                        result.detail)
    assert LEFT_HANDEDNESS.kernel is not biased


def test_elastic_suite_fails_on_a_fragmentation_that_is_never_actual(monkeypatch):
    # the band is fragmented once its longest piece is under half; this says never
    monkeypatch.setattr(checks, "is_actual", lambda prop, state: False)
    result = check_elastic_suite()
    assert not result.passed
    assert re.fullmatch(r"actuality threshold broken on trajectory 0 step \d+", result.detail)


def test_elastic_suite_fails_on_a_trajectory_back_to_the_unbroken_band(monkeypatch):
    # after ten breaks some fragment is under half; the unbroken band has none
    unbroken = types.SimpleNamespace(subhalf=0, state=lambda: ElasticBandState.unbroken(1.0))
    patch_walk(monkeypatch, lambda breaks, i, step: unbroken if (breaks, i) == (60, 10) else step)
    result = check_elastic_suite()
    assert not result.passed
    assert result.detail == "sub-half count decreased on trajectory 0 step 10"


def test_compaction_creation_fails_on_a_kernel_that_passes_the_first_press(monkeypatch):
    monkeypatch.setattr(checks, "INCOMPRESSIBILITY",
                        dataclasses.replace(INCOMPRESSIBILITY, kernel=lambda s, rng: (YES, s)))
    result = check_compaction_creation()
    assert not result.passed
    assert result.detail.startswith("case 0: first test passed at ratio ")


def test_compaction_creation_fails_on_a_kernel_that_fails_the_second_press(monkeypatch):
    press = INCOMPRESSIBILITY.kernel
    patch_kernel(monkeypatch, "INCOMPRESSIBILITY", lambda s, rng: (NO, press(s, rng)[1]))
    result = check_compaction_creation()
    assert not result.passed
    assert result.detail.startswith("case 0: second test failed after compaction; case 1: ")
    assert "first test" not in result.detail and "changed" not in result.detail


def test_compaction_creation_fails_on_a_press_that_squeezes_a_compacted_solid(monkeypatch):
    def squeezing(s, rng):  # every press also halves the volume
        outcome, pressed = press(s, rng)
        return outcome, SolidState(0.5 * pressed.volume, pressed.compaction_ratio)

    press = INCOMPRESSIBILITY.kernel
    patch_kernel(monkeypatch, "INCOMPRESSIBILITY", squeezing)
    result = check_compaction_creation()
    assert not result.passed
    assert result.detail.startswith("case 0: second press changed a compacted solid; case 1: ")
    assert "test" not in result.detail


def test_compaction_creation_draws_again_for_a_ratio_at_the_pass_threshold(monkeypatch):
    # a ratio draw of 0 gives 1%, which the first press passes; the check draws again
    class ZeroRatioDraw:
        def __init__(self, seed):
            self.stream, self.calls = real(seed), 0
            streams.append(self)

        def draw(self):
            self.calls += 1
            return 0.0 if self.calls == 2 else self.stream.draw()

    real, streams = checks.TrialStream, []
    monkeypatch.setattr(checks, "TrialStream", ZeroRatioDraw)
    result = check_compaction_creation()
    assert result.passed, result.detail
    assert [s.calls for s in streams] == [2 * 100 + 1]


def test_taxonomy_fixture_fails_on_a_changed_reference_row(monkeypatch):
    table = list(taxonomy.EXPECTED_DEFAULT_TABLE)
    name, effect, _, persistence = table[4]
    table[4] = (name, effect, taxonomy.Predictability.DETERMINISTIC, persistence)
    monkeypatch.setattr(taxonomy, "EXPECTED_DEFAULT_TABLE", tuple(table))
    result = check_taxonomy_fixture()
    assert not result.passed
    assert result.detail.startswith("expected ('quantum-machine', ")


def test_taxonomy_fixture_fails_on_a_reference_one_row_short(monkeypatch):
    table = taxonomy.EXPECTED_DEFAULT_TABLE
    monkeypatch.setattr(taxonomy, "EXPECTED_DEFAULT_TABLE", table[:-1])
    result = check_taxonomy_fixture()
    assert not result.passed
    assert result.detail == f"expected {len(table) - 1} rows, got {len(table)}"


def test_csv_determinism_fails_on_a_rerun_that_writes_other_bytes(monkeypatch):
    main, runs = cli.main, []

    def rerun_differs(argv):
        code = main(argv)
        runs.append(argv)
        if len(runs) == 3:  # the repeated flag run
            with open(argv[-1], "ab") as fh:
                fh.write(b"\n")
        return code

    monkeypatch.setattr(cli, "main", rerun_differs)
    result = check_csv_determinism()
    assert not result.passed
    assert result.detail == "repeated flag runs differ"


def test_csv_determinism_fails_on_a_config_run_that_exits_4(monkeypatch):
    main = cli.main
    monkeypatch.setattr(cli, "main", lambda argv: 4 if "--config" in argv else main(argv))
    result = check_csv_determinism()
    assert not result.passed
    assert result.detail.startswith("cli exited 4 for ['quantum-machine', '--config', ")
    assert ";" not in result.detail  # the bytes are not compared


def test_csv_determinism_fails_on_a_config_run_that_writes_other_bytes(monkeypatch):
    main = cli.main

    def config_differs(argv):
        code = main(argv)
        if "--config" in argv:
            with open(argv[-1], "ab") as fh:
                fh.write(b"\n")
        return code

    monkeypatch.setattr(cli, "main", config_differs)
    result = check_csv_determinism()
    assert not result.passed
    assert result.detail == "flag and --config runs differ"
