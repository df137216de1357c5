"""Acceptance checks: the statistical and exact assertions the library must
pass, runnable both from pytest and from the CLI --check flag.

Seeds are pinned here so a failure means a broken implementation, not an
unlucky sample.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

from . import taxonomy
from .core import YES, is_actual, PropertyDef
from .exemplars import (
    FRAGMENTATION,
    INCOMPRESSIBILITY,
    LEFT_HANDEDNESS,
    ElasticBandState,
    SolidState,
    break_trajectory,
)
from .machines import SegmentBreak, UniformBreak, machine_sweep, quantum_machine_prob
from .product import wood_product_sweep
from .randomness import TrialStream, substream_seed
from .stats import run_trials
from .taxonomy import taxonomy_table

ACCEPTANCE_SEED = 42

_PI = math.pi
_EQ1_GAMMAS = (0.0, _PI / 6, _PI / 4, _PI / 3, _PI / 2, 2 * _PI / 3, 5 * _PI / 6, _PI)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, failures: list[str], detail_ok: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, "; ".join(failures))
    return CheckResult(name, True, detail_ok)


def check_uniform_curve(seed: int = ACCEPTANCE_SEED, trials: int = 100_000) -> CheckResult:
    """Two-outcome machine, uniform band: empirical frequency vs the closed
    form (1 + cos gamma)/2 on the eight canonical angles; exact at 0 and pi."""
    failures: list[str] = []
    t0 = time.perf_counter()
    for _, gamma, report in machine_sweep([None], _EQ1_GAMMAS, trials, seed):
        p = quantum_machine_prob(gamma, UniformBreak())
        if p in (0.0, 1.0):
            if report.yes != int(p) * trials:
                failures.append(f"gamma={gamma:.4f}: expected exact count, got {report.yes}")
            continue
        bound = max(0.005, 4.0 * math.sqrt(p * (1.0 - p) / trials))
        if abs(report.p_hat - p) > bound:
            failures.append(
                f"gamma={gamma:.4f}: |{report.p_hat:.5f} - {p:.5f}| > {bound:.5f}"
            )
    elapsed = time.perf_counter() - t0
    if elapsed > 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    return _result(
        "uniform-curve",
        failures,
        f"8 angles x {trials} trials within max(0.005, 4se) in {elapsed:.2f}s",
    )


@functools.cache
def _legendre_rule() -> tuple[tuple[float, float], ...]:
    """The 20-point Gauss-Legendre (node, weight) pairs on [-1, 1], nodes
    ascending: Newton steps on P_20's three-term recurrence from Tricomi's
    guess to each positive root x, the weight 2 / ((1 - x^2) P_20'(x)^2),
    and the negative half by symmetry."""
    upper = []
    for i in range(10):  # from the largest root down
        x, step = math.cos(math.pi * (i + 0.75) / 20.5), 1.0
        while True:  # 3 or 4 steps for each root, and P_20' at the last x
            p0, p1 = 1.0, x
            for k in range(2, 21):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            slope = 20 * (x * p1 - p0) / (x * x - 1.0)
            if abs(step) < 1e-15:
                break
            step = p1 / slope
            x -= step
        upper.append((x, 2.0 / ((1.0 - x * x) * slope * slope)))
    return (*((-x, w) for x, w in upper), *reversed(upper))


def segment_prob_oracle(gamma: float, width: float) -> float:
    """Independent check of the segment closed form: numerically integrate
    the uniform break density over the points strictly below the particle.

    Gauss-Legendre quadrature on each piece between the band's ends and the
    landing point, where the integrand is smooth; it never reads the clamp
    formula it checks. ``width`` must be in [1e-6, 1]: on a band only a few
    floats wide the nodes round onto the piece ends and the rule is meaningless.
    """
    if not 1e-6 <= width <= 1.0:  # written so that a NaN width fails
        raise ValueError(f"segment_prob_oracle: width must be in [1e-6, 1], got {width!r}")
    landing = 0.5 * (1.0 + math.cos(gamma))
    a, b = 0.5 - 0.5 * width, 0.5 + 0.5 * width
    density = 1.0 / width

    def below(x: float) -> float:
        return density if x < landing else 0.0

    cuts = (a, landing, b) if a < landing < b else (a, b)
    value = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        value += half * math.fsum(w * below(mid + half * t) for t, w in _legendre_rule())
    return value


def check_segment_regime_map(
    seed: int = ACCEPTANCE_SEED,
    trials: int = 10_000,
    widths: tuple = (0.25, 0.5, 0.75),
    grid_points: int = 25,
) -> CheckResult:
    """Segment-band regime map: closed form vs integration oracle to 1e-9,
    zero variance in the deterministic regime, 0.01 agreement inside the
    probabilistic window, and width 1 equal to the uniform band everywhere."""
    gammas = [k * _PI / (grid_points - 1) for k in range(grid_points)]
    failures: list[str] = []

    for width in widths:
        for gamma in gammas:
            formula = quantum_machine_prob(gamma, SegmentBreak(width))
            if abs(formula - segment_prob_oracle(gamma, width)) > 1e-9:
                failures.append(f"oracle mismatch at gamma={gamma:.4f}, eps={width}")

    for width, gamma, report in machine_sweep(widths, gammas, trials, seed):
        c = math.cos(gamma)
        expected = quantum_machine_prob(gamma, SegmentBreak(width))
        if abs(c) > width:
            if report.yes not in (0, trials):
                failures.append(
                    f"eps={width}, gamma={gamma:.4f}: deterministic regime has variance"
                )
            elif report.p_hat != expected:
                failures.append(
                    f"eps={width}, gamma={gamma:.4f}: wrong deterministic value"
                )
        elif abs(c) < width and abs(report.p_hat - expected) > 0.01:
            failures.append(
                f"eps={width}, gamma={gamma:.4f}: |{report.p_hat:.4f} - {expected:.4f}| > 0.01"
            )

    for gamma in gammas:
        if quantum_machine_prob(gamma, SegmentBreak(1.0)) != quantum_machine_prob(
            gamma, UniformBreak()
        ):
            failures.append(f"eps=1 differs from uniform at gamma={gamma:.4f}")

    return _result(
        "segment-regime-map",
        failures,
        f"{len(widths)}x{grid_points} grid: oracle to 1e-9, exact regimes, 0.01 window",
    )


def check_product_choice_theorem(seed: int = ACCEPTANCE_SEED, trials: int = 10_000) -> CheckResult:
    """Product tests on fresh dry intact wood: burnability*floatability is
    certain; non-burnability*floatability is a fair coin whose meet is not
    actual although each chosen component is individually deterministic."""
    failures: list[str] = []

    (_, sure, certain_meet), (_, report, coin_meet) = wood_product_sweep(trials, seed)
    if sure.yes != trials:
        failures.append(f"burnability*floatability: {sure.yes}/{trials} yes, expected all")
    if not certain_meet:
        failures.append("burnability*floatability meet should be actual")

    low, high = report.wilson_low, report.wilson_high
    if not (low <= 0.5 <= high):
        failures.append(f"non-burnability*floatability: 0.5 outside Wilson 99% "
                        f"[{low:.4f}, {high:.4f}]")
    if coin_meet:
        failures.append("non-burnability*floatability meet should not be actual")

    return _result(
        "product-choice-theorem",
        failures,
        f"certain product {trials}/{trials}; coin product inside Wilson 99%; meet not actual",
    )


def check_elastic_suite(
    seed: int = ACCEPTANCE_SEED,
    breaks: int = 10_000,
    lh_trials: int = 100_000,
    trajectories: int = 50,
    trajectory_breaks: int = 60,
) -> CheckResult:
    """Elastic band: length conservation over a long breaking trajectory,
    fair left-handedness frequency, fragmentation actuality exactly at the
    all-fragments-below-half threshold, and monotone sub-half counts."""
    failures: list[str] = []

    half = 0.5
    prev_subhalf = 0
    for i, step in enumerate(break_trajectory(seed, breaks)):
        if step.subhalf < prev_subhalf:
            failures.append(f"sub-half count dropped at break {i - 1}")
            break
        prev_subhalf = step.subhalf
    state = step.state()
    total = math.fsum(state.fragments)
    if abs(total - 1.0) > 1e-9:
        failures.append(f"length drifted to {total!r} after {breaks} breaks")
    if len(state.fragments) != breaks + 1:
        failures.append(f"expected {breaks + 1} fragments, got {len(state.fragments)}")
    if step.subhalf != state.subhalf_count():
        failures.append("incremental sub-half bookkeeping disagrees with direct count")

    report = run_trials(
        LEFT_HANDEDNESS, ElasticBandState.unbroken(1.0), lh_trials, substream_seed(seed, 1)
    )
    if not (report.wilson_low <= 0.5 <= report.wilson_high):
        failures.append(
            f"left-handedness: 0.5 outside Wilson 99% "
            f"[{report.wilson_low:.4f}, {report.wilson_high:.4f}]"
        )

    frag_prop = PropertyDef("fragmentation", FRAGMENTATION)
    for t in range(trajectories):
        steps = break_trajectory(substream_seed(seed, 100 + t), trajectory_breaks)
        prev_subhalf = 0
        for i, step in enumerate(steps):
            s = step.state()
            if is_actual(frag_prop, s) != (s.max_fragment() < half):
                failures.append(f"actuality threshold broken on trajectory {t} step {i}")
                break
            count = s.subhalf_count()
            if count < prev_subhalf:
                failures.append(f"sub-half count decreased on trajectory {t} step {i}")
                break
            prev_subhalf = count
        else:
            continue
        break

    return _result(
        "elastic-band-suite",
        failures,
        f"conservation to 1e-9 over {breaks} breaks; fair coin at {lh_trials}; "
        f"actuality threshold on {trajectories} trajectories",
    )


def check_compaction_creation(seed: int = ACCEPTANCE_SEED, cases: int = 100) -> CheckResult:
    """Any solid the press would squeeze by more than 1% fails the first
    test and passes the second: the observation created what it measured."""
    failures: list[str] = []
    stream = TrialStream(seed)
    for k in range(cases):
        volume = 0.1 + 9.9 * stream.draw()
        ratio = 0.01 + 0.99 * stream.draw()
        while ratio <= 0.01:  # keep strictly above the pass threshold
            ratio = 0.01 + 0.99 * stream.draw()
        state = SolidState(volume, ratio)
        first, pressed = INCOMPRESSIBILITY.kernel(state, stream)
        second, final = INCOMPRESSIBILITY.kernel(pressed, stream)
        if first is YES:
            failures.append(f"case {k}: first test passed at ratio {ratio:.4f}")
        if second is not YES:
            failures.append(f"case {k}: second test failed after compaction")
        if final != pressed:
            failures.append(f"case {k}: second press changed a compacted solid")
    return _result(
        "compaction-creation",
        failures,
        f"{cases} randomized solids: first no, second yes",
    )


def check_taxonomy_fixture() -> CheckResult:
    """The default suite classifies exactly as the reference table."""
    failures: list[str] = []
    rows = taxonomy_table(taxonomy.default_suite())
    got = tuple((r.property_name, r.effect, r.predictability, r.persistence) for r in rows)
    for expected_row, actual_row in zip(taxonomy.EXPECTED_DEFAULT_TABLE, got):
        if expected_row != actual_row:
            failures.append(f"expected {expected_row}, got {actual_row}")
    if len(got) != len(taxonomy.EXPECTED_DEFAULT_TABLE):
        failures.append(f"expected {len(taxonomy.EXPECTED_DEFAULT_TABLE)} rows, got {len(got)}")
    return _result("taxonomy-fixture", failures, f"{len(got)} rows match the reference table")


def check_csv_determinism(seed: int = ACCEPTANCE_SEED) -> CheckResult:
    """The CLI emits byte-identical files for identical settings: given as
    flags, given in a ``--config`` file, and given as flags again."""
    import tempfile
    from pathlib import Path

    from . import cli

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text(f"gamma-grid = 5\ntrials = 2000\nseed = {seed}\n", encoding="utf-8")
        flags = ["--gamma-grid", "5", "--trials", "2000", "--seed", str(seed)]
        blobs = []
        for settings in (flags, ["--config", str(config)], flags):
            out = Path(tmp) / f"{len(blobs)}.csv"
            argv = ["quantum-machine", *settings, "--out", str(out)]
            code = cli.main(argv)
            if code != 0:
                failures.append(f"cli exited {code} for {argv}")
            blobs.append(out.read_bytes() if code == 0 else None)
        if not failures:
            if blobs[0] != blobs[1]:
                failures.append("flag and --config runs differ")
            if blobs[0] != blobs[2]:
                failures.append("repeated flag runs differ")
    return _result("csv-determinism", failures, "byte-identical from flags, --config and a rerun")

