"""Seedable Monte Carlo trial runner and statistical comparison helpers.

Every trial observes a freshly prepared copy of the same initial state, and
trial i always consumes the draw stream derived from (master seed, i), so a
report is a pure function of (process, state, trials, seed). Counts are
exact integers; derived reals are computed once from the totals. The one
walk that feeds each post-state into the next observation, the breaking
elastic band, is ``exemplars.break_trajectory``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence

from .core import YES, ObservationProcess, Outcome
from .randomness import TrialStream, substream_seed


BLOCKS_FROM = 8  # trials; a shorter run is faster in the kernel loop than numpy's set-up


def wilson_interval(yes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Chosen over the normal approximation because it stays inside [0, 1] and
    behaves at the boundary counts that deterministic processes produce:
    yes = 0 pins the lower bound to 0, yes = trials pins the upper to 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if not 0 <= yes <= trials:
        raise ValueError(f"yes count must be in [0, {trials}], got {yes!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    z = NormalDist().inv_cdf(0.5 + 0.5 * confidence)
    n = float(trials)
    p_hat = yes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
    low = 0.0 if yes == 0 else max(0.0, center - margin)
    high = 1.0 if yes == trials else min(1.0, center + margin)
    return low, high


@dataclass(frozen=True)
class TrialReport:
    """Exact counts plus derived estimates for one batch of trials."""

    process_id: str
    state: str
    trials: int
    yes: int
    p_hat: float
    wilson_low: float
    wilson_high: float
    analytic: Optional[float]
    z_score: Optional[float]
    seed: int
    records: Optional[tuple] = None


def run_trials(
    process: ObservationProcess,
    initial_state: object,
    trials: int,
    seed: int,
    workers: int = 1,
    collect_records: bool = False,
) -> TrialReport:
    """Observe ``initial_state`` afresh ``trials`` times and report exact counts.

    Trial i draws from TrialStream(seed, i) alone, so the report is the same
    however the trials are scheduled: they run in one thread in index order,
    and ``workers`` is accepted but has no effect. Each record is the
    kernel's on its trial's first draw taken from a numpy block. Without
    records, from ``BLOCKS_FROM`` trials on, a process whose ``first_draw``
    decides the state has its yes outcomes counted in blocks without a
    kernel call per trial. Counts and records equal the kernel loop's.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    process.check_scenario(initial_state)

    analytic = None
    if process.analytic is not None:
        analytic = process.analytic(initial_state)

    decision = None
    if trials >= BLOCKS_FROM and not collect_records and process.first_draw is not None:
        decision = process.first_draw(initial_state)
    records = None
    kernel = process.kernel
    if collect_records:
        from .blocks import record_trials  # numpy: only a run that records or counts in blocks

        records = record_trials(process, initial_state, seed, trials)
        yes = sum(rec.outcome is YES for rec in records)
    elif isinstance(decision, Outcome):
        yes = trials if decision is YES else 0
    elif decision is not None:
        from .blocks import count_yes

        yes = count_yes(decision, kernel, initial_state, seed, trials)
    else:
        yes = sum(kernel(initial_state, TrialStream(seed, i))[0] is YES for i in range(trials))

    p_hat = yes / trials
    low, high = wilson_interval(yes, trials, 0.99)
    z = None
    if analytic is not None and 0.0 < analytic < 1.0:
        z = (p_hat - analytic) / math.sqrt(analytic * (1.0 - analytic) / trials)
    return TrialReport(
        process.id, str(initial_state), trials, yes, p_hat, low, high, analytic, z, seed,
        tuple(records) if records is not None else None,
    )


def chi_square_against_analytic(
    reports: Sequence[TrialReport],
) -> tuple[Optional[float], int, Optional[float]]:
    """Goodness of fit of observed yes counts against the analytic values.

    Points with analytic p in {0, 1} carry zero expected variance and are
    excluded; they are asserted exactly elsewhere. One degree of freedom per
    remaining point (two cells each, fixed total). The p-value is the
    chi-square upper tail in closed form (A&S 26.4.4 and 26.4.5).
    """
    terms = []
    for r in reports:
        p = r.analytic
        if p is None or p <= 0.0 or p >= 1.0:
            continue
        expected_yes = r.trials * p
        terms.append((r.yes - expected_yes) ** 2 / (expected_yes * (1.0 - p)))
    if not terms:
        return None, 0, None
    stat = math.fsum(terms)
    dof = len(terms)
    return stat, dof, _chi_square_sf(stat, dof)


def _chi_square_sf(x: float, dof: int) -> float:
    """P(X >= x) for X chi-square with integer ``dof`` >= 1, in closed form.

    Abramowitz & Stegun 26.4.4 (even dof) and 26.4.5 (odd dof):
    Q = [erfc(sqrt(x/2)) if dof is odd] + sum over k of (x/2)**k e**(-x/2) / Gamma(k+1),
    k = dof/2 - 1, dof/2 - 2, ... down to 0 or 1/2. Each term is formed from
    its own logarithm and the terms are summed shifted by the largest, so
    nothing overflows at large dof and a tail below the float range is 0.0;
    a running product of term ratios would drift by about 5e-10 at dof 160 000.
    """
    half = 0.5 * x
    if half <= 0.0:  # x <= 0, or so small that x/2 rounds to 0
        return 1.0
    if half == math.inf:
        return 0.0
    log_half = math.log(half)
    logs = [k * log_half - math.lgamma(k + 1.0) - half
            for k in ((dof - 2 - 2 * i) / 2 for i in range(dof // 2))]
    tail = math.erfc(math.sqrt(half)) if dof % 2 else 0.0
    if logs:
        top = max(logs)
        tail += math.exp(top) * math.fsum(math.exp(v - top) for v in logs)
    return min(tail, 1.0)


def sweep(
    points: Sequence[tuple[ObservationProcess, object]],
    trials: int,
    seed: int,
) -> tuple[TrialReport, ...]:
    """Run every (process, state) pair at ``trials`` trials; pair k uses the
    derived seed substream_seed(seed, k). Pass the reports to
    :func:`chi_square_against_analytic` for the goodness of fit."""
    if not points:
        raise ValueError("sweep grid must be nonempty")
    return tuple(
        run_trials(process, state, trials, substream_seed(seed, k))
        for k, (process, state) in enumerate(points)
    )


def estimator_status(yes: int, trials: int, analytic: float) -> str:
    """'ok' within 4 standard errors, 'flag' between 4 and 5, 'fail' beyond."""
    if analytic <= 0.0 or analytic >= 1.0:
        return "ok" if yes == round(trials * analytic) else "fail"
    se = math.sqrt(analytic * (1.0 - analytic) / trials)
    dev = abs(yes / trials - analytic)
    if dev <= 4.0 * se:
        return "ok"
    if dev <= 5.0 * se:
        return "flag"
    return "fail"
