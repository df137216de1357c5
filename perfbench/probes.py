"""Timed loops for the per-call cost of hot functions.

Wrapping a million kernel calls would time the wrapper, so each hot
function is timed here in a plain loop on prebuilt inputs, outside the
workload's timed region. Each figure is the median over ``REPEATS`` loops.
"""

from __future__ import annotations

import statistics
import time

from obsim import core, exemplars, machines, stats
from obsim.randomness import TrialStream
from workloads import coin_process, machine_process

REPEATS = 5
LOOPS = {"full": 20_000, "tiny": 200}
_BAND_SIZES = {"1k": 1_024, "8k": 8_192}


def _per_call_ns(body, n: int) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        body(n)
        samples.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(samples)


def _kernel_ns(kernel, state, seed: int, n: int) -> float:
    def body(count):
        rng = TrialStream(seed)
        for _ in range(count):
            kernel(state, rng)
    return _per_call_ns(body, n)


def band_with(fragments: int, seed: int) -> exemplars.ElasticBandState:
    """A band already broken into ``fragments`` positive pieces summing to 1."""
    rng = TrialStream(seed)
    raw = [0.5 + rng.draw() for _ in range(fragments)]
    total = sum(raw)
    return exemplars.ElasticBandState(tuple(x / total for x in raw), 1.0)


def run(seed: int, size: str = "full"):
    """Returns (metrics, replays, replays_ok); metrics maps name -> (value, unit)."""
    n = LOOPS[size]
    state = machines.sphere_point_at(1.0)
    uniform = machine_process(machines.UniformBreak())
    segment = machine_process(machines.SegmentBreak(0.5))
    coin = coin_process()
    metrics = {}

    def streams(count):
        for i in range(count):
            TrialStream(seed, i)
    metrics["randomness.stream_init_ns"] = (_per_call_ns(streams, n), "ns")

    def draws(count):
        draw = TrialStream(seed).draw
        for _ in range(count):
            draw()
    metrics["randomness.draw_ns"] = (_per_call_ns(draws, n), "ns")

    metrics["machines.uniform_kernel_ns"] = (_kernel_ns(uniform.kernel, state, seed, n), "ns")
    metrics["machines.segment_kernel_ns"] = (_kernel_ns(segment.kernel, state, seed, n), "ns")
    metrics["product.kernel_ns"] = (_kernel_ns(coin.kernel, exemplars.DRY_INTACT, seed, n), "ns")

    for label, fragments in _BAND_SIZES.items():
        band = band_with(fragments, seed)
        breaks = max(10, n // 100)
        metrics[f"exemplars.left_handedness_ns_{label}"] = (
            _kernel_ns(exemplars.LEFT_HANDEDNESS.kernel, band, seed, breaks), "ns")

    records = []

    def observes(count):
        records.clear()
        rng = TrialStream(seed)
        for i in range(count):
            records.append(core.observe(uniform, state, rng, index=i)[2])
    metrics["core.observe_ns"] = (_per_call_ns(observes, n), "ns")

    verdicts = []

    def replays(count):
        verdicts.clear()
        for rec in records[:count]:
            verdicts.append(core.verify_replay(uniform, rec))
    metrics["core.replay_ns"] = (_per_call_ns(replays, n), "ns")

    block = n
    one = _per_call_ns(lambda _: stats.run_trials(uniform, state, block, seed, workers=1), 1)
    two = _per_call_ns(lambda _: stats.run_trials(uniform, state, block, seed, workers=2), 1)
    metrics["stats.workers2_over_1"] = (two / one, "ratio")
    return metrics, len(verdicts), sum(verdicts)
