"""Block counts and records against the scalar kernel loop, bit for bit."""

import contextlib
import dataclasses
import gc
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obsim import (
    BURNABILITY,
    DRY_INTACT,
    FLOATABILITY,
    FRAGMENTATION,
    INCOMPRESSIBILITY,
    LEFT_HANDEDNESS,
    NON_BURNABILITY,
    ElasticApparatus,
    ElasticBandState,
    LinePosition,
    ObservationProcess,
    ProductObservation,
    SawtoothRuler,
    SegmentBreak,
    SequenceStream,
    SolidState,
    SpherePoint,
    TrialStream,
    UniformBreak,
    WoodState,
    observe,
    product_process,
    quantum_machine_process,
    run_trials,
    sawtooth_position_process,
    sphere_point_at,
)
from obsim import blocks, randomness, stats
from obsim.core import YES, FirstDraw
from obsim.randomness import first_draws, pick


def machine(profile, orientation=(0.0, 0.0, 1.0)):
    return quantum_machine_process(ElasticApparatus(orientation, 1.0, profile))


EQUATOR = SpherePoint((1.0, 0.0, 0.0))  # cos gamma exactly 0: every draw at 0.5 is a tie
NORTH = SpherePoint((0.0, 0.0, 1.0))
SOUTH = SpherePoint((0.0, 0.0, -1.0))
MACHINE_STATES = (sphere_point_at(1.0), sphere_point_at(2.5), EQUATOR, NORTH, SOUTH)
PROFILES = (UniformBreak(), SegmentBreak(0.25), SegmentBreak(1.0), SegmentBreak(1e-310),
            SegmentBreak(0.0))
# about half the first draws leave a zero-length piece of this band, and its
# kernel draws again
SUBNORMAL_BAND = ElasticBandState((1e-323,), 1e-323)
COIN = product_process(ProductObservation((NON_BURNABILITY, FLOATABILITY)))
THREE = product_process(ProductObservation((BURNABILITY, NON_BURNABILITY, FLOATABILITY)))
# the outer pick decides, but on the inner product the kernel picks again: 1 or 2 draws
NESTED = product_process(ProductObservation(
    (product_process(ProductObservation((BURNABILITY, FLOATABILITY))), NON_BURNABILITY)
))

BLOCK_CASES = [(machine(p), s) for p in PROFILES for s in MACHINE_STATES] + [
    (LEFT_HANDEDNESS, ElasticBandState.unbroken(1.0)),
    (LEFT_HANDEDNESS, ElasticBandState((0.3, 0.7), 1.0)),
    (LEFT_HANDEDNESS, SUBNORMAL_BAND),
    (COIN, DRY_INTACT),  # a mixed pick with posts
    (THREE, DRY_INTACT),  # mixed, without posts: a yes leaves ashes or wet wood
    (product_process(ProductObservation((BURNABILITY, FLOATABILITY))), DRY_INTACT),  # all yes
    (NESTED, DRY_INTACT),
    (BURNABILITY, DRY_INTACT),
    (INCOMPRESSIBILITY, SolidState(1.0, 0.5)),
    # machines at their poles: the pick decides, and then the chosen machine draws
    (product_process(ProductObservation((machine(UniformBreak()), machine(UniformBreak())))),
     NORTH),  # +z with +z: always yes
    (product_process(ProductObservation(  # +z, -z: mixed, without posts, as both draw
        (machine(UniformBreak()), machine(UniformBreak(), (0.0, 0.0, -1.0))))), NORTH),
]
FIRST_DRAW_CASES = [(p, s) for p, s in BLOCK_CASES if p.first_draw(s).yes is not None]
# decided with no draw read: a pick whose entries all answer alike
CERTAIN_CASES = [(p, s) for p, s in BLOCK_CASES if p.first_draw(s).yes is None]
TOOTH_TIP = (sawtooth_position_process(SawtoothRuler(), 0), LinePosition(0.5))
# the pick and then the chosen machine: every trial draws twice
TWO_MACHINES = product_process(
    ProductObservation((machine(UniformBreak()), machine(SegmentBreak(0.25))))
)
RECORD_CASES = BLOCK_CASES + [TOOTH_TIP, (TWO_MACHINES, sphere_point_at(1.0))]

# a draw is k * 2**-53; ties and their neighbours are the draws that matter
DRAWS = st.one_of(
    st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1 / 3, 1.0 - 2.0**-53]).flatmap(
        lambda r: st.sampled_from([r, math.nextafter(r, 0.0), math.nextafter(r, 1.0)])
    ).filter(lambda r: 0.0 <= r < 1.0),
)


def observe_loop(process, state, trials, seed):
    """The records of the kernel loop, each trial on its own TrialStream."""
    return [observe(process, state, TrialStream(seed, i), index=i)[2] for i in range(trials)]


def test_every_case_is_decided_without_the_kernel_loop():
    assert len(FIRST_DRAW_CASES) >= 20
    for process, state in BLOCK_CASES:
        decision = process.first_draw(state)
        assert isinstance(decision, FirstDraw), process.id
        assert decision.yes is not None or decision.always is not None, process.id


@given(
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**40),
    n=st.integers(0, 40),
)
@example(seed=0, start=0, n=40)
@example(seed=2**64 - 1, start=0, n=40)
@settings(max_examples=100, deadline=None)
def test_first_draws_are_the_stream_draws(seed, start, n):
    draws = blocks.first_draws(seed, start, start + n)
    assert draws.dtype == np.float64
    assert draws.tolist() == [TrialStream(seed, i).draw() for i in range(start, start + n)]


@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 300))
@example(seed=0, n=300)
@example(seed=2**64 - 1, n=300)
@settings(max_examples=50, deadline=None)
def test_pure_python_first_draws_are_the_block_draws(seed, n):
    expected = [TrialStream(seed, i).draw().hex() for i in range(n)]
    with pytest.MonkeyPatch.context() as patch:
        # without numpy loaded, first_draws takes no block
        patch.delitem(sys.modules, "numpy")
        patch.setattr(blocks, "first_draws", mock.Mock(side_effect=AssertionError("a block draw")))
        assert [r.hex() for r in first_draws(seed, n)] == expected
    assert [r.hex() for r in blocks.first_draws(seed, 0, n).tolist()] == expected
    with mock.patch.object(randomness, "_DRAWS_PER_LIST", 7):  # with numpy loaded
        assert [r.hex() for r in first_draws(seed, n)] == expected


# one short of, on, or one past a block edge, with a small block so edges are cheap;
# up to 24 blocks, so that runs fall on both sides of stats.BLOCKS_FROM
BLOCK_EDGES = dict(
    seed=st.integers(0, 2**64 - 1),
    block=st.integers(1, 16),
    full_blocks=st.integers(0, 24),
    edge=st.sampled_from((-1, 0, 1)),
)


@given(case=st.sampled_from(BLOCK_CASES), **BLOCK_EDGES)
@example(case=BLOCK_CASES[0], seed=0, block=4, full_blocks=2, edge=1)
@example(case=(LEFT_HANDEDNESS, SUBNORMAL_BAND), seed=2**64 - 1, block=5, full_blocks=3, edge=-1)
@example(case=BLOCK_CASES[0], seed=0, block=1, full_blocks=stats.BLOCKS_FROM, edge=-1)
@example(case=BLOCK_CASES[0], seed=0, block=1, full_blocks=stats.BLOCKS_FROM, edge=0)
# two machines at a pole: +z with -z counts in blocks, +z with +z takes no draws
@example(case=BLOCK_CASES[-1], seed=0, block=3, full_blocks=4, edge=1)
@example(case=BLOCK_CASES[-2], seed=0, block=3, full_blocks=4, edge=1)
@settings(max_examples=400, deadline=None)
def test_block_count_is_the_kernel_loop(case, seed, block, full_blocks, edge):
    process, state = case
    trials = max(1, full_blocks * block + edge)
    counter = mock.Mock(wraps=blocks.count_yes)
    with mock.patch.object(blocks, "BLOCK", block), mock.patch.object(blocks, "count_yes", counter):
        report = run_trials(process, state, trials, seed)
    decision = process.first_draw(state)
    # a decision that every draw answers alike counts with no draws
    in_blocks = trials >= stats.BLOCKS_FROM and decision.always is None
    assert counter.called == in_blocks
    assert report.records is None
    assert report.yes == sum(rec.outcome is YES for rec in observe_loop(process, state, trials, seed))


@given(case=st.sampled_from(RECORD_CASES), **BLOCK_EDGES)
@example(case=(LEFT_HANDEDNESS, SUBNORMAL_BAND), seed=0, block=3, full_blocks=5, edge=1)
@example(case=(LEFT_HANDEDNESS, SUBNORMAL_BAND), seed=2**64 - 1, block=16, full_blocks=2, edge=-1)
@example(case=TOOTH_TIP, seed=2**64 - 1, block=7, full_blocks=2, edge=0)
# trials 7 to 11 all draw again, in and across blocks of 2: each trial's later
# draws must come from its own stream
@example(case=(LEFT_HANDEDNESS, SUBNORMAL_BAND), seed=0, block=2, full_blocks=6, edge=0)
@example(case=RECORD_CASES[-1], seed=0, block=1, full_blocks=stats.BLOCKS_FROM, edge=0)
@settings(max_examples=300, deadline=None)
def test_records_are_the_observe_loop(case, seed, block, full_blocks, edge):
    process, state = case
    trials = max(1, full_blocks * block + edge)
    with mock.patch.object(blocks, "BLOCK", block):
        report = run_trials(process, state, trials, seed, collect_records=True)
    expected = observe_loop(process, state, trials, seed)
    for got, want in zip(report.records, expected, strict=True):
        assert got == want
    assert report.yes == sum(rec.outcome is YES for rec in expected)


@contextlib.contextmanager
def collector(enabled):
    """The cyclic GC on or off for the block, then as it was."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def gc_watching_process(fail_on=None):
    """A one-draw wood process whose kernel notes whether the GC is on, and
    raises on trial ``fail_on``."""
    seen = []

    def kernel(state, rng):
        rng.draw()
        if len(seen) == fail_on:
            raise RuntimeError(f"trial {fail_on}")
        seen.append(gc.isenabled())
        return YES, state

    return ObservationProcess("gc-watch", WoodState, kernel), seen


@pytest.mark.parametrize("enabled", [True, False])
def test_records_leave_the_collector_as_the_caller_had_it(enabled):
    process, seen = gc_watching_process()
    with collector(enabled):
        report = run_trials(process, DRY_INTACT, 40, 0, collect_records=True)
        assert gc.isenabled() is enabled
    assert report.yes == len(report.records) == 40
    assert seen == [False] * 40  # paused while the records are built


@pytest.mark.parametrize("enabled", [True, False])
def test_a_raising_kernel_leaves_the_collector_as_the_caller_had_it(enabled):
    process, seen = gc_watching_process(fail_on=3)
    with collector(enabled):
        with pytest.raises(RuntimeError, match="trial 3"):
            run_trials(process, DRY_INTACT, 40, 0, collect_records=True)
        assert gc.isenabled() is enabled
    assert seen == [False] * 3


def raising_kernel(state, rng):
    raise AssertionError("a decided record ran the kernel")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("process,state", [
    (machine(UniformBreak()), sphere_point_at(1.0)),
    (COIN, DRY_INTACT),
])
def test_decided_records_are_built_without_the_kernel(process, state, enabled):
    assert process.first_draw(state).posts is not None
    decided = dataclasses.replace(process, kernel=raising_kernel)
    gc_on = []  # whether the collector was on as each block was drawn
    draw_block = blocks.first_draws

    def watched_first_draws(*args):
        gc_on.append(gc.isenabled())
        return draw_block(*args)

    with collector(enabled), mock.patch.object(blocks, "BLOCK", 7), \
            mock.patch.object(blocks, "first_draws", watched_first_draws):
        report = run_trials(decided, state, 30, 5, collect_records=True)
        assert gc.isenabled() is enabled
    assert gc_on == [False] * 5  # 30 trials in blocks of 7, all built with the GC paused
    expected = observe_loop(process, state, 30, 5)
    assert list(report.records) == expected
    assert report.yes == sum(rec.outcome is YES for rec in expected)
    assert {len(rec.draws) for rec in report.records} == {1}


@pytest.mark.parametrize("process,state", [
    (LEFT_HANDEDNESS, ElasticBandState.unbroken(1.0)),  # kept: some trials draw again
    (NESTED, DRY_INTACT),  # the inner product draws again
    # a yes from burnability leaves ashes, one from floatability wet wood
    (THREE, DRY_INTACT),
])
def test_decisions_without_posts(process, state):
    assert process.first_draw(state).posts is None
    # such a record is observe's own on its TrialStream: no block first draw is taken
    with mock.patch.object(blocks, "first_draws", side_effect=AssertionError("a block draw")):
        report = run_trials(process, state, 30, 5, collect_records=True)
    assert list(report.records) == observe_loop(process, state, 30, 5)


def test_short_runs_load_no_numpy(tmp_path):
    # below the cut-over the kernel loop counts, and the coin's first_draw
    # (whose mixed pick table is a numpy array) is not asked; a record run
    # whose decision has no posts is observe's loop, whatever its length; a
    # count at a pole takes no draws, whatever its length; and the elastic
    # walk draws in blocks only where numpy is already loaded
    src = Path(stats.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from obsim import (DRY_INTACT, FLOATABILITY, LEFT_HANDEDNESS, NON_BURNABILITY,\n"
        "    ElasticApparatus, ElasticBandState, LinePosition, ProductObservation, SawtoothRuler,\n"
        "    UniformBreak, product_process, quantum_machine_process, run_trials,\n"
        "    sawtooth_position_process, sphere_point_at, stats)\n"
        "coin = product_process(ProductObservation((NON_BURNABILITY, FLOATABILITY)))\n"
        "uniform = quantum_machine_process(ElasticApparatus((0.0, 0.0, 1.0), 1.0, UniformBreak()))\n"
        "for process, state in ((coin, DRY_INTACT), (uniform, sphere_point_at(1.0))):\n"
        "    run_trials(process, state, stats.BLOCKS_FROM - 1, 0)\n"
        "tooth_tip = sawtooth_position_process(SawtoothRuler(), 0), LinePosition(0.5)\n"
        "for process, state in ((LEFT_HANDEDNESS, ElasticBandState.unbroken(1.0)), tooth_tip):\n"
        "    for trials in (5, stats.BLOCKS_FROM + 100):\n"
        "        run_trials(process, state, trials, 0, collect_records=True)\n"
        "for pole in (0.0, 3.141592653589793):  # every draw answers alike: none is taken\n"
        "    run_trials(uniform, sphere_point_at(pole), 10**6, 0)\n"
        "from obsim import break_trajectory, cli\n"
        "*_, last = break_trajectory(0, 1000)\n"
        "code = cli.main(['elastic', '--trials', '1000', '--out', 'band.csv'])\n"
        "print(last.n_fragments, code, 'numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1001", "0", "False"]
    assert len((tmp_path / "band.csv").read_text().splitlines()) == 1002  # a header, 1 001 rows


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_block_edges_at_the_real_block_size(seed):
    process, state = machine(UniformBreak()), sphere_point_at(1.0)
    n = blocks.BLOCK
    yes = [process.kernel(state, TrialStream(seed, i))[0] is YES for i in range(n + 1)]
    for trials in (n - 1, n, n + 1):
        assert run_trials(process, state, trials, seed).yes == sum(yes[:trials])
        records = run_trials(process, state, trials, seed, collect_records=True).records
        assert [rec.outcome is YES for rec in records] == yes[:trials]


def assert_decides_as_kernel(process, state, r):
    """The decision on draw ``r`` as a float, as a float64 array, and the
    kernel's, whatever the kernel draws after ``r``; where the decision has
    posts, the kernel draws nothing more and moves to the post it names. A
    decision without ``yes`` is ``always``, the kernel's answer on ``r`` and
    on the draws 0.0 and 1 - 2**-53, wherever they fall."""
    decision = process.first_draw(state)
    if decision.yes is None:
        assert decision.always is not None
        assert decision.kept is None and decision.posts is None
        ends = (r, 0.0, 1.0 - 2.0**-53)
        for first in ends:
            for second in ends:  # a pick, then the chosen machine's break
                assert process.kernel(state, SequenceStream((first, second)))[0] is decision.always
        return
    array = np.array([r, r], dtype=np.float64)
    if decision.kept is not None:
        assert decision.posts is None
        assert decision.kept(array).tolist() == [decision.kept(r)] * 2
        if not decision.kept(r):
            with pytest.raises(RuntimeError, match="exhausted"):  # the kernel draws again
                process.kernel(state, SequenceStream((r,)))
            return
    if decision.posts is not None:
        outcome, post = process.kernel(state, SequenceStream((r,)))
        assert post == decision.posts[outcome is YES]
    else:
        outcome, _post = process.kernel(state, SequenceStream((r, 0.0)))
        assert process.kernel(state, SequenceStream((r, 1.0 - 2.0**-53)))[0] is outcome
    assert bool(decision.yes(r)) is (outcome is YES)
    assert decision.yes(array).tolist() == [outcome is YES] * 2
    if decision.always is not None:
        assert outcome is decision.always


@pytest.mark.parametrize("process,state,r,yes", [
    (machine(UniformBreak()), EQUATOR, 0.5, False),  # r - 0.5 == 0.5 * c: a tie is no
    (machine(UniformBreak()), EQUATOR, math.nextafter(0.5, 0.0), True),
    (machine(SegmentBreak(0.25)), EQUATOR, 0.5, False),
    (machine(SegmentBreak(1e-310)), EQUATOR, 0.5, False),
    (machine(SegmentBreak(1e-310)), EQUATOR, math.nextafter(0.5, 0.0), True),
    # at a subnormal cos gamma, 0.5 * c rounds to 0 but 2**599 * c does not
    (machine(UniformBreak()), SpherePoint((1.0, 0.0, 5e-324)), 0.5, False),
    (machine(SegmentBreak(1.0)), SpherePoint((1.0, 0.0, 5e-324)), 0.5, True),
    (machine(UniformBreak()), SOUTH, 0.0, False),  # the poles are certain
    (machine(UniformBreak()), NORTH, 1.0 - 2.0**-53, True),
    (LEFT_HANDEDNESS, ElasticBandState.unbroken(1.0), 0.5, False),
    (LEFT_HANDEDNESS, ElasticBandState.unbroken(1.0), math.nextafter(0.5, 1.0), True),
    (COIN, DRY_INTACT, 0.5, True),  # picks floatability
    (THREE, DRY_INTACT, 1 / 3, False),  # 3 * (1/3) rounds to 1: non-burnability
    (THREE, DRY_INTACT, math.nextafter(1 / 3, 0.0), True),
    (COIN, DRY_INTACT, math.nextafter(0.5, 0.0), False),
])
def test_decisions_at_tie_draws(process, state, r, yes):
    assert bool(process.first_draw(state).yes(r)) is yes
    assert_decides_as_kernel(process, state, r)


@pytest.mark.parametrize("r,kept", [(0.0, False), (0.25, False), (0.5, True), (0.75, False)])
def test_redrawn_first_draws(r, kept):
    decision = LEFT_HANDEDNESS.first_draw(SUBNORMAL_BAND)
    assert bool(decision.kept(r)) is kept
    assert_decides_as_kernel(LEFT_HANDEDNESS, SUBNORMAL_BAND, r)


@given(case=st.sampled_from(FIRST_DRAW_CASES), r=DRAWS)
@settings(max_examples=300, deadline=None)
def test_decision_is_the_kernel_on_one_draw(case, r):
    assert_decides_as_kernel(*case, r)


@pytest.mark.parametrize("process,state", CERTAIN_CASES)
def test_a_decision_without_yes_is_the_kernel_on_any_draw(process, state):
    assert_decides_as_kernel(process, state, 0.5)


@pytest.mark.parametrize("process,state", [
    *((machine(p), s) for p in PROFILES for s in MACHINE_STATES),
    (machine(UniformBreak()), SpherePoint((1.0, 0.0, 5e-324))),  # a subnormal cos gamma
    (machine(SegmentBreak(1.0)), SpherePoint((1.0, 0.0, 5e-324))),
])
def test_always_is_the_kernel_at_both_ends_of_the_draws(process, state):
    first, last = (process.kernel(state, SequenceStream((r,)))[0] for r in (0.0, 1.0 - 2.0**-53))
    assert process.first_draw(state).always is (first if first is last else None)


@pytest.mark.parametrize("process,state,yes", [
    (machine(UniformBreak()), NORTH, True),
    (machine(UniformBreak()), SOUTH, False),
    (machine(SegmentBreak(0.25)), sphere_point_at(0.5), True),  # cos gamma 0.88 > 0.25
])
def test_certain_machine_counts_take_no_draws(process, state, yes):
    trials = 10**5
    assert process.first_draw(state).always is not None
    with mock.patch.object(blocks, "first_draws", side_effect=AssertionError("a block draw")):
        assert run_trials(process, state, trials, 3).yes == (trials if yes else 0)


@given(r=DRAWS, n=st.integers(1, 10**6))
@settings(max_examples=300, deadline=None)
def test_pick_truncates_alike_on_floats_and_arrays(r, n):
    i = pick(r, n)
    assert i == min(int(r * n), n - 1)
    assert 0 <= i < n
    assert pick(np.array([r]), n).tolist() == [i]


@pytest.mark.parametrize("process,state", [
    (COIN, DRY_INTACT),
    (FRAGMENTATION, ElasticBandState((0.3, 0.7), 1.0)),
    (sawtooth_position_process(SawtoothRuler(), 0), LinePosition(0.5)),  # a tooth tip
])
def test_kernels_take_an_int_draw_as_its_float(process, state):
    # a replayed draw may be an int; pick must not take it for an array
    assert process.kernel(state, SequenceStream((0,))) == process.kernel(state, SequenceStream((0.0,)))
    assert pick(0, 3) == 0
