"""Yes counts and audit records of trials, a block of trial indices at a time.

Trial i's stream starts at ``mix64(s + (i + 1) * GOLDEN)``, so its first draw
depends on (s, i) alone: a block of first draws is a few uint64 array
operations with no sequential state (a counter-based generator, as in
Salmon et al., SC 2011). A process's :class:`~obsim.core.FirstDraw` decides
each draw with the expression its kernel uses, and a trial whose kernel
would draw again is run by the kernel itself, so every count equals the
kernel loop's. Where the decision also has ``posts``, a trial's record is
built from its first draw alone, and it equals :func:`~obsim.core.observe`'s;
any other record is ``observe``'s own on TrialStream(seed, i), with no
block of first draws.
"""

from __future__ import annotations

import gc
from itertools import repeat

import numpy as np

from .core import (
    NO, YES, FirstDraw, Kernel, ObservationProcess, ObservationRecord, Outcome, observe,
)
from .randomness import _GOLDEN, _INV_2_53, _MASK64, TrialStream

BLOCK = 1 << 14  # trials per block: memory stays flat whatever the trial count

_U_GOLDEN = np.uint64(_GOLDEN)
_U_M1 = np.uint64(0xBF58476D1CE4E5B9)
_U_M2 = np.uint64(0x94D049BB133111EB)
_U_30, _U_27, _U_31, _U_11 = (np.uint64(k) for k in (30, 27, 31, 11))


def _mix64(z: np.ndarray) -> np.ndarray:
    # randomness._mix64 on uint64, whose products wrap mod 2**64; updates z in place
    z ^= z >> _U_30
    z *= _U_M1
    z ^= z >> _U_27
    z *= _U_M2
    z ^= z >> _U_31
    return z


def first_draws(seed: int, start: int, stop: int) -> np.ndarray:
    """``TrialStream(seed, i).draw()`` for every i in range(start, stop)."""
    z = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z *= _U_GOLDEN
    z += np.uint64(seed & _MASK64)
    z = _mix64(z)
    z += _U_GOLDEN
    z = _mix64(z)
    z >>= _U_11
    r = z.astype(np.float64)
    r *= _INV_2_53
    return r


def count_yes(decision: FirstDraw, kernel: Kernel, state: object, seed: int, trials: int) -> int:
    """Yes outcomes of ``kernel`` on ``state`` over TrialStream(seed, i),
    i in range(trials), each decided on its first draw by ``decision``."""
    yes = 0
    for start in range(0, trials, BLOCK):
        r = first_draws(seed, start, min(start + BLOCK, trials))
        hit = decision.yes(r)
        if decision.kept is not None:
            kept = decision.kept(r)
            hit &= kept
            for i in np.flatnonzero(~kept).tolist():  # the kernel draws again
                yes += kernel(state, TrialStream(seed, start + i))[0] is YES
        yes += int(np.count_nonzero(hit))
    return yes


def _pair(first: object, second: object) -> np.ndarray:
    # set entry by entry: np.array would unpack a post-state that is a sequence
    table = np.empty(2, dtype=object)
    table[0], table[1] = first, second
    return table


def record_trials(
    process: ObservationProcess, state: object, seed: int, trials: int,
    decision: Outcome | FirstDraw | None,
) -> tuple[list, int]:
    """``observe(process, state, TrialStream(seed, i), index=i)``'s record for
    every i in range(trials), on a ``state`` already checked to be of the
    process's scenario, and the number of yes outcomes among them.
    ``decision`` is ``process.first_draw(state)``, or None."""
    # The records are acyclic tuples over shared state objects, so the cyclic
    # GC finds nothing to free in them; left on, it walks the growing list
    # again and again (about a third of the collection time).
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        if not (isinstance(decision, FirstDraw) and decision.posts is not None):
            records = [observe(process, state, TrialStream(seed, i), i)[2] for i in range(trials)]
            return records, sum(rec.outcome is YES for rec in records)
        # the record tuple built directly: the NamedTuple's own __new__ is a Python call
        new_tuple, process_id = tuple.__new__, process.id
        outcome_of, post_of = _pair(NO, YES), _pair(*decision.posts)
        records = []
        yes = 0
        for start in range(0, trials, BLOCK):
            stop = min(start + BLOCK, trials)
            draws = first_draws(seed, start, stop)
            # the first draw fixes the outcome and the post, and it is the only draw
            hit = decision.yes(draws)
            yes += int(np.count_nonzero(hit))
            picked = hit.astype(np.intp)
            records.extend(map(new_tuple, repeat(ObservationRecord), zip(
                repeat(process_id), repeat(state), outcome_of[picked].tolist(),
                post_of[picked].tolist(), zip(draws.tolist()), range(start, stop))))
        return records, yes
    finally:
        if gc_was_on:
            gc.enable()
