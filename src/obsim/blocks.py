"""Yes counts and decided audit records of trials, a block of trial indices at a time.

Trial i's stream starts at ``mix64(s + (i + 1) * GOLDEN)``, so its first draw
depends on (s, i) alone: a block of first draws is a few uint64 array
operations with no sequential state (a counter-based generator, as in
Salmon et al., SC 2011). A process's :class:`~obsim.core.FirstDraw` decides
each draw with the expression its kernel uses, and a trial whose kernel
would draw again is run by the kernel itself, so every count equals the
kernel loop's. Where the decision also has ``posts``, a trial's record is
built from its first draw alone, and it equals :func:`~obsim.core.observe`'s.
Every other record comes from ``stats.run_trials``' own ``observe`` loop,
with no numpy, and ``run_trials`` pauses the cyclic GC around both kinds.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .core import NO, YES, FirstDraw, Kernel, ObservationRecord
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


def _blocks(decision: FirstDraw, seed: int, trials: int):
    """``(start, first draws, decision.yes on them)`` per block of range(trials)."""
    for start in range(0, trials, BLOCK):
        draws = first_draws(seed, start, min(start + BLOCK, trials))
        yield start, draws, decision.yes(draws)


def count_yes(decision: FirstDraw, kernel: Kernel, state: object, seed: int, trials: int) -> int:
    """Yes outcomes of ``kernel`` on ``state`` over TrialStream(seed, i),
    i in range(trials), each decided on its first draw by ``decision``."""
    yes = 0
    for start, draws, hit in _blocks(decision, seed, trials):
        if decision.kept is not None:
            kept = decision.kept(draws)
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


def decided_records(
    decision: FirstDraw, process_id: str, state: object, seed: int, trials: int
) -> tuple[list, int]:
    """``observe``'s record on TrialStream(seed, i), i in range(trials), built from its
    first draw alone by a ``decision`` with ``posts``, and the yes count among them."""
    # the record tuple built directly: the NamedTuple's own __new__ is a Python call
    new_tuple = tuple.__new__
    outcome_of, post_of = _pair(NO, YES), _pair(*decision.posts)
    records = []
    yes = 0
    for start, draws, hit in _blocks(decision, seed, trials):
        # the first draw fixes the outcome and the post, and it is the only draw
        yes += int(np.count_nonzero(hit))
        picked = hit.astype(np.intp)
        records.extend(map(new_tuple, repeat(ObservationRecord), zip(
            repeat(process_id), repeat(state), outcome_of[picked].tolist(),
            post_of[picked].tolist(), zip(draws.tolist()), range(start, start + len(draws)))))
    return records, yes
