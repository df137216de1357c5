"""Deterministic unit-interval draw streams with counter-based splitting.

Every source of randomness in this library is a stream of floats in [0, 1).
Each simulated trial owns an independent stream derived from the pair
(master seed, trial index) alone, so results never depend on evaluation
order or thread count, and the draws consumed by an observation can be
recorded and replayed bit-exactly.

Split function: stream ``i`` under master seed ``s`` is the splitmix64
sequence started at internal state ``mix64(s + (i + 1) * GOLDEN)`` where
GOLDEN is the usual 64-bit golden-ratio increment. Distinct indices map to
distinct initial states (the map is injective mod 2**64), and the mixing
finalizer decorrelates neighbouring streams.
"""

from __future__ import annotations

from typing import Protocol, Sequence

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SUBSTREAM_SALT = 0xD1B54A32D192ED03
_INV_2_53 = 1.0 / (1 << 53)


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class DrawSource(Protocol):
    """Anything that hands out unit-interval floats one at a time."""

    def draw(self) -> float: ...


class TrialStream:
    """Independent splitmix64 stream for one trial.

    ``TrialStream(seed, i)`` is the documented split of the master seed:
    the stream for trial ``i``. Draws are uniform on [0, 1) with 53-bit
    resolution.
    """

    __slots__ = ("_state",)

    def __init__(self, master_seed: int, trial_index: int = 0):
        self._state = _mix64((master_seed + (trial_index + 1) * _GOLDEN) & _MASK64)

    def draw(self) -> float:
        s = (self._state + _GOLDEN) & _MASK64
        self._state = s
        # inline mix64 for the hot path
        s = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        s = ((s ^ (s >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((s ^ (s >> 31)) >> 11) * _INV_2_53


def pick(r, n: int):
    """The index in range(n) that the draw ``r`` picks: ``int(r * n)``, at most
    ``n - 1``; elementwise, as int64, on a float64 array of draws."""
    if isinstance(r, (int, float)):
        i = int(r * n)
        return n - 1 if i >= n else i
    return (r * n).astype("int64").clip(None, n - 1)  # truncates as int() does


def substream_seed(master_seed: int, index: int) -> int:
    """Derive an independent 64-bit sub-seed (used for per-point sweep seeds).

    Salted differently from TrialStream so a sweep point's seed never aliases
    a trial stream of the master seed.
    """
    return _mix64((master_seed ^ _SUBSTREAM_SALT) + (index + 1) * _GOLDEN)


class SequenceStream:
    """Replays a fixed sequence of draws; raises when exhausted."""

    __slots__ = ("_draws", "_pos")

    def __init__(self, draws: Sequence[float]):
        self._draws = tuple(draws)
        self._pos = 0

    def draw(self) -> float:
        if self._pos >= len(self._draws):
            raise RuntimeError("replay stream exhausted: kernel drew more than recorded")
        value = self._draws[self._pos]
        self._pos += 1
        return value


class RecordingStream:
    """Wraps another stream and records every draw it hands out."""

    __slots__ = ("_inner", "draws")

    def __init__(self, inner: DrawSource):
        self._inner = inner
        self.draws: list[float] = []

    def draw(self) -> float:
        value = self._inner.draw()
        self.draws.append(value)
        return value
