"""Macroscopic exemplar entities and their yes/no observation processes.

Wood: burnability (destroys the entity), non-burnability (same procedure,
outcome inverted), floatability (wets the entity it confirms). Non-elastic
solid: incompressibility under the standard press (compaction is permanent,
so a failed test creates the property it failed to find). Elastic band:
left-handedness (stretch the longest fragment until it breaks; yes when the
longer piece is in the left hand), fragmentation / non-fragmentation (pick
one fragment blindly; yes when it is strictly shorter / longer than half the
original length).
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Callable, Iterable, Iterator

from .core import (
    NO, YES, Branch, FirstDraw, ObservationProcess, Outcome, pick_decision, yes_no_branches,
)
from .randomness import DrawSource, SequenceStream, TrialStream, first_draws, pick


class Integrity(str, Enum):
    INTACT = "intact"
    ASHES = "ashes"


class Moisture(str, Enum):
    DRY = "dry"
    WET = "wet"


@dataclass(frozen=True)
class WoodState:
    """Moisture is irrelevant once the piece is ashes; kernels ignore it there."""

    integrity: Integrity = Integrity.INTACT
    moisture: Moisture = Moisture.DRY

    def __str__(self) -> str:
        if self.integrity is Integrity.ASHES:
            return "wood(ashes)"
        return f"wood(intact,{self.moisture.value})"


DRY_INTACT = WoodState(Integrity.INTACT, Moisture.DRY)
WET_INTACT = WoodState(Integrity.INTACT, Moisture.WET)
ASHES = WoodState(Integrity.ASHES, Moisture.DRY)


@dataclass(frozen=True)
class SolidState:
    """Non-elastic solid: volume and the relative volume loss the standard
    press would cause (compression is permanent)."""

    volume: float
    compaction_ratio: float

    def __post_init__(self):
        if not 0.0 < self.volume < math.inf:
            raise ValueError(f"SolidState.volume must be positive and finite, got {self.volume!r}")
        if not 0.0 <= self.compaction_ratio <= 1.0:
            raise ValueError(
                f"SolidState.compaction_ratio must be in [0, 1], got {self.compaction_ratio!r}"
            )

    def __str__(self) -> str:
        return f"solid(V={self.volume:.6g},r={self.compaction_ratio:.6g})"


@dataclass(frozen=True)
class ElasticBandState:
    """Fragment lengths of an elastic band in positional order: a break
    puts the two pieces of the longest fragment in its place, left piece
    first.

    Invariants, kept by the kernels and checked by the tests: fragments are
    strictly positive and sum to ``original_length`` within 1e-9. The
    constructor only checks cheap structure: one kernel call costs O(n) for
    the new tuple, and :func:`break_trajectory` builds a state only when a
    step is asked for one.
    """

    fragments: tuple[float, ...]
    original_length: float

    def __post_init__(self):
        if not self.fragments:
            raise ValueError("ElasticBandState.fragments must be nonempty")
        if not 0.0 < self.original_length < math.inf:
            raise ValueError(
                "ElasticBandState.original_length must be positive and finite, "
                f"got {self.original_length!r}"
            )

    @staticmethod
    def unbroken(length: float = 1.0) -> "ElasticBandState":
        return ElasticBandState((length,), length)

    def max_fragment(self) -> float:
        return max(self.fragments)

    def subhalf_count(self) -> int:
        return sum(map(operator.lt, self.fragments, repeat(0.5 * self.original_length)))

    def __str__(self) -> str:
        return f"elastic({len(self.fragments)} fragments of {self.original_length:.6g})"


def _deterministic_process(id: str, scenario: type, kernel, analytic) -> ObservationProcess:
    """A process whose kernel takes no draws: its single outcome branch is
    read off one kernel call; the closed-form analytic stays the reference."""

    def branches(state) -> tuple[Branch, ...]:
        outcome, post = kernel(state, SequenceStream(()))
        return (Branch(outcome, post, 1.0),)

    return ObservationProcess(
        id=id,
        scenario=scenario,
        kernel=kernel,
        analytic=analytic,
        branches=branches,
        first_draw=lambda state: FirstDraw(always=kernel(state, SequenceStream(()))[0]),
    )


# --- wood -------------------------------------------------------------------

# the enum members as module globals: a class attribute lookup costs a few
# times a global one, and the coin product runs these kernels per record
_INTACT, _DRY = Integrity.INTACT, Moisture.DRY


def _burnability_kernel(state: WoodState, rng: DrawSource) -> tuple[Outcome, WoodState]:
    # no draws
    if state.integrity is _INTACT and state.moisture is _DRY:
        return YES, ASHES  # only dry wood burns: ASHES has its moisture
    return NO, state


def _burnability_analytic(state: WoodState) -> float:
    dry_intact = state.integrity is Integrity.INTACT and state.moisture is Moisture.DRY
    return 1.0 if dry_intact else 0.0


def _non_burnability_kernel(state: WoodState, rng: DrawSource) -> tuple[Outcome, WoodState]:
    outcome, post = _burnability_kernel(state, rng)
    return (NO if outcome is YES else YES), post


def _floatability_kernel(state: WoodState, rng: DrawSource) -> tuple[Outcome, WoodState]:
    # no draws; an intact piece floats and comes out wet, ashes sink
    if state.integrity is _INTACT:
        return YES, WET_INTACT
    return NO, state


def _floatability_analytic(state: WoodState) -> float:
    return 1.0 if state.integrity is Integrity.INTACT else 0.0


BURNABILITY = _deterministic_process(
    "burnability", WoodState, _burnability_kernel, _burnability_analytic
)

NON_BURNABILITY = _deterministic_process(
    "non-burnability", WoodState, _non_burnability_kernel, lambda s: 1.0 - _burnability_analytic(s)
)

FLOATABILITY = _deterministic_process(
    "floatability", WoodState, _floatability_kernel, _floatability_analytic
)


# --- solid ------------------------------------------------------------------

_INCOMPRESSIBLE_MAX_RATIO = 0.01


def _incompressibility_kernel(state: SolidState, rng: DrawSource) -> tuple[Outcome, SolidState]:
    # no draws; the press always compacts, so the post-state ratio is 0
    outcome = YES if state.compaction_ratio <= _INCOMPRESSIBLE_MAX_RATIO else NO
    return outcome, SolidState(state.volume * (1.0 - state.compaction_ratio), 0.0)


def _incompressibility_analytic(state: SolidState) -> float:
    return 1.0 if state.compaction_ratio <= _INCOMPRESSIBLE_MAX_RATIO else 0.0


INCOMPRESSIBILITY = _deterministic_process(
    "incompressibility", SolidState, _incompressibility_kernel, _incompressibility_analytic
)


# --- elastic band -----------------------------------------------------------

_SMALLEST_FLOAT = 5e-324  # 2**-1074: a fragment this short has no two positive pieces


def _longest_index(fragments: tuple[float, ...]) -> int:
    # ties broken by lowest index (tuple.index returns the first occurrence)
    return fragments.index(max(fragments))


def _split(fragments: tuple[float, ...], i: int, pieces: tuple[float, float]) -> tuple[float, ...]:
    # the band after a break: fragment i's two pieces in its place, left piece first
    return fragments[:i] + pieces + fragments[i + 1 :]


def _breakable(longest: float) -> bool:
    # otherwise no draw splits it into two positive finite pieces
    return _SMALLEST_FLOAT < longest < math.inf


def _splits(r, longest: float):
    """Whether the draw ``r`` breaks ``longest`` into two positive pieces,
    ``r * longest`` and the rest; elementwise on a float64 array of draws."""
    left = r * longest
    return (0.0 < left) & (0.0 < longest - left)


def _left_hand(r):
    # yes when the longer piece, the one left of the break, stays in the left hand
    return 0.5 < r


def _break_point(longest: float, rng: DrawSource) -> tuple[float, float, float]:
    """Draw the break point of a fragment: ``(r, left, right)`` with
    ``left = r * longest`` and ``right = longest - left``."""
    if not _breakable(longest):
        # redrawing would never end
        raise ValueError(f"an elastic fragment of length {longest!r} cannot break")
    # one draw (redrawn on the measure-zero values that would leave a
    # zero-length piece, so the positivity invariant is airtight)
    while True:
        r = rng.draw()
        if _splits(r, longest):
            left = r * longest
            return r, left, longest - left


def _left_handedness_kernel(
    state: ElasticBandState, rng: DrawSource
) -> tuple[Outcome, ElasticBandState]:
    frags = state.fragments
    i = _longest_index(frags)
    r, left, right = _break_point(frags[i], rng)
    outcome = YES if _left_hand(r) else NO
    post = ElasticBandState(_split(frags, i, (left, right)), state.original_length)
    return outcome, post


def _left_handedness_branches(state: ElasticBandState) -> tuple[Branch, ...]:
    # representative posts: the break point is a continuum, so the kernel's break
    # at 3/4 (yes) and at 1/4 (no) stands in (posts_exact=False on the process)
    return tuple(
        Branch(*_left_handedness_kernel(state, SequenceStream((r,))), 0.5) for r in (0.75, 0.25)
    )


def _left_handedness_first_draw(state: ElasticBandState) -> FirstDraw | None:
    longest = max(state.fragments)
    if not _breakable(longest):
        return None  # the kernel raises before it draws
    return FirstDraw(_left_hand, lambda r: _splits(r, longest))


LEFT_HANDEDNESS = ObservationProcess(
    id="left-handedness",
    scenario=ElasticBandState,
    kernel=_left_handedness_kernel,
    analytic=lambda s: 0.5,  # uniform break point: exactly 1/2 in every state
    branches=_left_handedness_branches,
    posts_exact=False,
    repeat_probs=lambda s: (0.5,),  # every yes-post answers 1/2 again
    first_draw=_left_handedness_first_draw,
)


def _pick_process(id: str, compare) -> ObservationProcess:
    """Blind count-uniform pick of one fragment (one draw, non-invasive);
    yes when ``compare(fragment, half the original length)`` holds."""

    def count(state: ElasticBandState) -> int:
        return sum(map(compare, state.fragments, repeat(0.5 * state.original_length)))

    def kernel(state: ElasticBandState, rng: DrawSource) -> tuple[Outcome, ElasticBandState]:
        i = pick(rng.draw(), len(state.fragments))
        return (YES if compare(state.fragments[i], 0.5 * state.original_length) else NO), state

    def analytic(state: ElasticBandState) -> float:
        return count(state) / len(state.fragments)

    def branches(state: ElasticBandState) -> tuple[Branch, ...]:
        n = len(state.fragments)
        k = count(state)
        return yes_no_branches(k / n, state, (n - k) / n, state)

    def first_draw(state: ElasticBandState) -> FirstDraw:
        half = 0.5 * state.original_length
        fragments = state.fragments
        return pick_decision([compare(f, half) for f in fragments], [state] * len(fragments))

    return ObservationProcess(
        id=id,
        scenario=ElasticBandState,
        kernel=kernel,
        analytic=analytic,
        branches=branches,
        first_draw=first_draw,
    )


FRAGMENTATION = _pick_process("fragmentation", operator.lt)
# a fragment of exactly half answers no to both picks
NON_FRAGMENTATION = _pick_process("non-fragmentation", operator.gt)


# --- elastic trajectories ---------------------------------------------------

@dataclass(slots=True, eq=False)
class BandStep:
    """One step of :func:`break_trajectory`: the band after
    ``n_fragments - 1`` breaks, described by values the walk keeps as it goes.

    ``total_length`` equals ``math.fsum`` of the fragments bit for bit (the
    walk keeps their exact sum and moves it by each break's one rounding
    error), ``max_fragment`` is the longest fragment and ``subhalf`` counts the
    fragments shorter than half the original length. :meth:`state` builds the
    full band: in O(n) right after the previous step's state was built, by
    splitting that band's longest fragment as the kernel does, and in
    O(n log n) otherwise, by sorting the walk's heap, the only record of the
    band. A step that the walk has moved past raises ``ValueError`` instead.
    """

    n_fragments: int
    total_length: float
    max_fragment: float
    subhalf: int
    _heap: list[tuple[float, bytes]] = field(repr=False)  # the walk's, as it is now
    # the walk's last built band, as [n_fragments, fragments], shared by its steps
    _built: list = field(repr=False)
    _pieces: tuple[float, float] | None = field(repr=False)  # this step's break, left first

    def state(self) -> ElasticBandState:
        n = self.n_fragments
        if len(self._heap) != n:
            raise ValueError("the walk has moved past this step; only its latest step has a state")
        built_n, fragments = self._built
        if built_n == n - 1:
            # this step's break split the previous band's longest fragment, the
            # leftmost of equal lengths, as the heap's top is
            fragments = _split(fragments, _longest_index(fragments), self._pieces)
        elif built_n != n:
            fragments = _positional(self._heap)
        self._built[:] = n, fragments
        return ElasticBandState(fragments, 1.0)


def _positional(heap: list[tuple[float, bytes]]) -> tuple[float, ...]:
    # sorted by path, the fragments are in positional order
    return tuple(-neg for neg, _ in sorted(heap, key=operator.itemgetter(1)))


def _units(x: float) -> int:
    """``x`` as an exact integer count of 2**-1074, the smallest positive float
    (negative for a negative ``x``, such as the walk's error term)."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _walk(draws: Iterable[float], rest: Callable[[int], DrawSource]) -> Iterator[BandStep]:
    """Break the unit band once per first draw in ``draws``, as
    ``_left_handedness_kernel`` would, in O(log n) per break; yields the
    unbroken band, then each break. Break i redraws from ``rest(i)``, its
    stream past the first draw, where that draw leaves a zero-length piece."""
    half = 0.5
    # live fragments as (-length, path): the top is the longest, and the
    # leftmost of equal lengths, because the path (one byte per split, 0 for
    # the left piece, 1 for the right) sorts fragments in positional order
    heap = [(-1.0, b"")]
    # exact sum of the live fragments in units of 2**-1074, in which the unbroken
    # band is one; int true division rounds once, as math.fsum of the fragments does
    total = one = 1 << 1074
    total_length = 1.0
    subhalf = 0
    built = [1, (1.0,)]
    yield BandStep(1, total_length, 1.0, subhalf, heap, built, None)
    for i, r in enumerate(draws):
        neg_longest, path = heap[0]
        longest = -neg_longest
        left = r * longest
        right = longest - left
        if not (0.0 < left and 0.0 < right):  # as _splits, inline
            _r, left, right = _break_point(longest, rest(i))
        heapq.heapreplace(heap, (-left, path + b"\x00"))
        heapq.heappush(heap, (-right, path + b"\x01"))
        # Fast2Sum (Dekker 1971): as left <= longest, err is the exact float with
        # longest - left == right + err, so the fragments' sum moves by -err;
        # err is 0 whenever left >= longest / 2 (Sterbenz)
        err = -left - (right - longest)
        if err:
            total -= _units(err)
            total_length = total / one
        subhalf += (left < half) + (right < half) - (longest < half)
        yield BandStep(i + 2, total_length, -heap[0][0], subhalf, heap, built, (left, right))


def break_trajectory(seed: int, breaks: int) -> Iterator[BandStep]:
    """Break the unit band by left-handedness ``breaks`` times, break i on
    TrialStream(seed, i): the one walk that feeds each post-state into the
    next observation. Break i's first draw comes from
    :func:`~obsim.randomness.first_draws`, from numpy wherever numpy is
    already loaded; a redraw continues that stream.

    Yields a :class:`BandStep` for the unbroken band and then after each
    break. While step k is the latest, its ``state()`` is the state that k
    calls of ``LEFT_HANDEDNESS.kernel`` on the same streams reach; one break
    costs O(log n), and a state O(n) where the previous step's state was built.
    """

    def rest(i: int) -> TrialStream:
        rng = TrialStream(seed, i)
        rng.draw()  # the walk took this draw from first_draws
        return rng

    return _walk(first_draws(seed, breaks), rest)
