"""Outcomes, observation processes, properties, and replayable records.

An observation is a yes/no test: a kernel that consumes a scenario state and
a draw stream and produces a binary outcome plus a post-state. A property is
a named process together with the actuality rule: the property is actual in
a state exactly when the process answers yes with analytic probability 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .randomness import DrawSource, RecordingStream, SequenceStream, pick


class Outcome(Enum):
    """Binary outcome of a completed observation. There is no third value."""

    YES = "yes"
    NO = "no"


YES = Outcome.YES
NO = Outcome.NO


class ObsimError(Exception):
    """Base class for library errors."""


class ScenarioMismatchError(ObsimError):
    """A process was applied to a state of the wrong scenario variant."""


class NotDecidableError(ObsimError):
    """The requested verdict needs analytics the process does not provide."""


@dataclass(frozen=True)
class Branch:
    """One outcome branch of a process at a given state.

    ``post`` is the exact post-state where the branch has a unique one;
    processes whose post-state family is a continuum supply a reachable
    representative and mark themselves ``posts_exact=False``.
    """

    outcome: Outcome
    post: object
    prob: float


def yes_no_branches(p_yes: float, yes_post: object, p_no: float, no_post: object) -> tuple[Branch, ...]:
    """The yes and no branches of a two-outcome process, dropping any branch
    of probability 0 (an unreachable outcome has no branch)."""
    return tuple(
        Branch(outcome, post, p)
        for outcome, post, p in ((YES, yes_post, p_yes), (NO, no_post, p_no))
        if p > 0.0
    )


Kernel = Callable[[object, DrawSource], "tuple[Outcome, object]"]


@dataclass(frozen=True)
class FirstDraw:
    """A trial's outcome as a pure function of its first draw ``r``.

    Where ``kept(r)`` holds (everywhere when ``kept`` is None) the kernel
    answers yes exactly when ``yes(r)``, whatever it draws after ``r``;
    elsewhere it draws again and answers as those draws fall. Both use only
    ``-``, ``*``, ``<``, ``&`` and the entry that :func:`pick` indexes, which
    come out alike on a Python float and elementwise on a float64 array, so a
    block of draws is decided as the kernel decides each one.

    ``posts``, ``(post on no, post on yes)``, promises more: the kernel draws
    nothing after ``r`` and returns that post-state (that very object, or one
    equal to it), so a trial's audit record follows from ``r`` alone.
    ``posts`` and ``kept`` are never both set.

    ``always``, unless None, is the outcome every trial gives, whatever it
    draws: the one spelling of a certain outcome. A count takes no draws,
    and a record still holds its draws. ``yes`` may be None only beside
    ``always``, with no ``posts`` or ``kept``, where the decision reads no
    draw: a kernel that takes none, or a pick whose entries all agree.
    """

    yes: Optional[Callable[[Any], Any]] = None
    kept: Optional[Callable[[Any], Any]] = None
    posts: Optional[tuple[object, object]] = None
    always: Optional[Outcome] = None


def pick_decision(yes_at: Sequence[bool], posts_at: Optional[Sequence[object]]) -> FirstDraw:
    """The decision of a process whose first draw ``r`` picks entry
    ``pick(r, len(yes_at))`` and whose outcome is then that entry, whatever it
    draws next: ``always`` where every entry answers alike, with no numpy.
    ``posts_at``, unless None, says that the process draws nothing after the
    pick and moves to that entry's post object; a mixed decision then has
    ``posts`` when every no-entry has the same post, and every yes-entry."""
    if all(yes_at) or not any(yes_at):
        return FirstDraw(always=YES if yes_at[0] else NO)
    import numpy as np  # only block counting reaches a mixed table

    table = np.array(yes_at, dtype=bool)
    n = len(table)
    posts = None
    if posts_at is not None:
        on = {}  # the post of each answer, while every entry of that answer agrees
        if all(on.setdefault(y, post) is post for y, post in zip(yes_at, posts_at)):
            posts = (on[False], on[True])
    return FirstDraw(lambda r: table[pick(r, n)], posts=posts)


@dataclass(frozen=True)
class ObservationProcess:
    """A named observational procedure on one scenario variant.

    kernel        maps (state, draw stream) to (outcome, post-state); total on
                  states of ``scenario``; the number of draws consumed per call
                  is documented per process.
    analytic      optional closed-form yes-probability in [0, 1].
    branches      optional finite enumeration of outcome branches with exact
                  probabilities (see Branch for the post-state contract).
    repeat_probs  optional analytic answer for continuum post-state families:
                  the distinct yes-probabilities the process takes over all
                  states reachable via a yes outcome.
    first_draw    optional map from a state to a FirstDraw when the first
                  draw decides the outcome or no draw moves it (see FirstDraw
                  for what it promises), or to None; ``stats.run_trials``
                  uses it to count yes outcomes, with no draws where the
                  decision has ``always``, and to build records where it has
                  ``posts``, without running the kernel trial by trial.
    """

    id: str
    scenario: type
    kernel: Kernel
    analytic: Optional[Callable[[object], float]] = None
    branches: Optional[Callable[[object], "tuple[Branch, ...]"]] = None
    posts_exact: bool = True
    repeat_probs: Optional[Callable[[object], "tuple[float, ...]"]] = None
    first_draw: Optional[Callable[[object], Optional[FirstDraw]]] = None

    def check_scenario(self, state: object) -> None:
        if not isinstance(state, self.scenario):
            raise ScenarioMismatchError(
                f"process {self.id!r} acts on {self.scenario.__name__}, "
                f"got {type(state).__name__}"
            )

    def analytic_prob(self, state: object) -> float:
        if self.analytic is None:
            raise NotDecidableError(f"process {self.id!r} has no analytic yes-probability")
        self.check_scenario(state)
        return self.analytic(state)


@dataclass(frozen=True)
class PropertyDef:
    """A property: a name, its test process, and (optionally) the state-level
    fact that a yes outcome asserts.

    ``holds`` defaults to actuality (analytic yes-probability exactly 1).
    Processes that move the state to the very value they report, like the
    snap-to-cavity ruler, override it with the literal state predicate.
    """

    name: str
    process: ObservationProcess
    holds: Optional[Callable[[object], bool]] = None

    def holds_in(self, state: object) -> bool:
        if self.holds is not None:
            return self.holds(state)
        return is_actual(self, state)


class ObservationRecord(NamedTuple):
    """Audit record of one observation: replaying the kernel on ``pre_state``
    with ``draws`` reproduces ``(outcome, post_state)`` bit-exactly."""

    process_id: str
    pre_state: object
    outcome: Outcome
    post_state: object
    draws: tuple[float, ...]
    index: int = 0


def observe(
    process: ObservationProcess,
    state: object,
    rng: DrawSource,
    index: int = 0,
) -> tuple[Outcome, object, ObservationRecord]:
    """Run one observation and return (outcome, post-state, audit record)."""
    process.check_scenario(state)
    recorder = RecordingStream(rng)
    outcome, post = process.kernel(state, recorder)
    record = ObservationRecord(process.id, state, outcome, post, tuple(recorder.draws), index)
    return outcome, post, record


def replay(process: ObservationProcess, record: ObservationRecord) -> tuple[Outcome, object]:
    """Re-run the kernel with the recorded draws."""
    return process.kernel(record.pre_state, SequenceStream(record.draws))


def verify_replay(process: ObservationProcess, record: ObservationRecord) -> bool:
    """True when the recorded draws reproduce the recorded outcome and
    post-state and the kernel reads every one of them."""
    _, pre_state, outcome, post_state, draws, _ = record
    rng = SequenceStream(draws)
    got, post = process.kernel(pre_state, rng)
    # post-states by identity first: many kernels return module-level states,
    # and a dataclass __eq__ compares field by field even on the same object
    return (got is outcome and (post is post_state or post == post_state)
            and rng._pos == len(draws))


def is_actual(prop: PropertyDef, state: object) -> bool:
    """Actuality as certainty in principle: the analytic yes-probability is
    exactly 1. Sampled frequencies can refute but never certify this."""
    return prop.process.analytic_prob(state) == 1.0


def repeat_probabilities(process: ObservationProcess, state: object) -> tuple[float, ...]:
    """Analytic yes-probabilities of ``process`` over every state reachable
    from ``state`` via a yes outcome. Empty when yes is unreachable."""
    if process.analytic_prob(state) <= 0.0:
        return ()
    if process.repeat_probs is not None:
        return tuple(process.repeat_probs(state))
    if process.branches is not None and process.posts_exact:
        return tuple(
            process.analytic(b.post)
            for b in process.branches(state)
            if b.outcome is YES and b.prob > 0.0
        )
    raise NotDecidableError(
        f"process {process.id!r}: yes-post-state family is not enumerable and no "
        "analytic repeat answer is declared"
    )
