"""Classification of observation processes along three axes.

Effect: what the observation does to the observed fact. A process that never
changes any probe state is a non-invasive discovery. An invasive process is a
creation when, from some probe state where the observed fact does not hold,
it can produce a yes outcome or a post-state where the fact holds (the yes is
manufactured by the process rather than found); it is a destruction when it
can take the fact away from a state that had it; it is an invasive discovery
when it changes states but neither. Verdicts are relative to a declared
probe set, and every creation/destruction verdict carries a concrete witness
state plus a replayable confirming record.

Predictability: deterministic when the yes-probability is 0 or 1 on every
probe state, nowhere-deterministic when it is strictly between on every
probe state outside the declared measure-zero exceptions, intermediary when
both kinds of probe state exist.

Persistence: a property is intrinsic when, after any reachable yes, the
outcome of an immediate repetition is still perfectly predictable (the
repeat probability is 0 or 1: either the fact stably remains, or the test
itself consumed it). It is ephemeral when some reachable yes leaves the
repeat outcome uncertain, so the fact would have to be re-created by an
uncontrolled mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from . import exemplars, machines
from .core import (
    YES,
    Branch,
    NotDecidableError,
    ObservationProcess,
    ObservationRecord,
    PropertyDef,
    observe,
    repeat_probabilities,
)
from .randomness import TrialStream

_WITNESS_SEED = 0xC0FFEE  # fixed seed for confirming records keeps verdicts pure
_WITNESS_TRIES = 1024


class Effect(str, Enum):
    NON_INVASIVE_DISCOVERY = "non-invasive-discovery"
    INVASIVE_DISCOVERY = "invasive-discovery"
    INVASIVE_CREATION = "invasive-creation"
    INVASIVE_DESTRUCTION = "invasive-destruction"


class Predictability(str, Enum):
    DETERMINISTIC = "deterministic"
    INTERMEDIARY = "intermediary"
    NOWHERE_DETERMINISTIC = "nowhere-deterministic"


class Persistence(str, Enum):
    INTRINSIC = "intrinsic"
    EPHEMERAL = "ephemeral"


@dataclass(frozen=True)
class StateProbe:
    """The classification domain: a finite set of states of one scenario,
    plus the states excluded from the nowhere-deterministic check (the
    measure-zero exceptional points such as tooth tips)."""

    states: tuple
    exceptions: tuple = ()

    def __post_init__(self):
        if not self.states:
            raise ValueError("StateProbe.states must be nonempty")
        variant = type(self.states[0])
        for s in self.states[1:]:
            if type(s) is not variant:
                raise ValueError(
                    f"probe states mix scenarios: {variant.__name__} vs {type(s).__name__}"
                )


@dataclass(frozen=True)
class EffectVerdict:
    effect: Effect
    witness: object = None
    witness_record: Optional[ObservationRecord] = None


@dataclass(frozen=True)
class ObservationClassification:
    """One taxonomy row. An axis is None when its verdict is not decidable
    on the given probe; ``notes`` then names the missing ingredient."""

    property_name: str
    effect: Optional[Effect]
    predictability: Optional[Predictability]
    persistence: Optional[Persistence]
    witness: object = None
    witness_record: Optional[ObservationRecord] = None
    notes: tuple[str, ...] = ()


def _branches_or_raise(process: ObservationProcess, state: object) -> tuple[Branch, ...]:
    if process.branches is None:
        raise NotDecidableError(
            f"process {process.id!r} declares no outcome-branch enumeration"
        )
    return process.branches(state)


def _confirm(process: ObservationProcess, state: object, want: Branch) -> ObservationRecord:
    """Find a replayable record realizing the witnessed branch, by sampling
    the kernel from the witness state with fixed-seed streams; the post-state
    must match too where the process's posts are exact. A verdict without its
    record is not decided, so finding none raises."""
    for t in range(_WITNESS_TRIES):
        outcome, post, record = observe(process, state, TrialStream(_WITNESS_SEED, t), index=t)
        if outcome is want.outcome and (not process.posts_exact or post == want.post):
            return record
    raise NotDecidableError(
        f"process {process.id!r}: no record confirms the {want.outcome.value} branch "
        f"at witness state {state} in {_WITNESS_TRIES} tries"
    )


def effect_verdict(prop: PropertyDef, probe: StateProbe) -> EffectVerdict:
    """Effect classification with witness. See the module docstring for the
    decision rule; priority is creation, then destruction, then invasive
    discovery."""
    process = prop.process
    invasive = False
    posts_exact_everywhere = True
    creation: Optional[tuple[object, Branch]] = None
    destruction: Optional[tuple[object, Branch]] = None
    destruction_decidable = True

    for state in probe.states:
        held_before = prop.holds_in(state)
        branches = _branches_or_raise(process, state)
        if not process.posts_exact:
            posts_exact_everywhere = False
            if held_before:
                destruction_decidable = False
        for b in branches:
            if b.prob <= 0.0:
                continue
            if b.post != state:
                invasive = True
            if creation is None and not held_before and (
                b.outcome is YES or prop.holds_in(b.post)
            ):
                creation = (state, b)
            if destruction is None and held_before and not prop.holds_in(b.post):
                destruction = (state, b)

    if not invasive:
        if posts_exact_everywhere:
            return EffectVerdict(Effect.NON_INVASIVE_DISCOVERY)
        raise NotDecidableError(
            f"process {process.id!r}: representative post-states cannot certify "
            "non-invasiveness"
        )
    if creation is not None:
        state, branch = creation
        record = _confirm(process, state, branch)
        return EffectVerdict(Effect.INVASIVE_CREATION, state, record)
    if destruction is not None:
        state, branch = destruction
        record = _confirm(process, state, branch)
        return EffectVerdict(Effect.INVASIVE_DESTRUCTION, state, record)
    if not destruction_decidable:
        raise NotDecidableError(
            f"process {process.id!r}: representative post-states cannot rule out "
            "destruction"
        )
    return EffectVerdict(Effect.INVASIVE_DISCOVERY)


def classify_predictability(process: ObservationProcess, probe: StateProbe) -> Predictability:
    states = [s for s in probe.states if s not in probe.exceptions]
    if not states:
        raise NotDecidableError("probe has no states outside the exception set")
    probs = [process.analytic_prob(s) for s in states]
    deterministic = [p in (0.0, 1.0) for p in probs]
    if all(deterministic):
        return Predictability.DETERMINISTIC
    if not any(deterministic):
        return Predictability.NOWHERE_DETERMINISTIC
    return Predictability.INTERMEDIARY


def classify_persistence(prop: PropertyDef, probe: StateProbe) -> Persistence:
    process = prop.process
    for state in probe.states:
        if process.analytic_prob(state) <= 0.0:
            continue  # yes unreachable: nothing to re-observe
        for p in repeat_probabilities(process, state):
            if p not in (0.0, 1.0):
                return Persistence.EPHEMERAL
    return Persistence.INTRINSIC


def classify(prop: PropertyDef, probe: StateProbe) -> ObservationClassification:
    """All three axes for one property; axes degrade to None (with a note)
    where the process lacks the analytics to decide."""
    notes: list[str] = []
    effect = predictability = persistence = None
    witness = record = None
    try:
        verdict = effect_verdict(prop, probe)
        effect = verdict.effect
        witness = verdict.witness
        record = verdict.witness_record
    except NotDecidableError as err:
        notes.append(f"effect: {err}")
    try:
        predictability = classify_predictability(prop.process, probe)
    except NotDecidableError as err:
        notes.append(f"predictability: {err}")
    try:
        persistence = classify_persistence(prop, probe)
    except NotDecidableError as err:
        notes.append(f"persistence: {err}")
    return ObservationClassification(
        prop.name, effect, predictability, persistence,
        witness, record, tuple(notes),
    )


def taxonomy_table(
    suite: Sequence[tuple[PropertyDef, StateProbe]]
) -> tuple[ObservationClassification, ...]:
    """One classification row per registered (property, probe) pair."""
    return tuple(classify(prop, probe) for prop, probe in suite)


# --- the registered exemplar suite -------------------------------------------

_WOOD_PROBE = StateProbe((exemplars.DRY_INTACT, exemplars.WET_INTACT, exemplars.ASHES))

_SOLID_PROBE = StateProbe(
    (
        exemplars.SolidState(1.0, 0.05),
        exemplars.SolidState(1.0, 0.01),
        exemplars.SolidState(2.0, 0.0),
    )
)

_RULER = machines.SawtoothRuler(pitch=1.0, offset=0.0)
_SAWTOOTH_TARGET = 0
_LINE_PROBE = StateProbe(
    (
        machines.LinePosition(0.3),
        machines.LinePosition(0.0),
        machines.LinePosition(1.2),
        machines.LinePosition(-0.4),
    )
)

_MACHINE_GAMMAS = tuple(
    k * math.pi / 6 for k in (1, 2, 3, 4, 5)  # interior angles only; poles are exceptional
)
_SPHERE_PROBE = StateProbe(tuple(machines.sphere_point_at(g) for g in _MACHINE_GAMMAS))

_ELASTIC_LH_PROBE = StateProbe(
    (
        exemplars.ElasticBandState.unbroken(1.0),
        exemplars.ElasticBandState((0.7, 0.3), 1.0),
        exemplars.ElasticBandState((0.5, 0.3, 0.2), 1.0),
    )
)

_ELASTIC_FRAG_PROBE = StateProbe(
    (
        exemplars.ElasticBandState.unbroken(1.0),
        exemplars.ElasticBandState((0.7, 0.3), 1.0),
        exemplars.ElasticBandState((0.4, 0.3, 0.3), 1.0),
    )
)


def _sawtooth_holds(state: machines.LinePosition) -> bool:
    # the fact a yes reports: the particle sits exactly at the target center
    return state.x == _RULER.center(_SAWTOOTH_TARGET)


def default_suite() -> tuple[tuple[PropertyDef, StateProbe], ...]:
    """The built-in exemplar properties with their classification probes."""
    machine = machines.quantum_machine_process(
        machines.ElasticApparatus((0.0, 0.0, 1.0), 1.0, machines.UniformBreak()),
        id="quantum-machine",
    )
    sawtooth = machines.sawtooth_position_process(_RULER, _SAWTOOTH_TARGET, id="sawtooth-position")
    return (
        (PropertyDef("burnability", exemplars.BURNABILITY), _WOOD_PROBE),
        (PropertyDef("floatability", exemplars.FLOATABILITY), _WOOD_PROBE),
        (PropertyDef("incompressibility", exemplars.INCOMPRESSIBILITY), _SOLID_PROBE),
        (PropertyDef("sawtooth-position", sawtooth, holds=_sawtooth_holds), _LINE_PROBE),
        (PropertyDef("quantum-machine", machine), _SPHERE_PROBE),
        (PropertyDef("left-handedness", exemplars.LEFT_HANDEDNESS), _ELASTIC_LH_PROBE),
        (PropertyDef("fragmentation", exemplars.FRAGMENTATION), _ELASTIC_FRAG_PROBE),
    )


# verified reference classification of the default suite
EXPECTED_DEFAULT_TABLE: tuple[tuple[str, Effect, Predictability, Persistence], ...] = (
    ("burnability", Effect.INVASIVE_DESTRUCTION, Predictability.DETERMINISTIC, Persistence.INTRINSIC),
    ("floatability", Effect.INVASIVE_DISCOVERY, Predictability.DETERMINISTIC, Persistence.INTRINSIC),
    ("incompressibility", Effect.INVASIVE_CREATION, Predictability.DETERMINISTIC, Persistence.INTRINSIC),
    ("sawtooth-position", Effect.INVASIVE_CREATION, Predictability.DETERMINISTIC, Persistence.INTRINSIC),
    ("quantum-machine", Effect.INVASIVE_CREATION, Predictability.NOWHERE_DETERMINISTIC, Persistence.INTRINSIC),
    ("left-handedness", Effect.INVASIVE_CREATION, Predictability.NOWHERE_DETERMINISTIC, Persistence.EPHEMERAL),
    ("fragmentation", Effect.NON_INVASIVE_DISCOVERY, Predictability.INTERMEDIARY, Persistence.EPHEMERAL),
)
