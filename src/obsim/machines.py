"""Sphere-and-elastic measurement machines and the snap-to-cavity ruler.

The two-outcome machine: a point particle sits on the surface of a sphere of
diameter L. An elastic band is stripped between the two antipodal points
p- = -(L/2) rho and p+ = +(L/2) rho. The particle falls orthogonally onto the
band, landing at signed distance (L/2) cos(gamma) from the midpoint (gamma is
the angle between the particle direction and rho). The band then breaks at a
hidden point drawn from its breakage profile; the particle is carried to p+
exactly when the break lands strictly below it (on the p- side), else to p-.

With a uniformly breakable band the yes-probability ("ends at p+") is

    P = (1 + cos gamma) / 2 = cos^2(gamma / 2),

the same two-outcome statistics as a spin-1/2 measurement at relative angle
gamma. A band uniformly breakable only on its middle segment of fractional
width eps interpolates between that quantum regime (eps = 1) and a classical,
deterministic one (eps = 0, a band that breaks at its midpoint alone):

    P = clamp((1 + cos gamma / eps) / 2, 0, 1),

deterministic wherever |cos gamma| >= eps, irreducibly probabilistic inside.
Probabilities are scale-free, so break positions are kept as fractions of the
band length measured from the p- end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .core import (
    NO, YES, Branch, FirstDraw, ObservationProcess, Outcome, yes_no_branches,
)
from .randomness import _LAST_DRAW, DrawSource, pick
from .stats import TrialReport, sweep

_NORM_TOL = 1e-9


def _norm3(v) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _check_unit(v, what: str) -> None:
    if not abs(_norm3(v) - 1.0) <= _NORM_TOL:  # written so that a NaN norm fails
        raise ValueError(f"{what} must be a unit vector, got norm {_norm3(v)!r}")


def _neg(v):
    return (-v[0], -v[1], -v[2])


@dataclass(frozen=True)
class SpherePoint:
    """Particle state: a unit direction on the sphere surface."""

    direction: tuple[float, float, float]

    def __post_init__(self):
        _check_unit(self.direction, "SpherePoint.direction")

    def __str__(self) -> str:
        x, y, z = self.direction
        return f"sphere({x:.6g},{y:.6g},{z:.6g})"


@dataclass(frozen=True)
class UniformBreak:
    """Band uniformly breakable over its whole length."""

    def __str__(self) -> str:
        return "uniform"


@dataclass(frozen=True)
class SegmentBreak:
    """Band uniformly breakable only on the middle segment of fractional
    width ``width``; width 1 behaves like UniformBreak, and width 0 is the
    deterministic band, breaking at its midpoint alone (still one draw)."""

    width: float

    def __post_init__(self):
        if not 0.0 <= self.width <= 1.0:
            raise ValueError(f"SegmentBreak.width must be in [0, 1], got {self.width!r}")

    def __str__(self) -> str:
        return f"segment({self.width:.6g})"


BreakageProfile = Union[UniformBreak, SegmentBreak]


@dataclass(frozen=True)
class ElasticApparatus:
    """Measurement setup: band orientation, physical length, breakage profile."""

    orientation: tuple[float, float, float]
    length: float = 1.0
    profile: BreakageProfile = UniformBreak()

    def __post_init__(self):
        _check_unit(self.orientation, "ElasticApparatus.orientation")
        if not 0.0 < self.length < math.inf:
            raise ValueError(
                f"ElasticApparatus.length must be positive and finite, got {self.length!r}"
            )


def sphere_point_at(gamma: float) -> SpherePoint:
    """Particle direction at angle ``gamma`` from +z, tilted toward +x."""
    return SpherePoint((math.sin(gamma), 0.0, math.cos(gamma)))


def _cos_between(u, rho, minus_rho) -> float:
    # exact endpoints first so post-states sit at cos = +/-1 bit-exactly
    if u == rho:
        return 1.0
    if u == minus_rho:
        return -1.0
    c = u[0] * rho[0] + u[1] * rho[1] + u[2] * rho[2]
    return max(-1.0, min(1.0, c))


def _prob_from_cos(c: float, profile: BreakageProfile) -> float:
    if isinstance(profile, UniformBreak):
        return 0.5 * (1.0 + c)
    w = profile.width
    if w == 0.0:
        # degenerate middle-point band: ties resolve to no
        return 1.0 if c > 0.0 else 0.0
    return max(0.0, min(1.0, 0.5 * (1.0 + c / w)))


def _yes_test(profile: BreakageProfile):
    """The machine's decision on the draw ``r`` at cos gamma ``c``, as
    ``test(r, c)``.

    Yes iff the break lands strictly below the particle; ties resolve to no.
    The comparisons are kept in centered form (around the band midpoint) so
    the deterministic regimes of the segment profile are exact in floats.
    """
    if isinstance(profile, UniformBreak):
        return lambda r, c: r - 0.5 < 0.5 * c
    # both sides scaled exactly by 2**600: the same comparison wherever the product
    # is normal, and a subnormal width cannot underflow it to 0 (a tie at c = 0)
    scale = profile.width * 2.0**600
    return lambda r, c: (r - 0.5) * scale < 2.0**599 * c


def quantum_machine_prob(gamma: float, profile: BreakageProfile) -> float:
    """Closed-form yes-probability at angle ``gamma`` (radians, in [0, pi]).

    Uniform: (1 + cos gamma) / 2. Segment(eps): clamp((1 + cos gamma/eps)/2, 0, 1),
    and for eps = 0 the midpoint break: 1 when cos gamma > 0, else 0 (ties to no).
    """
    if not 0.0 <= gamma <= math.pi:
        raise ValueError(f"gamma must be in [0, pi], got {gamma!r}")
    return _prob_from_cos(math.cos(gamma), profile)


def quantum_machine_process(apparatus: ElasticApparatus, id: str | None = None) -> ObservationProcess:
    """Bind an apparatus into an ObservationProcess over SpherePoint states.

    Its kernel is the one machine observation, one draw on every profile; the
    post-state is the band endpoint the particle was carried to, +rho on yes
    and -rho on no.
    """
    rho = apparatus.orientation
    profile = apparatus.profile
    minus_rho = _neg(rho)
    post_plus = SpherePoint(rho)
    post_minus = SpherePoint(minus_rho)
    yes_test = _yes_test(profile)
    # the last state seen and its cos gamma, swapped as one tuple: every trial of a
    # run and every replay of its records share one frozen state object
    last = [(None, 0.0)]

    def kernel(state: SpherePoint, rng: DrawSource) -> tuple[Outcome, SpherePoint]:
        seen, c = last[0]
        if state is not seen:
            c = _cos_between(state.direction, rho, minus_rho)
            last[0] = (state, c)
        return (YES, post_plus) if yes_test(rng.draw(), c) else (NO, post_minus)

    def first_draw(state: SpherePoint) -> FirstDraw:
        c = _cos_between(state.direction, rho, minus_rho)
        # r - 0.5 is exact and the scale >= 0: the yes draws are a prefix of [0, 1)
        first, last = yes_test(0.0, c), yes_test(_LAST_DRAW, c)
        always = None if first != last else YES if first else NO
        return FirstDraw(lambda r: yes_test(r, c), posts=(post_minus, post_plus), always=always)

    def analytic(state: SpherePoint) -> float:
        return _prob_from_cos(_cos_between(state.direction, rho, minus_rho), profile)

    def branches(state: SpherePoint) -> tuple[Branch, ...]:
        p = analytic(state)
        return yes_no_branches(p, post_plus, 1.0 - p, post_minus)

    return ObservationProcess(
        id=id or f"quantum-machine[{profile}]",
        scenario=SpherePoint,
        kernel=kernel,
        analytic=analytic,
        branches=branches,
        first_draw=first_draw,
    )


def machine_sweep(
    widths: Sequence[Optional[float]], gammas: Sequence[float], trials: int, seed: int
) -> Iterator[tuple[Optional[float], float, TrialReport]]:
    """(width, gamma, report) for the standard machine, a unit-length band along
    +z, at each width (None: the uniform band) and angle, width by width, from
    one :func:`stats.sweep`, so pair k runs at substream_seed(seed, k)."""
    bands = [quantum_machine_process(ElasticApparatus(
        (0.0, 0.0, 1.0), 1.0, UniformBreak() if w is None else SegmentBreak(w))) for w in widths]
    reports = iter(sweep([(p, sphere_point_at(g)) for p in bands for g in gammas], trials, seed))
    return ((w, g, next(reports)) for w in widths for g in gammas)


@dataclass(frozen=True)
class SawtoothRuler:
    """Cavity lattice along a line: centers at offset + k * pitch."""

    pitch: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.pitch < math.inf:
            raise ValueError(f"SawtoothRuler.pitch must be positive and finite, got {self.pitch!r}")
        if not math.isfinite(self.offset):
            raise ValueError(f"SawtoothRuler.offset must be finite, got {self.offset!r}")

    def center(self, k: int) -> float:
        return self.offset + k * self.pitch


@dataclass(frozen=True)
class LinePosition:
    """Horizontal coordinate of the line particle."""

    x: float

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise ValueError(f"LinePosition.x must be finite, got {self.x!r}")

    def __str__(self) -> str:
        return f"line({self.x:.6g})"


def _snap(ruler: SawtoothRuler, x: float) -> tuple[tuple[int, float], ...]:
    """The cavities the particle at ``x`` can snap into, with probabilities:
    the nearer one with certainty, or both neighbours evenly at a tooth tip."""
    t = (x - ruler.offset) / ruler.pitch
    base = math.floor(t)
    frac = t - base
    if frac == 0.5:
        return ((base, 0.5), (base + 1, 0.5))
    return ((base + 1 if frac > 0.5 else base, 1.0),)


def sawtooth_position_process(
    ruler: SawtoothRuler, target: int, id: str | None = None
) -> ObservationProcess:
    """Yes/no wrapper: did the particle snap into cavity ``target``?"""

    def kernel(state: LinePosition, rng: DrawSource) -> tuple[Outcome, LinePosition]:
        # snap into the nearest cavity, post-state at its center; exactly
        # midway (a tooth tip) one fair draw picks either neighbour, otherwise
        # no draw is taken
        cavities = _snap(ruler, state.x)
        k = cavities[pick(rng.draw(), 2) if len(cavities) == 2 else 0][0]
        return (YES if k == target else NO), LinePosition(ruler.center(k))

    def analytic(state: LinePosition) -> float:
        return sum((p for k, p in _snap(ruler, state.x) if k == target), 0.0)

    def branches(state: LinePosition) -> tuple[Branch, ...]:
        return tuple(
            Branch(YES if k == target else NO, LinePosition(ruler.center(k)), p)
            for k, p in _snap(ruler, state.x)
        )

    return ObservationProcess(
        id=id or f"sawtooth-position[{target}]",
        scenario=LinePosition,
        kernel=kernel,
        analytic=analytic,
        branches=branches,
    )
