"""Product observations: testing the conjunction of several properties.

The product test for a meet of properties: make a non-deterministic choice
of one component test, perform it, and adopt its outcome as the outcome of
the conjunction. The choice makes the conjunction testable even when the
component tests are mutually incompatible, and it is the reason a system as
plain as a piece of wood can respond non-deterministically: the product of
non-burnability and floatability on dry intact wood answers yes exactly when
the choice fell on floatability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .core import (
    YES,
    Branch,
    ObservationProcess,
    Outcome,
    is_actual,
    pick_decision,
    PropertyDef,
)
from .exemplars import BURNABILITY, DRY_INTACT, FLOATABILITY, NON_BURNABILITY
from .randomness import DrawSource, RecordingStream, SequenceStream, pick
from .stats import TrialReport, sweep


@dataclass(frozen=True)
class ProductObservation:
    """A set of component processes, one of which is chosen uniformly at
    random. All components must act on the same scenario variant."""

    components: tuple[ObservationProcess, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("ProductObservation needs at least one component")
        scenario = self.components[0].scenario
        for comp in self.components[1:]:
            if comp.scenario is not scenario:
                raise ValueError(
                    f"components mix scenarios: {scenario.__name__} vs {comp.scenario.__name__}"
                )

    @property
    def scenario(self) -> type:
        return self.components[0].scenario


def _choose_and_run(
    components: tuple[ObservationProcess, ...], state: object, rng: DrawSource
) -> tuple[Outcome, object]:
    """The product kernel: pick a component on one draw, run it, adopt its
    outcome and post-state."""
    return components[pick(rng.draw(), len(components))].kernel(state, rng)


def product_observe(
    prod: ProductObservation, state: object, rng: DrawSource
) -> tuple[Outcome, object, str]:
    """Choose a component, run it, adopt its outcome; the chosen component id
    is returned for audit."""
    prod.components[0].check_scenario(state)
    recorder = RecordingStream(rng)
    outcome, post = _choose_and_run(prod.components, state, recorder)
    # the kernel picked the component on its first draw
    return outcome, post, prod.components[pick(recorder.draws[0], len(prod.components))].id


def product_analytic(prod: ProductObservation, state: object) -> float:
    """Mean of the component yes-probabilities."""
    return sum(comp.analytic_prob(state) for comp in prod.components) / len(prod.components)


def product_process(prod: ProductObservation) -> ObservationProcess:
    """Expose a product as an ordinary ObservationProcess."""
    have_analytic = all(c.analytic is not None for c in prod.components)
    have_branches = all(c.branches is not None for c in prod.components)

    def analytic(state):
        return product_analytic(prod, state)

    def branches(state) -> tuple[Branch, ...]:
        n = len(prod.components)
        return tuple(
            Branch(b.outcome, b.post, b.prob / n)
            for comp in prod.components for b in comp.branches(state)
        )

    def first_draw(state):
        # decided by the pick alone when every component's outcome is fixed at this state
        decisions = [c.first_draw and c.first_draw(state) for c in prod.components]
        if not all(d is not None and d.always is not None for d in decisions):
            return None
        try:
            # each post too, where no component draws after the pick
            posts = [c.kernel(state, SequenceStream(()))[1] for c in prod.components]
        except RuntimeError:  # a component draws: a machine, or a nested product's pick
            posts = None
        return pick_decision([d.always is YES for d in decisions], posts)

    return ObservationProcess(
        id="product(" + ",".join(c.id for c in prod.components) + ")",
        scenario=prod.scenario,
        kernel=partial(_choose_and_run, prod.components),
        analytic=analytic if have_analytic else None,
        branches=branches if have_branches else None,
        posts_exact=all(c.posts_exact for c in prod.components),
        first_draw=first_draw,
    )


def meet_actual(prod: ProductObservation, state: object) -> bool:
    """The meet (conjunction) is actual iff every component is actual, i.e.
    the product answers yes with certainty whatever the choice."""
    # a list, not a generator: every component must have an analytic, even
    # after one has already answered no
    return all([is_actual(PropertyDef(comp.id, comp), state) for comp in prod.components])


def wood_product_sweep(
    trials: int, seed: int
) -> tuple[tuple[ObservationProcess, TrialReport, bool], ...]:
    """(process, report, meet actual) on fresh dry intact wood, from one
    :func:`stats.sweep`: burnability*floatability, then non-burnability*floatability."""
    products = (ProductObservation((BURNABILITY, FLOATABILITY)),
                ProductObservation((NON_BURNABILITY, FLOATABILITY)))
    processes = [product_process(prod) for prod in products]
    reports = sweep([(process, DRY_INTACT) for process in processes], trials, seed)
    return tuple((process, report, meet_actual(prod, DRY_INTACT))
                 for prod, process, report in zip(products, processes, reports))
