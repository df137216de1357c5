import math

import pytest

from obsim import (
    ASHES,
    BURNABILITY,
    DRY_INTACT,
    FLOATABILITY,
    NON_BURNABILITY,
    ProductObservation,
    PropertyDef,
    SolidState,
    TrialStream,
    WET_INTACT,
    is_actual,
    meet_actual,
    product_analytic,
    product_observe,
    product_process,
    run_trials,
)
from obsim.core import YES, NotDecidableError, ObservationProcess, ScenarioMismatchError

WOOD_STATES = (DRY_INTACT, WET_INTACT, ASHES)


class TestProductLaw:
    def test_analytic_is_weight_average(self):
        prod = ProductObservation((BURNABILITY, FLOATABILITY))
        for state in WOOD_STATES:
            expected = 0.5 * BURNABILITY.analytic(state) + 0.5 * FLOATABILITY.analytic(state)
            assert product_analytic(prod, state) == pytest.approx(expected, abs=1e-15)

    def test_process_wrapper_exposes_analytic(self):
        process = product_process(ProductObservation((BURNABILITY, FLOATABILITY)))
        for state in WOOD_STATES:
            assert process.analytic(state) == product_analytic(
                ProductObservation((BURNABILITY, FLOATABILITY)), state
            )


class TestMeetActual:
    def test_certain_meet(self):
        assert meet_actual(ProductObservation((BURNABILITY, FLOATABILITY)), DRY_INTACT)

    def test_incompatible_pair_is_not_actual(self):
        assert not meet_actual(ProductObservation((NON_BURNABILITY, FLOATABILITY)), DRY_INTACT)

    def test_single_component_equals_is_actual(self):
        prod = ProductObservation((FLOATABILITY,))
        for state in WOOD_STATES:
            assert meet_actual(prod, state) == is_actual(PropertyDef("f", FLOATABILITY), state)

    def test_certainty_criterion(self):
        # meet actual iff the product answers yes with probability 1
        for comps in ((BURNABILITY, FLOATABILITY), (NON_BURNABILITY, FLOATABILITY)):
            prod = ProductObservation(comps)
            for state in WOOD_STATES:
                assert meet_actual(prod, state) == (product_analytic(prod, state) == 1.0)

    def test_not_decidable_without_component_analytics(self):
        bare = ObservationProcess("bare", type(DRY_INTACT), BURNABILITY.kernel)
        with pytest.raises(NotDecidableError):
            meet_actual(ProductObservation((bare,)), DRY_INTACT)


class TestProductObserve:
    def test_reports_chosen_component(self):
        prod = ProductObservation((BURNABILITY, FLOATABILITY))
        ids = {product_observe(prod, DRY_INTACT, TrialStream(1, i))[2] for i in range(50)}
        assert ids == {"burnability", "floatability"}

    def test_outcome_is_the_component_outcome(self):
        prod = ProductObservation((NON_BURNABILITY, FLOATABILITY))
        for i in range(200):
            outcome, _post, chosen = product_observe(prod, DRY_INTACT, TrialStream(2, i))
            assert (outcome is YES) == (chosen == "floatability")

    def test_scenario_mismatch(self):
        prod = ProductObservation((BURNABILITY, FLOATABILITY))
        with pytest.raises(ScenarioMismatchError):
            product_observe(prod, SolidState(1.0, 0.0), TrialStream(0))

    def test_choice_audit(self):
        prod = ProductObservation((BURNABILITY, FLOATABILITY))
        trials = 10_000
        counts = {"burnability": 0, "floatability": 0}
        for i in range(trials):
            counts[product_observe(prod, DRY_INTACT, TrialStream(33, i))[2]] += 1
        bound = 4 * math.sqrt(trials * 0.25)
        for count in counts.values():
            assert abs(count - trials / 2) <= bound

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductObservation(())
        from obsim import INCOMPRESSIBILITY

        with pytest.raises(ValueError):
            ProductObservation((BURNABILITY, INCOMPRESSIBILITY))


class TestNdcDemo:
    COIN = ProductObservation((NON_BURNABILITY, FLOATABILITY))

    def test_single_trial_never_errors(self):
        report = run_trials(product_process(self.COIN), DRY_INTACT, 1, seed=5)
        assert report.yes in (0, 1)

    def test_demonstration(self):
        report = run_trials(product_process(self.COIN), DRY_INTACT, 10_000, seed=7)
        assert not meet_actual(self.COIN, DRY_INTACT)
        components = self.COIN.components
        deterministic = {c.id: c.analytic_prob(DRY_INTACT) in (0.0, 1.0) for c in components}
        assert deterministic == {"non-burnability": True, "floatability": True}
        assert report.analytic == 0.5
        assert report.wilson_low <= 0.5 <= report.wilson_high
        # on dry intact wood the product answers yes exactly when it chose floatability
        chose_floatability = sum(product_observe(self.COIN, DRY_INTACT, TrialStream(7, i))[2]
                                 == "floatability" for i in range(10_000))
        assert report.yes == chose_floatability

    def test_certain_product_is_always_yes(self):
        process = product_process(ProductObservation((BURNABILITY, FLOATABILITY)))
        report = run_trials(process, DRY_INTACT, 2000, seed=11)
        assert report.yes == 2000

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            run_trials(product_process(self.COIN), DRY_INTACT, 0, seed=1)
