import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsim import (
    ASHES,
    BURNABILITY,
    DRY_INTACT,
    FLOATABILITY,
    NON_BURNABILITY,
    ProductObservation,
    PropertyDef,
    SequenceStream,
    SolidState,
    TrialStream,
    WET_INTACT,
    is_actual,
    meet_actual,
    observe,
    product_observe,
    product_process,
    run_trials,
)
from obsim import product
from obsim.core import YES, NotDecidableError, ObservationProcess, ScenarioMismatchError
from obsim.randomness import pick

WOOD_STATES = (DRY_INTACT, WET_INTACT, ASHES)
# the coin, the three-component and the nested product whose records CI replays
COIN = ProductObservation((NON_BURNABILITY, FLOATABILITY))
THREE = ProductObservation((BURNABILITY, NON_BURNABILITY, FLOATABILITY))
NESTED = ProductObservation(
    (product_process(ProductObservation((BURNABILITY, FLOATABILITY))), NON_BURNABILITY))


class TestProductLaw:
    def test_analytic_is_weight_average(self):
        process = product_process(ProductObservation((BURNABILITY, FLOATABILITY)))
        for state in WOOD_STATES:
            expected = 0.5 * BURNABILITY.analytic(state) + 0.5 * FLOATABILITY.analytic(state)
            assert process.analytic(state) == pytest.approx(expected, abs=1e-15)

    def test_process_wrapper_exposes_analytic(self):
        for prod in (COIN, THREE, NESTED):
            process = product_process(prod)
            for state in WOOD_STATES:
                mean = sum(c.analytic_prob(state) for c in prod.components) / len(prod.components)
                assert process.analytic(state) == mean
        bare = ObservationProcess("bare", type(DRY_INTACT), BURNABILITY.kernel)
        assert product_process(ProductObservation((bare, FLOATABILITY))).analytic is None

    @pytest.mark.parametrize("components", [
        (NON_BURNABILITY, FLOATABILITY),  # the coin on dry intact wood
        (BURNABILITY, FLOATABILITY),  # certain on dry intact wood
        (BURNABILITY, NON_BURNABILITY, FLOATABILITY),
    ])
    @pytest.mark.parametrize("state", WOOD_STATES)
    def test_branches_are_the_kernel_on_each_pick(self, components, state):
        process = product_process(ProductObservation(components))
        branches = process.branches(state)
        n = len(components)
        assert len(branches) == n  # one branch per wood component: each is deterministic
        assert math.fsum(b.prob for b in branches) == pytest.approx(1.0, abs=1e-15)
        yes_mass = math.fsum(b.prob for b in branches if b.outcome is YES)
        assert yes_mass == pytest.approx(process.analytic(state), abs=1e-15)
        for k, branch in enumerate(branches):
            # the draw at the middle of component k's share of [0, 1) picks it
            got = process.kernel(state, SequenceStream(((k + 0.5) / n,)))
            assert got == (branch.outcome, branch.post)


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
                assert meet_actual(prod, state) == (product_process(prod).analytic(state) == 1.0)

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
        with pytest.raises(ScenarioMismatchError, match=r"'product\(burnability,floatability\)'"):
            product_observe(prod, SolidState(1.0, 0.0), TrialStream(0))

    @given(prod=st.sampled_from((COIN, THREE, NESTED)), state=st.sampled_from(WOOD_STATES),
           seed=st.integers(min_value=0, max_value=2**64 - 1),
           index=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_is_observe_on_the_product_process(self, prod, state, seed, index):
        outcome, post, chosen = product_observe(prod, state, TrialStream(seed, index))
        want, want_post, record = observe(product_process(prod), state, TrialStream(seed, index))
        assert (outcome, post) == (want, want_post)
        picked = prod.components[pick(record.draws[0], len(prod.components))]
        assert chosen == picked.id
        # the chosen component, run on the draws after the pick, gives the product's answer
        assert picked.kernel(state, SequenceStream(record.draws[1:])) == (outcome, post)

    def test_builds_its_process_once_per_product(self, monkeypatch):
        built = mock.Mock(side_effect=product.product_process)
        monkeypatch.setattr(product, "product_process", built)
        prod = ProductObservation((NON_BURNABILITY, FLOATABILITY))
        before = (repr(prod), hash(prod), dataclasses.fields(prod))
        for i in range(20):
            product_observe(prod, DRY_INTACT, TrialStream(3, i))
        assert built.call_count == 1
        # the kept process is no field: an equal product equals and hashes alike
        assert (repr(prod), hash(prod), dataclasses.fields(prod)) == before
        assert prod == COIN and hash(prod) == hash(COIN)
        # product_process still builds a new process on every call
        assert product_process(prod) is not product_process(prod)

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
