"""
Testing two incompatible properties at once
===========================================

Burning destroys floatability and soaking destroys burnability, yet a single
piece of dry wood possesses both properties. The product test observes the
conjunction anyway: choose one of the two tests at random, run it, adopt its
outcome. When both properties are actual the outcome is certain whatever the
choice. Swap burnability for its negation and the outcome becomes a fair
coin: a plain piece of wood responds non-deterministically, because the
non-deterministic choice is part of the observation itself.
"""

from obsim import (
    BURNABILITY,
    DRY_INTACT,
    FLOATABILITY,
    NON_BURNABILITY,
    ProductObservation,
    TrialStream,
    meet_actual,
    product_observe,
    product_process,
    run_trials,
)

certain = ProductObservation((BURNABILITY, FLOATABILITY))
print("product(burnability, floatability) on dry intact wood")
print(f"  meet actual in advance: {meet_actual(certain, DRY_INTACT)}")
for i in range(5):
    outcome, post, chosen = product_observe(certain, DRY_INTACT, TrialStream(1, i))
    print(f"  trial {i}: chose {chosen:<12} -> {outcome.value:<3} leaving {post}")

print("\nproduct(non-burnability, floatability) on dry intact wood")
coin = ProductObservation((NON_BURNABILITY, FLOATABILITY))
trials, seed = 10_000, 99
report = run_trials(product_process(coin), DRY_INTACT, trials, seed)
deterministic = {c.id: c.analytic_prob(DRY_INTACT) in (0.0, 1.0) for c in coin.components}
choices = {c.id: 0 for c in coin.components}
for i in range(trials):  # trial i chose with the first draw of its stream
    choices[product_observe(coin, DRY_INTACT, TrialStream(seed, i))[2]] += 1
print(f"  meet actual in advance: {meet_actual(coin, DRY_INTACT)}")
print(f"  each chosen test individually deterministic: {deterministic}")
print(f"  empirical yes-frequency: {report.p_hat:.4f} (analytic {report.analytic})")
print(f"  wilson 99% interval: [{report.wilson_low:.4f}, {report.wilson_high:.4f}]")
print(f"  choices: {choices}")
