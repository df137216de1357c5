"""
From deterministic to irreducibly probabilistic
===============================================

Make the band breakable only on its middle segment of fractional width eps.
Wherever |cos gamma| >= eps the particle lands outside the breakable window
and the outcome is certain; inside, the outcome is a genuine coin with bias
(1 + cos gamma / eps) / 2. Width 0 is the fully classical machine, width 1
the fully quantum one, anything between is an intermediate observation that
is predictable in some states and unpredictable in others.
"""

import math

from obsim import (
    ElasticApparatus,
    SegmentBreak,
    quantum_machine_prob,
    quantum_machine_process,
    run_trials,
    sphere_point_at,
)

TRIALS = 5_000
gammas = [k * math.pi / 12 for k in range(13)]

for width in (0.25, 0.5, 1.0):
    process = quantum_machine_process(
        ElasticApparatus((0.0, 0.0, 1.0), 1.0, SegmentBreak(width))
    )
    print(f"\nsegment width eps = {width}")
    print(f"{'gamma/pi':>9} {'|cos|':>6} {'regime':>14} {'analytic':>9} {'empirical':>10}")
    for gamma in gammas:
        state = sphere_point_at(gamma)
        yes = run_trials(process, state, TRIALS, 7).yes
        regime = "deterministic" if abs(math.cos(gamma)) >= width else "probabilistic"
        analytic = quantum_machine_prob(gamma, SegmentBreak(width))
        print(
            f"{gamma / math.pi:9.3f} {abs(math.cos(gamma)):6.3f} {regime:>14}"
            f" {analytic:9.4f} {yes / TRIALS:10.4f}"
        )
