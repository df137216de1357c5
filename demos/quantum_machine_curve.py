"""
The two-outcome machine curve
=============================

A point particle on a sphere is measured with a sticky uniform elastic band
stripped along an orientation rho. The band breaks at a hidden uniform point
and carries the particle to one endpoint. The yes-frequency over many trials
traces (1 + cos gamma) / 2 = cos^2(gamma / 2), the spin-1/2 statistics.
"""

import math

import numpy as np

from obsim import (
    ElasticApparatus,
    UniformBreak,
    chi_square_against_analytic,
    quantum_machine_process,
    sphere_point_at,
    sweep,
)

process = quantum_machine_process(ElasticApparatus((0.0, 0.0, 1.0), 1.0, UniformBreak()))

gammas = [float(g) for g in np.linspace(0.0, math.pi, 13)]
reports = sweep([(process, sphere_point_at(g)) for g in gammas], trials=20_000, seed=42)

print(f"{'gamma/pi':>9} {'analytic':>9} {'empirical':>10} {'wilson 99% interval':>22}")
for g, report in zip(gammas, reports):
    print(
        f"{g / math.pi:9.3f} {report.analytic:9.4f} {report.p_hat:10.4f}"
        f"      [{report.wilson_low:.4f}, {report.wilson_high:.4f}]"
    )

chi_square, dof, p_value = chi_square_against_analytic(reports)
print(f"\nchi-square over the non-degenerate points: {chi_square:.2f} "
      f"(dof {dof}, p = {p_value:.3f})")
