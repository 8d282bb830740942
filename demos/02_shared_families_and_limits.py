"""Families sharing Perron-Frobenius eigenvectors and their closed-form limits.

Start from any stochastic matrix P, a positive vector h and one eigenvalue per
reproduction age: M_d(i,j) = rho_d P(i,j) h(i)/h(j) then shares eigenvectors
across d.  For such families the geometrically weighted mean counts converge
to explicit multiples of the left eigenvector nu, and the age profile of the
reproducing population has a closed-form limit.
"""

import numpy as np

from delayedbp import (LifetimeLaw, age_distribution, commute_check,
                       construct_shared_family, shared_pf_check,
                       solve_malthusian, stationary_check, theorem_limits)
from delayedbp.model import ModelSpec, OffspringLaw

P = np.array([[0.6, 0.3, 0.1],
              [0.2, 0.5, 0.3],
              [0.3, 0.3, 0.4]])
h = np.array([1.5, 1.0, 0.7])
rhos = {1: 0.55, 2: 0.35, 3: 0.25}

family = construct_shared_family(P, h, rhos)
report = shared_pf_check(family)
print("shared:", report.shared, " common nu:", np.round(report.nu, 6))
print("per-age eigenvalues:", {d: pf.rho for d, pf in report.pf.items()})
print("matrices commute?", commute_check(family), "(sharing does not require it)")

lifetime = LifetimeLaw(pmf=(0.2, 0.1, 0.3, 0.4), death_prob=0.05)
model = ModelSpec(
    type_names=("north", "center", "south"),
    delays=(1, 2, 3),
    offspring=OffspringLaw(kind="poisson",
                           means={d: family.matrix(d) for d in family.delays}),
    lifetime=lifetime,
    initial=1,
)
# censoring by death shrinks the means, so recompute the family from the model
from delayedbp import censored_mean_matrices
family = censored_mean_matrices(model)

sol = solve_malthusian(family)
print(f"\ntheta = {sol.theta:+.6f} ({sol.regime}), companion residual "
      f"{sol.companion_residual:.2e}")

rep = theorem_limits(model, family, sol, horizon=300)
print("\nweighted limits (multiples of nu):")
print("  incidence   ", np.round(rep.limit_x, 8))
print("  symptomatic ", np.round(rep.limit_z, 8))
print("  asymptomatic", np.round(rep.limit_y, 8))
print("gaps to the trajectory at s=300:", rep.empirical_gap)

print("\ntype mix of the population settles at nu:", np.round(rep.type_limit, 6))
print("stationary profile residual:", stationary_check(family, sol))

ages = age_distribution(model, family, 300)
print("\nage profile of active spreaders at s=300 (columns = types):")
print(np.round(ages, 6))
print("closed-form limit column:", np.round(rep.age_limit, 6))
