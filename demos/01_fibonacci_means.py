"""Build the simplest interesting model and watch its means grow.

One type, reproduction at ages 1 and 2 with Poisson(1) offspring at each,
everyone ill for exactly 3 time units, nobody dies.  The mean incidence
then runs through the Fibonacci numbers and the growth rate is the golden
ratio.
"""

import math

from delayedbp import (LifetimeLaw, ModelSpec, OffspringLaw,
                       censored_mean_matrices, evolve_means, solve_malthusian,
                       validate)

model = ModelSpec(
    type_names=("a",),
    delays=(1, 2),
    offspring=OffspringLaw(kind="poisson", means={1: [[1.0]], 2: [[1.0]]}),
    lifetime=LifetimeLaw(pmf=(0.0, 0.0, 0.0, 1.0)),  # L = 3
    initial=0,
)

print(validate(model))

family = censored_mean_matrices(model)
print("\ncensored mean matrices:")
for d, m in family.items():
    print(f"  age {d}: {m.tolist()}")

sol = solve_malthusian(family)
phi = (1 + math.sqrt(5)) / 2
print(f"\ngrowth rate rho_hat = {sol.rho_hat:.15f}")
print(f"golden ratio        = {phi:.15f}")
print(f"theta = log rho_hat = {sol.theta:.15f}, regime: {sol.regime}")
print(f"step distribution beta = {sol.beta}, mean step mu = {sol.mu_beta:.10f}")

traj = evolve_means(model, family, 15, sol)
print("\n s   E[X(s)]    E[Z(s)]    e^(-theta s) E[X(s)]")
for s in range(16):
    print(f"{s:2d}  {traj.ex[s, 0]:9.1f}  {traj.ez[s, 0]:9.1f}  {traj.wx[s, 0]:.10f}")
print("\nthe weighted column settles at phi/sqrt(5) =", phi / math.sqrt(5))
