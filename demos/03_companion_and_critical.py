"""The companion encoding and the critical-regime constant.

A delayed process on types I with maximum age D is an ordinary multi-type
branching process on {1..D} x I: each individual's age advances by one until
it re-enters at age 1 via reproduction.  The companion matrix's spectral
radius equals the growth root computed from the delay family directly.  The
solver never builds that matrix: its P-F vectors are closed forms in the
mixture's pair at the root, and ``companion_residual`` is the certified
Collatz-Wielandt bound on |rho_hat - r(companion)| they give, not a second
eigenvalue solve.  Here the dense matrix is built once, as an oracle, and
in the critical regime the renewal limit of ``theorem_limits``, built from
the same pair, is the finite limit of the mean incidence.
"""

import numpy as np

from delayedbp import (LifetimeLaw, MeanMatrixFamily, build_companion,
                       evolve_means, solve_malthusian, theorem_limits)

# --- golden-ratio family: companion is the Fibonacci matrix -----------------
fib = MeanMatrixFamily((1, 2), (np.array([[1.0]]), np.array([[1.0]])))
comp = build_companion(fib)
print("companion of the golden-ratio family:")
print(comp.matrix)
print("spectral radius:", comp.pf.rho)

sol = solve_malthusian(fib)
print("independent growth root:", sol.rho_hat,
      " certified bound on the gap:", sol.companion_residual)

# --- critical one-type model: means flatten at 1/mu -------------------------
from delayedbp import ModelSpec, OffspringLaw

half = MeanMatrixFamily((1, 2), (np.array([[0.5]]), np.array([[0.5]])))
model = ModelSpec(
    type_names=("a",),
    delays=(1, 2),
    offspring=OffspringLaw(kind="poisson", means={1: [[0.5]], 2: [[0.5]]}),
    lifetime=LifetimeLaw(pmf=(0.0, 1.0)),
)
sol = solve_malthusian(half)
print(f"\ncritical model: theta = {sol.theta:.2e}, regime = {sol.regime}")

limit = theorem_limits(model, half, sol).limit_x
print("renewal limit of E[X(s)]:", limit)

traj = evolve_means(model, half, 40, sol)
print("\n s   E[X(s)]")
for s in (0, 1, 2, 3, 5, 10, 20, 40):
    print(f"{s:2d}  {traj.ex[s, 0]:.10f}")
print("renewal value 1/mu(beta) =", 1.0 / sol.mu_beta)
