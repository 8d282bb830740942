"""Backward paths, runs, and two independent ways to compute the kernel.

The mean evolution at time s is a sum over backward paths from s to 0 with
steps in the delay set.  Grouping paths by step counts gives multinomial
class sizes; within a class, almost every long word contains a long run of a
repeated symbol, which is the mechanism behind the rank-one limit of
normalized matrix products.  The kernel Xi(s) is computed three ways here:
dynamic programming, exhaustive enumeration, and Monte Carlo path sampling.
"""

import numpy as np

from delayedbp import (construct_shared_family, enumerate_lambda,
                       has_kappa_run, multinomial_size, run_fraction,
                       solve_malthusian, xi_by_enumeration, xi_by_sampling,
                       xi_kernel)

delays = (1, 2)

print("step-count classes for paths spanning s = 8:")
for k in enumerate_lambda(delays, 8):
    print(f"  counts {k.counts}: length {k.r}, {multinomial_size(k)} words")

print("\nfraction of words per class containing a 2-run:")
for s in (6, 10, 14):
    rf = run_fraction(delays, s, 2)
    print(f"  s={s:2d}: min over classes = {rf.minimum} "
          f"(~{float(rf.minimum):.4f})")
print("long words cannot dodge runs: the minimum climbs toward 1")

print("\nexample: is there a 3-run?")
for word in ((1, 1, 1, 2), (1, 2, 1, 1, 2, 1)):
    print(f"  {word}: {has_kappa_run(word, 3)}")

# a two-type family to exercise the matrix-valued kernels; sharing
# eigenvectors makes beta sum to one, so each sampled step weighs M_d / rho_d
P = np.array([[0.7, 0.3], [0.4, 0.6]])
family = construct_shared_family(P, h=np.array([1.0, 1.6]),
                                 rhos={1: 0.65, 2: 0.45})
sol = solve_malthusian(family)

s = 9
dp = xi_kernel(family, s)
enum, per_r = xi_by_enumeration(family, s)
print(f"\nkernel at s={s} by dynamic programming:\n{dp}")
print(f"max |DP - enumeration| = {np.max(np.abs(dp - enum)):.2e}")
print("per-length contributions r -> ||Xi(s; r)||:",
      {r: round(float(np.abs(m).sum()), 6) for r, m in sorted(per_r.items())})

est = xi_by_sampling(family, sol, s, n_samples=200_000, seed=7)
print(f"\nMonte Carlo estimate (200k paths):\n{est.estimate}")
print(f"standard errors:\n{est.stderr}")
print(f"max |DP - MC| in SE units: "
      f"{np.max(np.abs(dp - est.estimate) / est.stderr):.2f}")
