"""Individual-level simulation against the exact mean recursion.

Replicas are deterministic functions of their seed; an ensemble's empirical
means land within Monte Carlo error of the recursion, extinction of births
forces extinction of the asymptomatic count within D steps, and subcritical
models die out fast.
"""

import numpy as np

from delayedbp import (DelayFamily, LifetimeLaw, ModelSpec, OffspringLaw,
                       censored_mean_matrices, ensemble, evolve_means,
                       extinction_consistency, simulate_replica)

model = ModelSpec(
    type_names=("a",),
    delay_family=DelayFamily((1, 2)),
    offspring=OffspringLaw(kind="poisson", means={1: [[0.55]], 2: [[0.55]]}),
    lifetime=LifetimeLaw(pmf=(0.3, 0.2, 0.5), death_prob=0.1),
    initial=0,
)
family = censored_mean_matrices(model)

rec = simulate_replica(model, 12, seed=2024)  # a block of one row
print("one replica (births / symptomatic / asymptomatic):")
for s in range(13):
    print(f"  s={s:2d}  x={rec.x[0, s, 0]:3d}  z={rec.z[0, s, 0]:3d}  y={rec.y[0, s, 0]:3d}")
det, time = rec.extinction()
print("extinction of X, Z, Y: determined", det[:, 0].tolist(), "time", time[:, 0].tolist())

again = simulate_replica(model, 12, seed=2024)
print("same seed reproduces the record exactly:",
      np.array_equal(rec.x, again.x) and np.array_equal(rec.z, again.z))

stats = ensemble(model, 12, replicas=20_000, seed=77)
traj = evolve_means(model, family, 12)
print("\nensemble mean vs exact mean (births):")
print("  s    empirical      exact        |diff|/SE")
for s in range(13):
    se = stats.se_x[s, 0]
    pull = abs(stats.mean_x[s, 0] - traj.ex[s, 0]) / se if se > 0 else 0.0
    print(f"  {s:2d}  {stats.mean_x[s, 0]:10.5f}  {traj.ex[s, 0]:10.5f}  {pull:8.2f}")

print("\nextinction frequencies by horizon 12:", stats.extinction_frequency)

records = [simulate_replica(model, 40, seed=(88, k)) for k in range(500)]
report = extinction_consistency(records)
print(f"pathwise ordering check on {report.replicas_checked} replicas: "
      f"{'ok' if report.ok else report.violations}")
