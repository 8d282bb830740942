"""Individual-level Monte Carlo simulation of the delayed branching process.

A replica starts from the model's initial individuals at time 0.  Every
individual born at time t of type i draws a lifetime L (possibly 0 =
asymptomatic, in which case it cannot die), a death indicator for L >= 1, and
raw offspring counts per (delay, child type); offspring at age d are censored
when the individual has died by then (L <= d and death).  Symptomatic
individuals are counted ill on [t, t+L-1], asymptomatic ones are present on
[t, t+D].

Individuals born at the same (time, type) are exchangeable, so the replica is
advanced cohort by cohort with one vectorized draw per random element, in a
fixed order (time ascending, type ascending, then lifetimes, deaths by age,
offspring by delay and child type).  Each replica owns a counter-based Philox
stream keyed by its seed, which makes a record a pure function of
(model, horizon, seed, pop_cap) no matter how replicas are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .errors import AllTruncatedError

DEFAULT_POP_CAP = 10 ** 6


@dataclass(frozen=True)
class ExtinctionInfo:
    """Extinction time, when the horizon suffices to determine it.

    ``time`` is the first instant from which the process stays at zero; it is
    None while undetermined (the process might still be alive past the
    horizon, or the replica was truncated).
    """

    determined: bool
    time: int | None


@dataclass(frozen=True)
class SimulationRecord:
    horizon: int
    max_delay: int
    seed: object
    x: np.ndarray = field(repr=False)  # births per (time, type)
    z: np.ndarray = field(repr=False)  # symptomatic present
    y: np.ndarray = field(repr=False)  # asymptomatic present
    extinction_x: ExtinctionInfo
    extinction_z: ExtinctionInfo
    extinction_y: ExtinctionInfo
    truncated: bool


def _sample_lifetime_counts(rng, lt, n: int, n_cats: int) -> np.ndarray:
    """Multinomial split of a cohort over lifetimes 0..n_cats-1 plus a final
    lumped category for L >= n_cats (those stay ill past the horizon)."""
    probs = np.array([lt.prob(l) for l in range(n_cats)] + [lt.survival(n_cats - 1)])
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()
    return rng.multinomial(n, probs)


def simulate_replica(model, horizon: int, seed, pop_cap: int = DEFAULT_POP_CAP) -> SimulationRecord:
    """Simulate one replica; deterministic given the seed.

    The seed may be an int or a tuple of ints (ensemble replicas use
    (master_seed, replica_index)).  When the number of individuals ever
    created exceeds ``pop_cap`` the replica stops producing offspring, the
    truncation flag is set, and extinction becomes undetermined.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if pop_cap < 1:
        raise ValueError("pop_cap must be >= 1")
    n = model.n_types
    S = horizon
    delays = tuple(model.delay_family)
    D = model.delay_family.max_delay
    lt = model.lifetime
    off = model.offspring

    rng = Generator(Philox(SeedSequence(seed)))

    births = np.zeros((S + 1, n), dtype=np.int64)
    init = model.initial_mean_vector()
    rounded = np.rint(init)
    if np.max(np.abs(init - rounded)) > 1e-9:
        raise ValueError("simulation needs integer initial counts")
    births[0] = rounded.astype(np.int64)

    z = np.zeros((S + 1, n), dtype=np.int64)
    y = np.zeros((S + 1, n), dtype=np.int64)

    total_created = int(births[0].sum())
    truncated = total_created > pop_cap

    death_max = min(D, S)  # deaths at later ages can never censor in-horizon births

    for t in range(S + 1):
        for i in range(n):
            cohort = int(births[t, i])
            if cohort == 0:
                continue
            n_cats = S - t + 1
            life_counts = _sample_lifetime_counts(rng, lt, cohort, n_cats)

            # symptomatic presence: ill at t+c iff L > c
            cum = np.cumsum(life_counts[:n_cats])
            z[t:, i] += cohort - cum
            # asymptomatic presence on [t, t+D]
            y[t:min(t + D, S) + 1, i] += life_counts[0]

            if truncated:
                continue

            # dead-by-age counts; only lifetimes 1..death_max can matter
            dead_cum = np.zeros(D + 1, dtype=np.int64)
            running = 0
            for l in range(1, min(death_max, n_cats - 1) + 1):
                running += rng.binomial(life_counts[l], lt.death_prob_at(l))
                dead_cum[l] = running
            dead_cum[min(death_max, n_cats - 1) + 1:] = running

            for d in delays:
                if t + d > S:
                    continue
                alive = cohort - int(dead_cum[d])
                if alive == 0:
                    continue
                for j in range(n):
                    cnt = _draw_offspring_total(rng, off, d, i, j, alive)
                    if cnt:
                        births[t + d, j] += cnt
                        total_created += cnt
                if total_created > pop_cap:
                    truncated = True
                    break
        if t < S and births[t + 1:].sum() == 0:
            break

    x = births
    last_birth = int(np.flatnonzero(x.sum(axis=1))[-1]) if x.sum() > 0 else -1
    x_det = (not truncated) and (last_birth + D <= S)
    ext_x = ExtinctionInfo(determined=x_det, time=last_birth + 1 if x_det else None)

    z_alive = np.flatnonzero(z.sum(axis=1))
    z_det = x_det and (z[S].sum() == 0)
    ext_z = ExtinctionInfo(determined=z_det,
                           time=(int(z_alive[-1]) + 1 if z_alive.size else 0) if z_det else None)

    y_alive = np.flatnonzero(y.sum(axis=1))
    y_det = x_det
    ext_y = ExtinctionInfo(determined=y_det,
                           time=(int(y_alive[-1]) + 1 if y_alive.size else 0) if y_det else None)

    return SimulationRecord(horizon=S, max_delay=D, seed=seed,
                            x=x, z=z, y=y,
                            extinction_x=ext_x, extinction_z=ext_z,
                            extinction_y=ext_y, truncated=truncated)


def _draw_offspring_total(rng, off, d: int, i: int, j: int, count: int) -> int:
    """Total raw offspring of type j from ``count`` alive parents of type i
    at age d.  Poisson counts superpose exactly; explicit pmfs are drawn
    per parent."""
    if off.kind == "poisson":
        lam = off.means[d][i, j]
        if lam == 0.0:
            return 0
        return int(rng.poisson(lam * count))
    pmf = off.pmfs[d][i][j]
    vals = rng.choice(len(pmf), size=count, p=pmf)
    return int(vals.sum())


@dataclass(frozen=True)
class EnsembleStats:
    horizon: int
    replicas: int
    truncated: int
    mean_x: np.ndarray = field(repr=False)
    mean_z: np.ndarray = field(repr=False)
    mean_y: np.ndarray = field(repr=False)
    se_x: np.ndarray | None = field(repr=False, default=None)
    se_z: np.ndarray | None = field(repr=False, default=None)
    se_y: np.ndarray | None = field(repr=False, default=None)
    extinction_frequency: dict[str, float] | None = None


def ensemble(model, horizon: int, replicas: int, seed,
             pop_cap: int = DEFAULT_POP_CAP) -> EnsembleStats:
    """Ensemble means and standard errors over independent replicas.

    Replica k runs with seed (seed, k); the aggregation is a plain average,
    so results do not depend on execution order.  Truncated replicas are
    excluded from all statistics; if every replica truncates,
    AllTruncatedError is raised.
    """
    return summarize(replica_records(model, horizon, replicas, seed, pop_cap))


def replica_records(model, horizon: int, replicas: int, seed,
                    pop_cap: int = DEFAULT_POP_CAP):
    """Yield the records of replicas 0..replicas-1, replica k seeded (seed, k)."""
    for k in range(replicas):
        yield simulate_replica(model, horizon, (seed, k), pop_cap)


def summarize(records) -> EnsembleStats:
    """Aggregate replica records as ``ensemble`` does, one record at a time."""
    sums = sqs = 0.0
    extinct = dict.fromkeys("xzy", 0)
    used = trunc = 0
    for rec in records:
        if rec.truncated:
            trunc += 1
            continue
        used += 1
        arrs = np.stack((rec.x, rec.z, rec.y)).astype(float)
        sums += arrs
        sqs += arrs * arrs
        for name, info in zip("xzy", (rec.extinction_x, rec.extinction_z,
                                      rec.extinction_y)):
            if info.determined:
                extinct[name] += 1
    if used + trunc == 0:
        raise ValueError("need at least one replica")
    if used == 0:
        raise AllTruncatedError(trunc)

    means = sums / used
    if used > 1:
        var = (sqs - used * means ** 2) / (used - 1)
        ses = np.sqrt(np.maximum(var, 0.0) / used)
    else:
        ses = (None, None, None)

    return EnsembleStats(
        horizon=means.shape[1] - 1, replicas=used, truncated=trunc,
        mean_x=means[0], mean_z=means[1], mean_y=means[2],
        se_x=ses[0], se_z=ses[1], se_y=ses[2],
        extinction_frequency={k: extinct[k] / used for k in "xzy"},
    )


@dataclass(frozen=True)
class ConsistencyReport:
    replicas_checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def extinction_consistency(records) -> ConsistencyReport:
    """Check the pathwise extinction orderings on a batch of records.

    Per replica: asymptomatic presence must cease within D of the last birth
    (T_Y <= T_X + D), counts must actually vanish from the reported
    extinction times onward, and a determined birth extinction forces the
    asymptomatic one to be determined as well.  Violations indicate an
    implementation bug, not randomness.
    """
    violations = []
    checked = 0
    for idx, rec in enumerate(records):
        if rec.truncated:
            continue
        checked += 1
        D = rec.max_delay
        ex, ey, ez = rec.extinction_x, rec.extinction_y, rec.extinction_z
        if ex.determined:
            if not ey.determined:
                violations.append(f"replica {idx}: X extinction determined but Y not")
            elif ey.time > ex.time + D:
                violations.append(
                    f"replica {idx}: T_Y = {ey.time} > T_X + D = {ex.time + D}")
        for name, arr, info in (("X", rec.x, ex), ("Z", rec.z, ez), ("Y", rec.y, ey)):
            if info.determined and arr[info.time:].sum() != 0:
                violations.append(
                    f"replica {idx}: {name} has mass at or after its extinction time")
    return ConsistencyReport(replicas_checked=checked, violations=tuple(violations))
