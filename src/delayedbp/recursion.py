"""Exact mean evolution of the incidence, symptomatic and asymptomatic counts.

Everything here is driven by one linear recursion, the renewal step of
``_renew_rows``: row s of a stacked state is its preloaded source plus the
sum over delays d of row s-d pushed through M_d.  A row may be one mean
vector or a stack of them (the last axis always indexes types), so one step
serves every quantity at once.  The three processes differ only in their
source:

* incidence X:     E[X(0)] at s = 0, nothing afterwards;
* symptomatic Z:   E[X(0)] * P(L > s) at every s;
* asymptomatic Y:  E[X(0)] * P(L = 0) on the window 0 <= s <= D.

Geometrically weighted versions (multiplied by exp(-theta*s)) run the same
step with M_d scaled by exp(-theta*d) rather than being rescaled after the
fact, which keeps long supercritical or subcritical horizons inside
floating-point range.  ``evolve_means`` renews one state of shape
(S+1, 2, 3, types): (raw, weighted) x (X, Z, Y), with per-delay stacked
matrices [M_d, exp(-theta*d) M_d] of shape (2, types, types), so the raw and
weighted means advance in one pass and the overflow guard sees all six
series at once.  The kernel Xi(s) is the same step on a stack of n rows
started from the identity, so that E[X(s)]' = E[X(0)]' Xi(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDenominatorError, HorizonTooLargeError, PeriodicFamilyError
from .malthusian import MalthusianSolution, solve_malthusian
from .spectral import period

OVERFLOW_LIMIT = 1e300


def _renew(family, v: np.ndarray, start: int = 0, theta: float = 0.0) -> None:
    """In place: v[s] += sum_d exp(-theta*d) v[s-d] @ M_d for s >= start.

    Raises HorizonTooLargeError at the first such s whose row exceeds
    OVERFLOW_LIMIT.
    """
    _renew_rows([(d, math.exp(-theta * d) * mat) for d, mat in family.items()], v, start)


def _renew_rows(mats, v: np.ndarray, start: int = 0) -> None:
    """In place: v[s] += sum over (d, mat) in ``mats`` of v[s-d] @ mat, for
    s >= start; ``mat`` may be a stack that broadcasts against a row."""
    for s in range(start, len(v)):
        v[s] += sum(v[s - d] @ mat for d, mat in mats if d <= s)
        if v[s].max() > OVERFLOW_LIMIT:
            raise HorizonTooLargeError(s)


@dataclass(frozen=True)
class MeanTrajectory:
    """Time-indexed mean vectors, raw and geometrically weighted.

    Row s of each array holds the corresponding vector at time s; vectors at
    negative times are zero by convention.
    """

    horizon: int
    theta: float
    ex: np.ndarray = field(repr=False)
    ez: np.ndarray = field(repr=False)
    ey: np.ndarray = field(repr=False)
    wx: np.ndarray = field(repr=False)
    wz: np.ndarray = field(repr=False)
    wy: np.ndarray = field(repr=False)


def evolve_means(model, family, horizon: int, mal: MalthusianSolution | None = None) -> MeanTrajectory:
    """Run the mean recursions up to ``horizon``.

    Raises HorizonTooLargeError at the first time any entry exceeds 1e300.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if mal is None:
        mal = solve_malthusian(family)
    theta = mal.theta
    lt = model.lifetime
    x0 = model.initial_mean_vector()

    # row s stacks (raw, weighted) x (X, Z, Y); preload the sources, then renew
    v = np.zeros((horizon + 1, 2, 3, family.n_types))
    v[0, :, 0] = x0
    for s in range(horizon + 1):
        v[s, 0, 1] = x0 * lt.survival(s)
        v[s, 1, 1] = _scaled(x0, *_weighted_survival(lt, s, theta))
    for s in range(min(family.max_delay, horizon) + 1):
        v[s, 0, 2] = x0 * lt.prob(0)
        v[s, 1, 2] = _scaled(x0, lt.prob(0), -theta * s)
    _renew_rows([(d, np.stack((mat, math.exp(-theta * d) * mat)))
                 for d, mat in family.items()], v)

    return MeanTrajectory(horizon=horizon, theta=theta,
                          ex=v[:, 0, 0], ez=v[:, 0, 1], ey=v[:, 0, 2],
                          wx=v[:, 1, 0], wz=v[:, 1, 1], wy=v[:, 1, 2])


def _weighted_survival(lt, c: int, theta: float) -> tuple[float, float]:
    """P(L > c) * exp(-theta*c) as a (factor, exponent) pair, the exponent
    taken in log space on the geometric tail so that subcritical weighting
    cannot overflow prematurely."""
    rem = lt.tail_mass
    if c < lt.max_finite or not lt.tail_ratio or rem == 0.0:
        return lt.survival(c), -theta * c
    return 1.0, math.log(rem) + (c - lt.max_finite) * math.log(lt.tail_ratio) - theta * c


def _scaled(x0: np.ndarray, factor: float, exponent: float) -> np.ndarray:
    """x0 * factor * exp(exponent); where exp(exponent) alone overflows the
    product is taken in log space, so entries are inf only past the double
    range and the overflow guard fires where the true value passes 1e300."""
    try:
        return x0 * (factor * math.exp(exponent))
    except OverflowError:
        with np.errstate(divide="ignore", over="ignore"):
            return np.exp(np.log(x0 * factor) + exponent)


def xi_kernel(family, s: int) -> np.ndarray:
    """Mean-evolution kernel: Xi(0) = I and Xi(s) = sum_d Xi(s-d) M_d."""
    if s < 0:
        raise ValueError("time must be >= 0")
    xi = np.zeros((s + 1, family.n_types, family.n_types))
    xi[0] = np.eye(family.n_types)
    _renew(family, xi)
    return xi[s]


@dataclass(frozen=True)
class LimitReport:
    """Closed-form limits of the weighted mean processes."""

    limit_x: np.ndarray
    limit_z: np.ndarray
    limit_y: np.ndarray
    type_limit: np.ndarray
    age_limit: np.ndarray | None  # None when no delay has positive survival
    empirical_gap: dict[str, float]
    horizon: int


def theorem_limits(model, family, mal: MalthusianSolution, horizon: int = 400) -> LimitReport:
    """Evaluate the limit formulas and measure the gap to the trajectory.

    With (h, nu) = (``mal.h``, ``mal.nu``), the P-F pair of the mixture
    sum_d e^{-theta d} M_d at the root, the renewal theorem gives
    g = (E[X(0)]'h) / (nu' sum_d d e^{-theta d} M_d h), and:

    limit_x = g nu
    limit_z = g (sum_{c>=0} P(L>c) e^{-theta c}) nu
    limit_y = g P(L=0) (sum_{c=0}^{D} e^{-theta c}) nu

    These are the exact limits of the weighted convolutions
    E[Z(s)] = sum_c E[X(s-c)] P(L>c) and
    E[Y(s)] = P(L=0) sum_{c=0}^{D} E[X(s-c)]; the window factor for Y
    collapses to D+1 in the critical case (theta = 0).  For families
    sharing P-F eigenvectors nu' M_d h = rho_d, so the denominator is
    mu(beta) and g is the paper's constant.

    Holds for every aperiodic family; a family whose cycle lengths have a
    common divisor above one raises PeriodicFamilyError.  In the
    subcritical regime the lifetime series must converge (geometric tail
    ratio below exp(theta)), otherwise TailDivergesError propagates from
    the series.
    """
    p = period(family)
    if p > 1:
        raise PeriodicFamilyError(p)
    h, nu = mal.h, mal.nu
    theta = mal.theta
    lt = model.lifetime
    x0 = model.initial_mean_vector()
    D = family.max_delay

    g = float(x0 @ h) / math.fsum(d * math.exp(-theta * d) * float(nu @ mat @ h)
                                  for d, mat in family.items())
    series = lt.weighted_survival_series(theta)
    window = math.fsum(math.exp(-theta * c) for c in range(D + 1))
    limit_x = g * nu
    limit_z = g * series * nu
    limit_y = g * lt.prob(0) * window * nu

    age_w = np.array([lt.survival(d) * math.exp(-theta * d) for d in family.delays])
    age_limit = age_w / age_w.sum() if age_w.sum() > 0 else None

    traj = evolve_means(model, family, horizon, mal)
    gap = {
        "x": float(np.max(np.abs(traj.wx[horizon] - limit_x))),
        "z": float(np.max(np.abs(traj.wz[horizon] - limit_z))),
        "y": float(np.max(np.abs(traj.wy[horizon] - limit_y))),
    }
    return LimitReport(limit_x=limit_x, limit_z=limit_z, limit_y=limit_y,
                       type_limit=nu, age_limit=age_limit,
                       empirical_gap=gap, horizon=horizon)


def age_distribution(model, family, mal: MalthusianSolution, s: int) -> np.ndarray:
    """Age profile of the expected actively reproducing population at time s.

    Entry (k, j) is the fraction of the type-j reproducing population whose
    age is delays[k]:

        E[X_j(s - d)] P(L > d) / sum_d' E[X_j(s - d')] P(L > d')

    As s grows each column tends to P(L>d) e^{-theta d}, normalized over the
    delay set.
    """
    D = family.max_delay
    if s <= D:
        raise ValueError(f"need s > {D} so every age is populated")
    lt = model.lifetime
    surv = np.array([lt.survival(d) for d in family.delays])
    if not np.any(surv > 0):
        raise DegenerateDenominatorError("P(L > d) = 0 for every delay")
    traj = evolve_means(model, family, s, mal)
    num = np.array([traj.ex[s - d] * surv[k]
                    for k, d in enumerate(family.delays)])
    denom = num.sum(axis=0)
    if np.any(denom <= 0):
        raise DegenerateDenominatorError("zero reproducing population for some type")
    return num / denom


def stationary_check(family, mal: MalthusianSolution) -> float:
    """Residual of the stationary type profile under the mean evolution.

    Seeds the first window with nu = ``mal.nu``, the left P-F eigenvector of
    the mixture sum_d e^{-theta d} M_d at the root, evolves one further
    window of the weighted means and returns the worst infinity-norm
    deviation of the type proportions from nu.  Since
    nu' sum_d e^{-theta d} M_d = nu' for every family, this is zero up to
    rounding, and the weighted rows stay near nu whatever rho_hat and D are.
    """
    nu = mal.nu
    D = family.max_delay
    window = np.zeros((2 * D + 1, family.n_types))
    window[:D] = nu
    _renew(family, window, start=D, theta=mal.theta)
    props = window[D:] / window[D:].sum(axis=1, keepdims=True)
    return float(np.max(np.abs(props - nu)))
