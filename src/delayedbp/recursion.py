"""Exact mean evolution of the incidence, symptomatic and asymptomatic counts.

Everything here is driven by one linear recursion, the renewal step of
``_renew_rows``: row s of a stacked state is its preloaded source plus the
sum over delays d of row s-d pushed through M_d.  A row may be one mean
vector or a stack of them (the last axis always indexes types), so one step
serves every quantity at once.  The means weighted by exp(-theta*s) run the
step with M_d replaced by W_d = exp(-theta*d) M_d (``mal.weighted``), which
keeps long horizons inside floating-point range; the raw means are the case
theta = 0.  For one theta the three processes differ only in their source,
built by ``_sources`` from the lifetime's weighted rows:

* incidence X:     E[X(0)] at s = 0, nothing afterwards;
* symptomatic Z:   E[X(0)] * P(L > s) * exp(-theta*s) at every s;
* asymptomatic Y:  E[X(0)] * P(L = 0) * exp(-theta*s) on the window 0 <= s <= D.

``evolve_means`` renews theta = 0 and the root together, a state of shape
(S+1, 2, 3, types) against per-delay stacks [M_d, W_d], so the overflow guard
sees all six series at once; ``theorem_limits`` renews the weighted means
alone and ``age_distribution`` the raw ones.  The kernel Xi(s) is the same
step on n rows started from the identity, so that E[X(s)]' = E[X(0)]' Xi(s).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDenominatorError, HorizonTooLargeError, PeriodicFamilyError
from .malthusian import MalthusianSolution, solve_malthusian
from .spectral import period

OVERFLOW_LIMIT = 1e300
_TERMWISE_LAGS = 64  # Y window lags summed term by term; the rest in closed form


def _renew_rows(mats, v: np.ndarray, start: int = 0) -> None:
    """In place: v[s] += sum over (d, mat) in ``mats`` of v[s-d] @ mat, for
    s >= start; ``mat`` may be a stack that broadcasts against a row.

    Raises HorizonTooLargeError at the first such s whose row exceeds
    OVERFLOW_LIMIT: an overflowed row holds inf (earlier rows are finite).
    """
    with np.errstate(over="ignore"):
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


def _sources(v: np.ndarray, model, theta: float, max_delay: int) -> np.ndarray:
    """Fill v, zeros of shape (S+1, 3, types), with the X, Z and Y sources of
    the means weighted by exp(-theta*s) at s = 0..S; returns v."""
    lt, x0 = model.lifetime, model.initial_mean_vector()
    v[0, 0] = x0
    v[:, 1] = lt.weighted_survival(x0, theta, range(len(v)))
    window = range(min(max_delay, len(v) - 1) + 1)
    v[:len(window), 2] = lt.weighted_asymptomatic(x0, theta, window)
    return v


def evolve_means(model, family, horizon: int, mal: MalthusianSolution | None = None) -> MeanTrajectory:
    """Run the mean recursions up to ``horizon``.

    Raises HorizonTooLargeError at the first time any entry exceeds 1e300.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if mal is None:
        mal = solve_malthusian(family)
    v = np.zeros((horizon + 1, 2, 3, family.n_types))  # row s: (raw, weighted) x (X, Z, Y)
    for k, theta in enumerate((0.0, mal.theta)):
        _sources(v[:, k], model, theta, family.max_delay)
    _renew_rows([(d, np.stack((mat, mal.weighted[d]))) for d, mat in family.items()], v)
    return MeanTrajectory(horizon=horizon, theta=mal.theta,
                          ex=v[:, 0, 0], ez=v[:, 0, 1], ey=v[:, 0, 2],
                          wx=v[:, 1, 0], wz=v[:, 1, 1], wy=v[:, 1, 2])


def xi_kernel(family, s: int) -> np.ndarray:
    """Mean-evolution kernel: Xi(0) = I and Xi(s) = sum_d Xi(s-d) M_d."""
    if s < 0:
        raise ValueError("time must be >= 0")
    xi = np.zeros((s + 1, family.n_types, family.n_types))
    xi[0] = np.eye(family.n_types)
    _renew_rows(list(family.items()), xi)
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
    g = (E[X(0)]'h) / delta, with ``mal.delta`` = nu' sum_d d e^{-theta d} M_d h:

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
    the series.  A Y window or a series past the double range raises
    HorizonTooLargeError.  The gaps renew the weighted means alone, so the
    raw means may pass 1e300 before ``horizon``.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    p = period(family)
    if p > 1:
        raise PeriodicFamilyError(p)
    nu, theta = mal.nu, mal.theta
    lt = model.lifetime
    x0 = model.initial_mean_vector()
    # taken first: a finite window bounds every weight e^{-theta d} below
    window = _window(theta, family.max_delay)

    g = float(x0 @ mal.h) / mal.delta
    series = lt.weighted_survival_series(theta)
    limit_x = g * nu
    limit_z = g * series * nu
    limit_y = g * lt.pmf[0] * window * nu

    age_w = lt.weighted_survival(1.0, theta, family.delays)
    age_limit = age_w / age_w.sum() if age_w.sum() > 0 else None

    v = _sources(np.zeros((horizon + 1, 3, len(nu))), model, theta, family.max_delay)
    _renew_rows(list(mal.weighted.items()), v)
    gap = {name: float(np.max(np.abs(v[horizon, k] - lim)))
           for k, (name, lim) in enumerate(zip("xzy", (limit_x, limit_z, limit_y)))}
    return LimitReport(limit_x=limit_x, limit_z=limit_z, limit_y=limit_y,
                       type_limit=nu, age_limit=age_limit,
                       empirical_gap=gap, horizon=horizon)


def _window(theta: float, D: int) -> float:
    """sum_{c=0..D} e^{-theta c}: term by term up to a cut, then the r = D - cut
    lags left as one geometric sum (r at theta = 0).  Raises
    HorizonTooLargeError at lag D past the double range."""
    cut = min(D, _TERMWISE_LAGS)
    r = D - cut
    with contextlib.suppress(OverflowError):
        terms = [math.exp(-theta * c) for c in range(cut + 1)]
        if r:
            terms.append(r if theta == 0 else math.exp(-theta * (cut + 1))
                         * math.expm1(-theta * r) / math.expm1(-theta))
        if (total := math.fsum(terms)) < math.inf:
            return total
    raise HorizonTooLargeError(
        D, f"the Y window sum_{{c<=D}} e^{{-theta c}} passed the double range at lag {D}")


def age_distribution(model, family, s: int) -> np.ndarray:
    """Age profile of the expected actively reproducing population at time s.

    Entry (k, j) is the fraction of the type-j reproducing population whose
    age is delays[k]:

        E[X_j(s - d)] P(L > d) / sum_d' E[X_j(s - d')] P(L > d')

    As s grows each column tends to P(L>d) e^{-theta d}, normalized over the
    delay set (``theorem_limits``' ``age_limit``).
    """
    D = family.max_delay
    if s <= D:
        raise ValueError(f"need s > {D} so every age is populated")
    surv = model.lifetime.weighted_survival(1.0, 0.0, family.delays)  # P(L > d)
    if not np.any(surv > 0):
        raise DegenerateDenominatorError("P(L > d) = 0 for every delay")
    v = _sources(np.zeros((s + 1, 3, family.n_types)), model, 0.0, D)
    _renew_rows(list(family.items()), v)
    num = np.array([v[s - d, 0] * surv[k]
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
    _renew_rows(list(mal.weighted.items()), window, start=D)
    props = window[D:] / window[D:].sum(axis=1, keepdims=True)
    return float(np.max(np.abs(props - nu)))
