"""Malthusian growth rate of the delayed process and its companion encoding.

The growth rate theta = log(rho_hat) is pinned down by requiring the P-F
eigenvalue of the mixture sum_d rho_hat^{-d} M_d to equal one.  Newton's
method on the convex log-eigenvalue finds it, started at the analytic lower
bound log min_d rho_d^{1/d}, from which it climbs monotonically.  The same
rho_hat is the P-F eigenvalue of a companion matrix on the enlarged type
space {1..D} x types, which turns the delayed process into an ordinary
multi-type branching process.  The companion's P-F vectors are closed forms
in the mixture's pair (h, nu) at the root, so no D*n matrix is needed: the
left vector nu_c(d) = rho_hat^{-(d-1)} nu gives a Collatz-Wielandt bound on
|rho_hat - r(companion)|, reported as ``companion_residual``.
The dense companion (``build_companion``) is kept as an oracle for tests.
Every P-F solve runs at ``spectral.PF_TOL``; only ``family_pf`` checks irreducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergenceError
from .spectral import PFData, _pf_solve, family_pf, matrix_inf_norm, pf_decompose

MAX_NEWTON = 100  # g evaluations; at most 12 measured on delays up to 2^53, 1 for one delay
ROOT_TOL = 1e-14  # |g| at or below which the root is reached
CRIT_TOL = 1e-9  # |theta| at or below which the regime is critical


def _normed(family) -> list[tuple[int, float, np.ndarray]]:
    """(d, log ||M_d||_inf, M_d / ||M_d||_inf): the t-free part of the terms."""
    norms = [(d, mat, matrix_inf_norm(mat)) for d, mat in family.items()]
    return [(d, math.log(nm), mat / nm) for d, mat, nm in norms]


def _scaled_terms(normed, t: float) -> tuple[list[tuple[int, np.ndarray]], float]:
    """The terms (d, exp(-d*t - c) M_d) of the mixture at rho = e^t, scaled
    by e^{-c} with c = max_d(-d*t + log ||M_d||_inf): the largest term has
    norm one, so no weight overflows however large d*|t| is."""
    c = max(log_nm - d * t for d, log_nm, _ in normed)
    return [(d, math.exp(log_nm - d * t - c) * unit) for d, log_nm, unit in normed], c


def mixture_matrix(family, rho: float) -> np.ndarray:
    """sum_d rho^{-d} M_d, summed from the scaled terms."""
    terms, c = _scaled_terms(_normed(family), math.log(rho))
    return math.exp(c) * sum(mat for _, mat in terms)


def _log_growth(normed, t: float, start: PFData) -> tuple[float, float, PFData, list, float]:
    """g = log of the P-F eigenvalue lambda of sum_d e^{-d t} M_d, its
    derivative in t, the mixture's P-F data solved from ``start``, and the
    scaled terms with c (log lambda = log lambda_c + c).  The mixture is
    irreducible unchecked, as a positive sum of the irreducible M_d.

    First-order P-F perturbation (nu'h = 1) gives
    d lambda/dt = nu' (sum_d -d e^{-d t} M_d) h, so dg/dt is that over
    lambda, and the shift by c cancels in the ratio.
    g is decreasing and convex in t, since the spectral radius of a matrix
    with log-convex entries is log-convex (Kingman, 1961).
    """
    terms, c = _scaled_terms(normed, t)
    pf = _pf_solve(sum(mat for _, mat in terms), start)
    slope = -math.fsum(d * float(pf.nu @ mat @ pf.h) for d, mat in terms)
    return math.log(pf.rho) + c, slope / pf.rho, pf, terms, c


@dataclass(frozen=True)
class MalthusianSolution:
    """The root rho_hat = exp(theta) and the P-F pair (h, nu) of the mixture
    at the root, normalized nu'1 = 1 and nu'h = 1.  ``beta`` holds the step
    weights rho_d exp(-theta d), keyed by delay; they sum to one when the
    family shares P-F eigenvectors.  ``weighted`` holds W_d = exp(-theta d) M_d
    from the root's last evaluation, keyed by delay, and ``delta`` is the
    renewal denominator nu' sum_d d W_d h (mu_beta on a shared family).

    ``companion_residual`` is a certified bound on |rho_hat - r(C)| for the
    companion matrix C, from the Collatz-Wielandt bounds at C's closed-form
    left vector; it is not a second eigenvalue solve.
    """

    rho_hat: float
    theta: float
    beta: dict[int, float]
    mu_beta: float
    regime: str  # "supercritical" | "critical" | "subcritical"
    companion_residual: float
    h: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)
    weighted: dict[int, np.ndarray] = field(repr=False)
    delta: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class CompanionSystem:
    """Block companion matrix on {1..D} x types.

    Row/column index (e, i) flattens to (e-1)*n + i.  A unit entry moves mass
    from (d-1, j) to (d, j); offspring re-enter at (e, i) -> (1, j) with
    weight M_e(i, j) for e in the delay set.
    """

    matrix: np.ndarray = field(repr=False)
    index: tuple[tuple[int, int], ...]
    pf: PFData


def build_companion(family) -> CompanionSystem:
    """Assemble the companion matrix and its P-F data."""
    n = family.n_types
    N = family.max_delay * n
    tm = np.zeros((N, N))
    tm[np.arange(N - n), np.arange(n, N)] = 1.0  # (d - 1, j) -> (d, j)
    for e, mat in family.items():
        tm[(e - 1) * n:e * n, :n] = mat  # (e, i) -> (1, j)
    index = tuple((e, i) for e in range(1, family.max_delay + 1) for i in range(n))
    return CompanionSystem(matrix=tm, index=index, pf=pf_decompose(tm))


def solve_malthusian(family) -> MalthusianSolution:
    """Find rho_hat > 0 with P-F eigenvalue of sum_d rho_hat^{-d} M_d equal 1.

    The root of g(t) = log(eigenvalue) at t = log(rho) is found by Newton's
    method with the closed-form slope of ``_log_growth``, started at
    t0 = log min_d rho_d^{1/d}, where one mixture term alone has eigenvalue
    one, so g(t0) >= 0.  The slope is -sum_d d w_d with weights w_d summing
    to one, so it lies in [-D, -d_min] and is never zero; and g is convex,
    so each Newton step lands at or below the root: the iterates climb to it
    monotonically.  The search returns the first evaluated theta with
    |g| <= ``ROOT_TOL`` or |g| no smaller than before (g's rounding floor),
    since beta_D magnifies an error in theta D times; ``MAX_NEWTON``
    evaluations without that raise NoConvergenceError.  The matrix norms
    that scale the terms are taken once, after ``family_pf`` has refused
    any reducible member with NonIrreducibleError.

    The step distribution beta_d = exp(log rho_d - theta*d) sums to one
    exactly when the family shares P-F eigenvectors; otherwise a warning is
    attached rather than renormalizing.  The regime follows theta alone,
    critical when |theta| <= ``CRIT_TOL``.  The last evaluation gives (h,
    nu), the weighted family, delta and the companion certificate.  Each
    mixture solve starts from the pair of the one before it, the first from
    the last delay's, so near the root it takes one or two LU solves per
    side.
    """
    pf_d = family_pf(family)
    rho_d = {d: pf.rho for d, pf in pf_d.items()}

    theta = min(math.log(r) / d for d, r in rho_d.items())
    pf, last, normed = pf_d[family.delays[-1]], math.inf, _normed(family)
    for _ in range(MAX_NEWTON):
        g, slope, pf, terms, c = _log_growth(normed, theta, pf)
        if abs(g) <= ROOT_TOL or abs(g) >= last:
            break
        last = abs(g)
        theta -= g / slope
    else:
        raise NoConvergenceError(MAX_NEWTON, "Newton's method for the growth rate")
    rho_hat = math.exp(theta)

    beta = {d: math.exp(math.log(rho_d[d]) - theta * d) for d in family.delays}
    sum_beta = math.fsum(beta.values())
    mu_beta = math.fsum(d * b for d, b in beta.items())
    warns = []
    if abs(sum_beta - 1.0) > 1e-8:
        warns.append(
            f"step weights sum to {sum_beta!r}, not 1: the family does not "
            "share P-F eigenvectors and beta is not a probability vector")

    regime = ("critical" if abs(theta) <= CRIT_TOL
              else "supercritical" if theta > 0 else "subcritical")

    # the companion's left vector x(d) = rho_hat^{-(d-1)} nu has ratio
    # (x'C)/x = rho_hat on ages d >= 2 and rho_hat * a on age 1
    mix = sum(mat for _, mat in terms)
    a = math.exp(c) * (pf.nu @ mix) / pf.nu
    residual = rho_hat * max(float(a.max()) - 1.0, 1.0 - float(a.min()), 0.0)

    return MalthusianSolution(
        rho_hat=rho_hat,
        theta=theta,
        beta=beta,
        mu_beta=mu_beta,
        regime=regime,
        companion_residual=residual,
        h=pf.h,
        nu=pf.nu,
        weighted={d: math.exp(c) * mat for d, mat in terms},
        delta=-slope * math.exp(g),  # nu' sum_d d W_d h = -slope * lambda, lambda = e^g
        warnings=tuple(warns),
    )
