"""Malthusian growth rate of the delayed process and its companion encoding.

The growth rate theta = log(rho_hat) is pinned down by requiring the P-F
eigenvalue of sum_d rho_hat^{-d} M_d to equal one.  The same rho_hat is the
P-F eigenvalue of a companion matrix on the enlarged type space
{1..D} x types, which turns the delayed process into an ordinary multi-type
branching process; the two routes are computed independently and their
agreement is reported as a residual.  In the critical case the companion
encoding also yields the finite limit of the mean incidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailureError, NotCriticalError
from .spectral import (SHARING_TOL, PFData, family_pf, matrix_inf_norm,
                       pf_decompose, pf_deviation)

RHO_MIN = 1e-9
RHO_MAX = 1e9
MAX_EXPANSIONS = 200  # bracket doublings per end
MAX_NEWTON = 100  # safeguarded Newton steps; 3-6 are typical
NEWTON_STEP_TOL = 1e-9


def mixture_matrix(family, rho: float) -> np.ndarray:
    """sum_d rho^{-d} M_d."""
    n = family.n_types
    out = np.zeros((n, n))
    for d, mat in family.items():
        out += rho ** (-d) * mat
    return out


def _log_growth(family, rho: float, tol: float) -> tuple[float, float]:
    """g = log of the P-F eigenvalue lambda of sum_d rho^{-d} M_d, and its
    derivative in t = log(rho).

    First-order P-F perturbation (nu'h = 1) gives
    d lambda/dt = nu' (sum_d -d rho^{-d} M_d) h, so dg/dt is that over lambda.
    g is decreasing and convex in t, since the spectral radius of a matrix
    with log-convex entries is log-convex (Kingman, 1961).
    """
    pf = pf_decompose(mixture_matrix(family, rho), tol)
    slope = -math.fsum(d * rho ** (-d) * float(pf.nu @ mat @ pf.h)
                       for d, mat in family.items())
    return math.log(pf.rho), slope / pf.rho


@dataclass(frozen=True)
class MalthusianSolution:
    rho_hat: float
    theta: float
    beta: dict[int, float]
    mu_beta: float
    regime: str  # "supercritical" | "critical" | "subcritical"
    companion_residual: float
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


def build_companion(family, tol: float = 1e-12) -> CompanionSystem:
    """Assemble the companion matrix and its P-F data."""
    n = family.n_types
    D = family.max_delay
    N = D * n

    def flat(e, i):
        return (e - 1) * n + i

    tm = np.zeros((N, N))
    for d in range(2, D + 1):
        for j in range(n):
            tm[flat(d - 1, j), flat(d, j)] = 1.0
    for e, mat in family.items():
        for i in range(n):
            for j in range(n):
                tm[flat(e, i), flat(1, j)] = mat[i, j]
    index = tuple((e, i) for e in range(1, D + 1) for i in range(n))
    return CompanionSystem(matrix=tm, index=index, pf=pf_decompose(tm, tol))


def solve_malthusian(family, tol: float = 1e-12, crit_tol: float = 1e-9) -> MalthusianSolution:
    """Find rho_hat > 0 with P-F eigenvalue of sum_d rho_hat^{-d} M_d equal 1.

    The root of g(t) = log(eigenvalue) at t = log(rho) is found by Newton's
    method with the closed-form slope from the P-F triple (see
    ``_log_growth``), safeguarded by a bracket: a step that leaves the
    bracket is replaced by bisection.  Since g is decreasing and convex,
    Newton converges from either end in a handful of steps.  The initial
    bracket comes from per-matrix eigenvalues (lower end) and row-sum norms
    (upper end); if that bracket is somehow invalid the search expands inside
    [1e-9, 1e9] before giving up with BracketFailureError.

    The step distribution beta_d = rho_d * exp(-theta*d) sums to one exactly
    when the family shares P-F eigenvectors; otherwise a warning is attached
    rather than renormalizing.
    """
    pf = family_pf(family, tol)
    rho_d = {d: pf[d].rho for d in family.delays}

    # rho = min_d rho_d^{1/d} makes one mixture term already have eigenvalue
    # >= 1; the row-sum bound caps the top end.
    lo = min(r ** (1.0 / d) for d, r in rho_d.items())
    norm_sum = sum(matrix_inf_norm(mat) for _, mat in family.items())
    d_min, d_max = family.delays[0], family.delays[-1]
    hi = norm_sum ** (1.0 / d_min) if norm_sum >= 1.0 else norm_sum ** (1.0 / d_max)
    lo = min(max(min(lo, hi), RHO_MIN), RHO_MAX)
    hi = min(max(lo, hi), RHO_MAX)

    def growth(rho):
        return _log_growth(family, rho, tol)

    # widen defensively if rounding pushed the analytic bracket off the root
    g_lo = growth(lo)
    for _ in range(MAX_EXPANSIONS):
        if g_lo[0] >= 0.0 or lo <= RHO_MIN:
            break
        lo = max(lo / 2.0, RHO_MIN)
        g_lo = growth(lo)
    g_hi = growth(hi)
    for _ in range(MAX_EXPANSIONS):
        if g_hi[0] <= 0.0 or hi >= RHO_MAX:
            break
        hi = min(hi * 2.0, RHO_MAX)
        g_hi = growth(hi)
    if g_lo[0] < 0.0 or g_hi[0] > 0.0:
        raise BracketFailureError(
            f"no root of the growth equation inside [{RHO_MIN}, {RHO_MAX}]")

    t_lo, t_hi = math.log(lo), math.log(hi)
    t, (g, slope) = (t_lo, g_lo) if g_lo[0] <= -g_hi[0] else (t_hi, g_hi)
    for _ in range(MAX_NEWTON):
        if g == 0.0:
            break
        step = -g / slope if slope < 0.0 else math.inf
        if abs(step) <= NEWTON_STEP_TOL * (1.0 + abs(t)):
            # quadratic convergence: the error left after this step is far
            # below the rounding of g, so it needs no evaluation
            t += step
            break
        if t_lo < t + step < t_hi:
            t += step
        else:
            t = 0.5 * (t_lo + t_hi)
        g, slope = growth(math.exp(t))
        if g > 0.0:
            t_lo = t
        else:
            t_hi = t
        if t_hi - t_lo <= 1e-16 * (1.0 + abs(t)):
            break
    theta = t
    rho_hat = math.exp(theta)

    beta = {d: rho_d[d] * math.exp(-theta * d) for d in family.delays}
    sum_beta = math.fsum(beta.values())
    mu_beta = math.fsum(d * b for d, b in beta.items())
    warns = []
    if abs(sum_beta - 1.0) > 1e-8:
        warns.append(
            f"step weights sum to {sum_beta!r}, not 1: the family does not "
            "share P-F eigenvectors and beta is not a probability vector")

    # sharing is cheap to detect here since per-delay P-F data is in hand
    if pf_deviation(pf) <= SHARING_TOL:
        total = math.fsum(rho_d.values())
        if abs(total - 1.0) <= crit_tol:
            regime = "critical"
        elif total > 1.0:
            regime = "supercritical"
        else:
            regime = "subcritical"
    else:
        if abs(theta) <= crit_tol:
            regime = "critical"
        elif theta > 0:
            regime = "supercritical"
        else:
            regime = "subcritical"

    companion = build_companion(family, tol)
    residual = abs(rho_hat - companion.pf.rho)

    return MalthusianSolution(
        rho_hat=rho_hat,
        theta=theta,
        beta=beta,
        mu_beta=mu_beta,
        regime=regime,
        companion_residual=residual,
        warnings=tuple(warns),
    )


def critical_limit(model, family, crit_tol: float = 1e-9) -> np.ndarray:
    """Finite limit of E[X(s)] in the critical regime.

    The companion state at time 0 collects the first window of mean incidence
    (entry (d, j) holds E[X_j(D - d)]); projecting its product with the
    companion right eigenvector onto nu-hat and restricting to the (D, .)
    block gives the limit vector.
    """
    from .recursion import evolve_means

    mal = solve_malthusian(family)
    if abs(mal.theta) > crit_tol:
        raise NotCriticalError(mal.theta)

    comp = build_companion(family)
    n = family.n_types
    D = family.max_delay
    traj = evolve_means(model, family, horizon=D - 1, mal=mal)
    zhat0 = np.zeros(D * n)
    for d in range(1, D + 1):
        zhat0[(d - 1) * n:d * n] = traj.ex[D - d]
    scale = float(zhat0 @ comp.pf.h)
    return scale * comp.pf.nu[(D - 1) * n:]
