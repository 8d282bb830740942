"""Malthusian growth rate of the delayed process and its companion encoding.

The growth rate theta = log(rho_hat) is pinned down by requiring the P-F
eigenvalue of the mixture sum_d rho_hat^{-d} M_d to equal one.  The same
rho_hat is the P-F eigenvalue of a companion matrix on the enlarged type
space {1..D} x types, which turns the delayed process into an ordinary
multi-type branching process.  The companion's P-F vectors are closed forms
in the mixture's pair (h, nu) at the root, so no D*n matrix is needed: the
left vector nu_c(d) = rho_hat^{-(d-1)} nu gives a Collatz-Wielandt bound on
|rho_hat - r(companion)|, reported as ``companion_residual``.
The dense companion (``build_companion``) is kept as an oracle for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailureError
from .spectral import PFData, family_pf, matrix_inf_norm, pf_decompose

RHO_MIN = 1e-9
RHO_MAX = 1e9
MAX_EXPANSIONS = 200  # bracket doublings per end
MAX_NEWTON = 100  # safeguarded Newton steps; 3-6 are typical
NEWTON_STEP_TOL = 1e-9


def _scaled_terms(family, t: float) -> tuple[list[tuple[int, np.ndarray]], float]:
    """The terms (d, exp(-d*t - c) M_d) of the mixture at rho = e^t, scaled
    by e^{-c} with c = max_d(-d*t + log ||M_d||_inf): the largest term has
    norm one, so no weight overflows however large d*|t| is."""
    norms = [(d, mat, matrix_inf_norm(mat)) for d, mat in family.items()]
    c = max(math.log(nm) - d * t for d, _, nm in norms)
    return [(d, math.exp(math.log(nm) - d * t - c) * (mat / nm)) for d, mat, nm in norms], c


def mixture_matrix(family, rho: float) -> np.ndarray:
    """sum_d rho^{-d} M_d, summed from the scaled terms."""
    terms, c = _scaled_terms(family, math.log(rho))
    return math.exp(c) * sum(mat for _, mat in terms)


def _log_growth(family, t: float, tol: float) -> tuple[float, float]:
    """g = log of the P-F eigenvalue lambda of sum_d e^{-d t} M_d, and its
    derivative in t, from the scaled terms: log lambda = log lambda_c + c.

    First-order P-F perturbation (nu'h = 1) gives
    d lambda/dt = nu' (sum_d -d e^{-d t} M_d) h, so dg/dt is that over
    lambda, and the shift by c cancels in the ratio.
    g is decreasing and convex in t, since the spectral radius of a matrix
    with log-convex entries is log-convex (Kingman, 1961).
    """
    terms, c = _scaled_terms(family, t)
    pf = pf_decompose(sum(mat for _, mat in terms), tol)
    slope = -math.fsum(d * float(pf.nu @ mat @ pf.h) for d, mat in terms)
    return math.log(pf.rho) + c, slope / pf.rho


@dataclass(frozen=True)
class MalthusianSolution:
    """The root rho_hat = exp(theta) and the P-F pair (h, nu) of the mixture
    at the root, normalized nu'1 = 1 and nu'h = 1.  ``pf`` holds the P-F data
    of each M_d, solved once at the solver's tolerance, keyed by delay.

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
    pf: dict[int, PFData] = field(repr=False)
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
    N = family.max_delay * n
    tm = np.zeros((N, N))
    tm[np.arange(N - n), np.arange(n, N)] = 1.0  # (d - 1, j) -> (d, j)
    for e, mat in family.items():
        tm[(e - 1) * n:e * n, :n] = mat  # (e, i) -> (1, j)
    index = tuple((e, i) for e in range(1, family.max_delay + 1) for i in range(n))
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
    rather than renormalizing.  The regime follows theta alone, critical
    when |theta| <= ``crit_tol``.  One last P-F solve of the mixture at the
    root gives (h, nu) and the companion certificate.
    """
    per_delay = family_pf(family, tol)
    rho_d = {d: per_delay[d].rho for d in family.delays}

    # rho = min_d rho_d^{1/d} makes one mixture term already have eigenvalue
    # >= 1; the row-sum bound caps the top end.
    lo = min(r ** (1.0 / d) for d, r in rho_d.items())
    norm_sum = sum(matrix_inf_norm(mat) for _, mat in family.items())
    d_min, d_max = family.delays[0], family.delays[-1]
    hi = norm_sum ** (1.0 / d_min) if norm_sum >= 1.0 else norm_sum ** (1.0 / d_max)
    lo = min(max(min(lo, hi), RHO_MIN), RHO_MAX)
    hi = min(max(lo, hi), RHO_MAX)

    # widen defensively if rounding pushed the analytic bracket off the root
    g_lo = _log_growth(family, math.log(lo), tol)
    for _ in range(MAX_EXPANSIONS):
        if g_lo[0] >= 0.0 or lo <= RHO_MIN:
            break
        lo = max(lo / 2.0, RHO_MIN)
        g_lo = _log_growth(family, math.log(lo), tol)
    g_hi = _log_growth(family, math.log(hi), tol)
    for _ in range(MAX_EXPANSIONS):
        if g_hi[0] <= 0.0 or hi >= RHO_MAX:
            break
        hi = min(hi * 2.0, RHO_MAX)
        g_hi = _log_growth(family, math.log(hi), tol)
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
        g, slope = _log_growth(family, t, tol)
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

    regime = ("critical" if abs(theta) <= crit_tol
              else "supercritical" if theta > 0 else "subcritical")

    # the companion's left vector x(d) = rho_hat^{-(d-1)} nu has ratio
    # (x'C)/x = rho_hat on ages d >= 2 and rho_hat * a on age 1
    terms, c = _scaled_terms(family, theta)
    mix = sum(mat for _, mat in terms)
    pf = pf_decompose(mix, tol)
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
        pf=per_delay,
        warnings=tuple(warns),
    )
