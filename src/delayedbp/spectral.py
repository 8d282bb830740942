"""Perron-Frobenius analysis of nonnegative matrices and matrix families.

The central objects are the P-F triple (rho, h, nu) of a single irreducible
matrix and the notion of a family of matrices *sharing* eigenvectors: all
members have the same left and right P-F eigenvectors while their eigenvalues
may differ.  Shared families admit closed-form long-run behavior, and products
of their normalized members are uniformly bounded by the eigenvector weight
ratio.  Constructors for shared families (from a stochastic matrix plus a
target eigenvector) and a commutation test are included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (NegativeEntryError, NoConvergenceError, NotStochasticError,
                     SchemaError)

DEFAULT_TOL = 1e-12
SHARING_TOL = 1e-8
MAX_ITERS = 50  # shift-and-invert solves per side; 4-6 are typical


def matrix_inf_norm(a: np.ndarray) -> float:
    """Max absolute row sum."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return float(np.abs(a).sum(axis=1).max())


def is_irreducible(m: np.ndarray) -> bool:
    """True iff the digraph of nonzero entries is strongly connected.

    A 1x1 matrix counts as irreducible only when its entry is positive, so
    that the zero matrix is always reducible.
    """
    m = np.asarray(m)
    n = m.shape[0]
    if n == 1:
        return m[0, 0] > 0
    adj = m != 0

    def reaches_all(a):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt = a[frontier].any(axis=0) & ~seen
            seen |= nxt
            frontier = np.flatnonzero(nxt).tolist()
        return seen.all()

    return reaches_all(adj) and reaches_all(adj.T)


def period(family) -> int:
    """The gcd of the cycle lengths of the family's graph, which has an edge
    i -> j of length d wherever M_d(i, j) > 0; 1 means aperiodic.  ``family``
    is a MeanMatrixFamily or a dict of matrices keyed by delay.

    A frontier search from type 0 records one path length dist(j) to every
    type.  Every cycle length is a sum of the edge defects
    dist(i) + d - dist(j), and every defect is the difference of the lengths
    of two closed walks through type 0, so the gcd of the defects is the
    period.  The graph must be strongly connected, as it is when any M_d is
    irreducible.
    """
    edges = [(d, mat > 0) for d, mat in family.items()]
    dist = np.full(len(edges[0][1]), -1, dtype=np.int64)
    dist[0] = 0
    frontier = np.array([0])
    while frontier.size:
        reach = np.max([np.where(adj[frontier], dist[frontier, None] + d, -1).max(axis=0)
                        for d, adj in edges], axis=0)
        frontier = np.flatnonzero((dist < 0) & (reach >= 0))
        dist[frontier] = reach[frontier]
    return int(np.gcd.reduce(np.concatenate(
        [np.abs(dist[:, None] + d - dist)[adj] for d, adj in edges])))


@dataclass(frozen=True)
class PFData:
    """P-F eigenvalue and eigenvectors, normalized nu'1 = 1 and nu'h = 1."""

    rho: float
    h: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)
    residual_right: float
    residual_left: float


def _pf_vector(a: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """Right P-F vector of an irreducible nonnegative matrix, summing to one,
    by Noda's shift-and-invert iteration; returns it with the iteration count.

    The shift sigma = max_i (Av)_i / v_i is a Collatz-Wielandt upper bound on
    rho, so (sigma I - A)^{-1} is a positive matrix: the iterate stays
    positive and converges to the P-F vector, periodic matrices included.
    While sigma is far above rho a solve can change the ratio of two entries
    of v by at most a factor of two, so the iteration starts from A1 rather
    than from the uniform vector: that one power step already carries most of
    the scale of a badly scaled P-F vector.
    The loop stops once the ratio spread times max(v)/min(v) is within
    ``tol * max(1, sigma)`` (that product bounds the residual of v rescaled
    to nu'v = 1), once sigma stops falling (rounding floor), or after
    ``MAX_ITERS`` solves.
    """
    eye = np.eye(a.shape[0])
    v = a.sum(axis=1)  # A1: positive, since no row of an irreducible A is zero
    v /= v.sum()
    sigma_prev = math.inf
    for k in range(1, MAX_ITERS + 1):
        ratio = (a @ v) / v
        sigma = float(ratio.max())
        spread = (sigma - float(ratio.min())) * float(v.max() / v.min())
        if spread <= tol * max(1.0, sigma) or sigma >= sigma_prev:
            return v, k
        sigma_prev = sigma
        try:
            w = np.linalg.solve(sigma * eye - a, v)
        except np.linalg.LinAlgError:  # singular shift: sigma is rho exactly
            return v, k
        w /= w.sum()
        if not np.all(w > 0):  # rounding broke positivity; keep the last iterate
            return v, k
        v = w
    return v, MAX_ITERS


def pf_decompose(m: np.ndarray, tol: float = DEFAULT_TOL) -> PFData:
    """P-F triple of an irreducible nonnegative matrix by shift-and-invert.

    Each eigenvector comes from Noda's inverse iteration with
    Collatz-Wielandt shifts (``_pf_vector``), on M for h and on M' for nu;
    a few LU solves per side suffice at any size.  The eigenvalue comes from
    the two-sided Rayleigh quotient.  Residuals are measured in the infinity
    norm and must end below ``tol * max(1, rho)``, else NoConvergenceError.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not is_irreducible(m):
        raise ValueError("matrix is reducible")
    n = m.shape[0]
    if n == 1:
        one = np.ones(1)
        return PFData(rho=float(m[0, 0]), h=one, nu=one.copy(),
                      residual_right=0.0, residual_left=0.0)

    h, iters_r = _pf_vector(m, tol)
    nu, iters_l = _pf_vector(m.T, tol)
    rho = float((nu @ m @ h) / (nu @ h))
    h_out = h / (nu @ h)
    res_r = float(np.max(np.abs(m @ h_out - rho * h_out)))
    res_l = float(np.max(np.abs(nu @ m - rho * nu)))
    if max(res_r, res_l) <= tol * max(1.0, abs(rho)):
        return PFData(rho=rho, h=h_out, nu=nu,
                      residual_right=res_r, residual_left=res_l)
    raise NoConvergenceError(max(iters_r, iters_l))


def family_pf(family, tol: float = DEFAULT_TOL) -> dict[int, PFData]:
    """P-F data for every matrix in a MeanMatrixFamily, keyed by delay."""
    return {d: pf_decompose(mat, tol) for d, mat in family.items()}


@dataclass(frozen=True)
class SharedPFReport:
    shared: bool
    h: np.ndarray | None
    nu: np.ndarray | None
    per_delay_rho: dict[int, float]
    max_deviation: float
    tolerance: float
    pf: dict[int, PFData] = field(repr=False)  # per delay, solved at pf_tol


def shared_pf_check(family, tol: float = SHARING_TOL,
                    pf_tol: float = DEFAULT_TOL) -> SharedPFReport:
    """Decide whether all matrices in the family share P-F eigenvectors.

    Eigenvectors are compared after the nu'1 = 1, nu'h = 1 normalization; the
    family is shared when the worst infinity-norm discrepancy among the h_d
    and among the nu_d stays within ``tol``.  The reported common pair is the
    one computed at the smallest delay; no pair is reported when sharing
    fails.  The per-delay P-F data behind the test is reported as ``pf``.
    """
    pf = family_pf(family, pf_tol)
    base = family.delays[0]
    h0, nu0 = pf[base].h, pf[base].nu
    dev = max(max(float(np.max(np.abs(p.h - h0))), float(np.max(np.abs(p.nu - nu0))))
              for p in pf.values())
    shared = dev <= tol
    return SharedPFReport(
        shared=shared,
        h=h0 if shared else None,
        nu=nu0 if shared else None,
        per_delay_rho={d: pf[d].rho for d in family.delays},
        max_deviation=dev,
        tolerance=tol,
        pf=pf,
    )


def weight_ratio(v: np.ndarray) -> float:
    """max_i v_i / min_j v_j for a strictly positive vector; always >= 1."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise ValueError("vector must be strictly positive")
    return float(v.max() / v.min())


def normalized_word_product(family, word, pf: dict[int, PFData] | None = None) -> np.ndarray:
    """Product over the word (left to right) of rho_d^{-1} M_d.

    The empty word yields the identity.  When the family shares the right
    eigenvector h, the infinity norm of any such product is bounded by the
    weight ratio of h, irrespective of word length.
    """
    if pf is None:
        pf = family_pf(family)
    out = np.eye(family.n_types)
    for d in word:
        out = out @ (family.matrix(d) / pf[d].rho)
    return out


def _check_stochastic(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise SchemaError("P", "must be a square matrix")
    if np.any(p < 0):
        i = int(np.flatnonzero((p < 0).any(axis=1))[0])
        raise NegativeEntryError(f"P[{i}]", float(p[i].min()))
    sums = p.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-12)
    if bad.size:
        raise NotStochasticError(int(bad[0]), float(sums[bad[0]]))
    if not is_irreducible(p):
        raise SchemaError("P", "stochastic matrix must be irreducible")
    return p


def construct_shared_family(p: np.ndarray, h: np.ndarray, rhos: dict[int, float]):
    """Build a family sharing P-F eigenvectors from a stochastic matrix.

    M_d(i,j) = rho_d * P(i,j) * h(i)/h(j).  Every member then has right
    eigenvector h and left eigenvector proportional to pi(i)/h(i), where pi is
    the stationary distribution of P.
    """
    return _shared_family(p, h, "h", rhos, reverse=False)


def construct_shared_family_reversed(p: np.ndarray, nu: np.ndarray, rhos: dict[int, float]):
    """Time-reversed variant pinning the left eigenvector instead.

    M_d(i,j) = rho_d * (nu(j)/nu(i)) * P(j,i); then nu' M_d = rho_d nu' for
    every stochastic P, and the right eigenvectors coincide across the family
    whenever a single P is used for all delays.
    """
    return _shared_family(p, nu, "nu", rhos, reverse=True)


def _shared_family(p, vec, name: str, rhos: dict[int, float], reverse: bool):
    """M_d = rho_d * P * vec(i)/vec(j), or rho_d * vec(j)/vec(i) * P' reversed."""
    from .model import MeanMatrixFamily

    p = _check_stochastic(p)
    vec = np.asarray(vec, dtype=float)
    if np.any(vec <= 0):
        raise SchemaError(name, "must be strictly positive")
    if reverse:
        left, right = vec[None, :] / vec[:, None], p.T
    else:
        left, right = p, vec[:, None] / vec[None, :]
    delays = tuple(sorted(int(d) for d in rhos))
    mats = []
    for d in delays:
        r = float(rhos[d])
        if r <= 0:
            raise SchemaError(f"rhos.{d}", f"eigenvalue must be positive, got {r}")
        mats.append(r * left * right)
    return MeanMatrixFamily(delays, tuple(mats))


def commute_check(family, tol: float = 1e-10) -> bool:
    """True iff all pairs of family matrices commute within ``tol``
    (infinity norm of the commutator).  Commuting families always share
    P-F eigenvectors."""
    mats = list(family.matrices)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if matrix_inf_norm(mats[i] @ mats[j] - mats[j] @ mats[i]) > tol:
                return False
    return True
