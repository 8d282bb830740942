"""Shared fixtures and family builders for the test suite."""

import numpy as np
import pytest

from delayedbp import (LifetimeLaw, MeanMatrixFamily, ModelSpec,
                       OffspringLaw, censored_mean_matrices,
                       construct_shared_family)

PHI = (1.0 + 5.0 ** 0.5) / 2.0


def make_fibonacci_model(lifetime=None, initial=0):
    """1 type, delays {1, 2}, Poisson mean 1 at both ages, no deaths.

    Censored mean matrices are [[1]], [[1]], so E[X(s)] runs through the
    Fibonacci numbers and the growth rate is the golden ratio.
    """
    if lifetime is None:
        lifetime = LifetimeLaw(pmf=(0.0, 0.0, 0.0, 1.0))
    return ModelSpec(
        type_names=("a",),
        delays=(1, 2),
        offspring=OffspringLaw(kind="poisson", means={1: [[1.0]], 2: [[1.0]]}),
        lifetime=lifetime,
        initial=initial,
    )


@pytest.fixture
def fib_model():
    return make_fibonacci_model()


@pytest.fixture
def fib_family(fib_model):
    return censored_mean_matrices(fib_model)


def random_positive_family(rng, n, delays, scale=1.0):
    """Strictly positive (hence irreducible) matrices, entries O(scale/n)."""
    mats = tuple(rng.uniform(0.2, 1.0, size=(n, n)) * scale / n for _ in delays)
    return MeanMatrixFamily(tuple(delays), mats)


def random_stochastic(rng, n, mix=1.0):
    """Random stochastic matrix; mix < 1 pulls it toward the identity,
    slowing its mixing (useful when convergence must stay observable)."""
    p = rng.uniform(0.2, 1.0, size=(n, n))
    p /= p.sum(axis=1, keepdims=True)
    return (1.0 - mix) * np.eye(n) + mix * p


def make_shared_family(rng, n, delays, rho_values=None, mix=1.0):
    """Family sharing P-F eigenvectors via the stochastic-matrix construction.

    Returns (family, P, h, rhos).
    """
    p = random_stochastic(rng, n, mix)
    h = rng.uniform(0.5, 2.0, size=n)
    if rho_values is None:
        w = rng.uniform(0.5, 1.0, size=len(delays))
        rho_values = w / w.sum() * rng.uniform(0.8, 1.3)
    rhos = {d: float(r) for d, r in zip(delays, rho_values)}
    return construct_shared_family(p, h, rhos), p, h, rhos


def poisson_model_from_family(family, lifetime, type_names=None, initial=0):
    """Model whose censored mean matrices reproduce ``family`` exactly
    (requires a death-free lifetime law)."""
    n = family.n_types
    if type_names is None:
        type_names = tuple(f"t{i}" for i in range(n))
    return ModelSpec(
        type_names=tuple(type_names),
        delays=family.delays,
        offspring=OffspringLaw(
            kind="poisson",
            means={d: np.array(m) for d, m in family.items()}),
        lifetime=lifetime,
        initial=initial,
    )
