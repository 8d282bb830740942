import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayedbp import (MeanMatrixFamily, NoConvergenceError,
                       NotStochasticError, build_companion, commute_check,
                       construct_shared_family,
                       construct_shared_family_reversed, family_pf,
                       is_irreducible, normalized_word_product, period,
                       pf_decompose, shared_pf_check, weight_ratio)
from delayedbp.spectral import DEFAULT_TOL, matrix_inf_norm
from conftest import make_shared_family, random_stochastic


class TestIrreducibility:
    def test_positive_matrix(self):
        assert is_irreducible(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_upper_triangular(self):
        assert not is_irreducible(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_two_cycle(self):
        assert is_irreducible(np.array([[0.0, 2.0], [2.0, 0.0]]))

    def test_zero_scalar(self):
        assert not is_irreducible(np.array([[0.0]]))

    def test_positive_scalar(self):
        assert is_irreducible(np.array([[0.5]]))

    def test_block_diagonal(self):
        m = np.zeros((4, 4))
        m[:2, :2] = 1.0
        m[2:, 2:] = 1.0
        assert not is_irreducible(m)


def _companion_period(fam):
    """gcd of the k <= N with a closed walk of length k in the N-node
    companion graph: every simple cycle has length <= N, so this is the
    gcd of all cycle lengths."""
    adj = (build_companion(fam).matrix > 0).astype(np.int64)
    walk, g = np.eye(len(adj), dtype=np.int64), 0
    for k in range(1, len(adj) + 1):
        walk = np.minimum(walk @ adj, 1)
        if np.trace(walk):
            g = math.gcd(g, k)
    return g


class TestPeriod:
    @pytest.mark.parametrize("delays, mat, expected", [
        ((1, 2), [[1.0]], 1),
        ((2, 4), [[0.5]], 2),
        ((1, 3), [[0.0, 0.5], [0.5, 0.0]], 2),  # gcd(delays) = 1
        ((1, 2), [[0.0, 0.5], [0.5, 0.0]], 1),
        ((2, 5), [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], 3),
    ])
    def test_known_periods(self, delays, mat, expected):
        fam = MeanMatrixFamily(delays, tuple(np.array(mat) for _ in delays))
        assert period(fam) == expected

    def test_matches_companion_on_sparse_families(self):
        rng = np.random.default_rng(149)
        checked = periodic = 0
        while checked < 60:
            n = int(rng.integers(1, 5))
            delays = tuple(sorted(rng.choice(np.arange(1, 9), size=int(rng.integers(1, 4)),
                                             replace=False).tolist()))
            mats = tuple((rng.random((n, n)) < 0.35) * rng.uniform(0.2, 1.0, (n, n))
                         for _ in delays)
            if not all(is_irreducible(m) for m in mats):
                continue
            fam = MeanMatrixFamily(delays, mats)
            p = period(fam)
            assert p == _companion_period(fam), (delays, mats)
            checked += 1
            periodic += p > 1
        assert periodic >= 10


class TestPFDecompose:
    def test_symmetric_ones(self):
        pf = pf_decompose(np.ones((2, 2)))
        assert pf.rho == pytest.approx(2.0, abs=1e-12)
        assert pf.nu == pytest.approx([0.5, 0.5], abs=1e-12)
        assert pf.h == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_periodic_two_cycle(self):
        pf = pf_decompose(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert pf.rho == pytest.approx(2.0, abs=1e-12)
        assert pf.nu == pytest.approx([0.5, 0.5], abs=1e-12)
        assert pf.h == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_normalizations(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.uniform(0.1, 2.0, size=(4, 4))
            pf = pf_decompose(m)
            assert pf.nu.sum() == pytest.approx(1.0, abs=1e-12)
            assert pf.nu @ pf.h == pytest.approx(1.0, abs=1e-12)
            assert np.all(pf.h > 0) and np.all(pf.nu > 0)
            assert max(pf.residual_right, pf.residual_left) <= 1e-10

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = rng.uniform(0.05, 3.0, size=(4, 4))
            pf = pf_decompose(m)
            eigvals, eigvecs = np.linalg.eig(m)
            k = int(np.argmax(eigvals.real))
            assert abs(eigvals[k].imag) < 1e-9
            assert pf.rho == pytest.approx(float(eigvals[k].real), rel=1e-11)
            v = np.abs(eigvecs[:, k].real)
            assert pf.h / np.linalg.norm(pf.h) == pytest.approx(
                v / np.linalg.norm(v), abs=1e-9)

    def test_rho_within_row_sum_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = rng.uniform(0.01, 1.5, size=(3, 3))
            pf = pf_decompose(m)
            sums = m.sum(axis=1)
            assert sums.min() - 1e-10 <= pf.rho <= sums.max() + 1e-10

    @given(st.integers(0, 2000), st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_scaling_covariance(self, seed, c):
        m = np.random.default_rng(seed).uniform(0.1, 1.0, size=(3, 3))
        a, b = pf_decompose(m), pf_decompose(c * m)
        assert b.rho == pytest.approx(c * a.rho, rel=1e-10)
        assert b.h == pytest.approx(a.h, abs=1e-9)
        assert b.nu == pytest.approx(a.nu, abs=1e-9)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            pf_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_unreachable_tolerance_raises(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(NoConvergenceError, match="shift-and-invert") as info:
            pf_decompose(m, tol=1e-300)
        assert 1 <= info.value.iterations <= 50


def assert_matches_eigvals(m):
    """pf_decompose agrees with the dense spectral radius to 1e-12 relative,
    with positive normalized eigenvectors and its residual guarantee."""
    pf = pf_decompose(m)
    radius = float(np.max(np.abs(np.linalg.eigvals(m))))
    assert pf.rho == pytest.approx(radius, rel=1e-12)
    assert np.all(pf.h > 0) and np.all(pf.nu > 0)
    assert pf.nu.sum() == pytest.approx(1.0, abs=1e-12)
    assert pf.nu @ pf.h == pytest.approx(1.0, abs=1e-12)
    assert max(pf.residual_right, pf.residual_left) <= DEFAULT_TOL * max(1.0, pf.rho)


class TestPFOracle:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 60))
    @settings(max_examples=40, deadline=None)
    def test_dense(self, seed, n):
        rng = np.random.default_rng(seed)
        assert_matches_eigvals(rng.uniform(0.01, 2.0, size=(n, n)))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 60), st.floats(0.01, 0.2))
    @settings(max_examples=40, deadline=None)
    def test_slow_mixing_shared(self, seed, n, mix):
        # second eigenvalue of P is near 1 - mix: a small spectral gap
        fam, _, _, _ = make_shared_family(np.random.default_rng(seed), n, (1, 2),
                                          mix=mix)
        for mat in fam.matrices:
            assert_matches_eigvals(mat)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(2, 4),
           st.sets(st.integers(1, 4), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_periodic_companion(self, seed, n, g, steps):
        # delays with gcd g > 1 make the sparse companion matrix periodic
        rng = np.random.default_rng(seed)
        delays = tuple(sorted(g * k for k in steps))
        fam = MeanMatrixFamily(delays, tuple(rng.uniform(0.05, 1.0, size=(n, n))
                                             for _ in delays))
        assert_matches_eigvals(build_companion(fam).matrix)


class TestSharedCheck:
    def test_scaled_family_shares(self):
        m = np.array([[1.0, 2.0], [0.5, 1.0]])
        fam = MeanMatrixFamily((1, 2), (0.7 * m, 1.3 * m))
        rep = shared_pf_check(fam)
        assert rep.shared
        rho_m = pf_decompose(m).rho
        assert rep.per_delay_rho[1] == pytest.approx(0.7 * rho_m, rel=1e-10)
        assert rep.per_delay_rho[2] == pytest.approx(1.3 * rho_m, rel=1e-10)

    def test_matrix_and_square_share(self):
        m = np.array([[1.0, 1.0], [1.0, 0.0]])
        fam = MeanMatrixFamily((1, 2), (m, m @ m))
        assert shared_pf_check(fam).shared

    def test_counterexample(self):
        fam = MeanMatrixFamily((1, 2), (np.ones((2, 2)),
                                        np.array([[2.0, 1.0], [1.0, 1.0]])))
        rep = shared_pf_check(fam)
        assert not rep.shared
        assert rep.h is None and rep.nu is None

    def test_constructed_family_always_shares(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            fam, _, _, _ = make_shared_family(rng, 3, (1, 2, 3))
            assert shared_pf_check(fam).shared


class TestWeightRatio:
    def test_examples(self):
        assert weight_ratio(np.array([1.0, 1.0, 1.0])) == 1.0
        assert weight_ratio(np.array([2.0, 1.0])) == 2.0
        assert weight_ratio(np.array([3.0, 1.0, 2.0])) == 3.0

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=6))
    def test_at_least_one(self, vals):
        assert weight_ratio(np.array(vals)) >= 1.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            weight_ratio(np.array([1.0, 0.0]))


class TestWordProducts:
    def test_empty_word_is_identity(self, fib_family):
        assert np.array_equal(normalized_word_product(fib_family, ()), np.eye(1))

    def test_single_type_always_one(self, fib_family):
        rng = np.random.default_rng(2)
        word = tuple(rng.choice([1, 2], size=15))
        out = normalized_word_product(fib_family, word)
        assert out[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_right_shared_bound(self):
        # different stochastic kernels, common right eigenvector h only
        rng = np.random.default_rng(41)
        h = rng.uniform(0.5, 3.0, size=3)
        ratio = h[:, None] / h[None, :]
        mats, rhos = [], (0.6, 1.1, 0.9)
        for r in rhos:
            mats.append(r * random_stochastic(rng, 3) * ratio)
        fam = MeanMatrixFamily((1, 2, 3), tuple(mats))
        bound = weight_ratio(h) * (1 + 1e-9)
        pf = family_pf(fam)
        for _ in range(300):
            word = tuple(rng.choice([1, 2, 3], size=rng.integers(1, 21)))
            assert matrix_inf_norm(normalized_word_product(fam, word, pf)) <= bound

    def test_left_shared_dual_bound(self):
        # different stochastic kernels, common left eigenvector nu only
        rng = np.random.default_rng(43)
        nu = rng.uniform(0.5, 3.0, size=3)
        nu = nu / nu.sum()
        ratio = nu[None, :] / nu[:, None]
        mats = []
        for r in (0.8, 1.2):
            mats.append(r * ratio * random_stochastic(rng, 3).T)
        fam = MeanMatrixFamily((1, 2), tuple(mats))
        bound = weight_ratio(nu) * (1 + 1e-9)
        pf = family_pf(fam)
        for _ in range(300):
            word = tuple(rng.choice([1, 2], size=rng.integers(1, 21)))
            prod = normalized_word_product(fam, word, pf)
            assert matrix_inf_norm(prod.T) <= bound

    def test_long_runs_converge_to_rank_one(self):
        # deviation from h nu' decreases along runs and ends below 1e-6
        rng = np.random.default_rng(47)
        fam, _, _, _ = make_shared_family(rng, 3, (1, 2), mix=0.5)
        rep = shared_pf_check(fam)
        target = np.outer(rep.h, rep.nu)
        pf = family_pf(fam)
        prefix = (1, 2, 2)
        suffix = (2, 1)
        devs = []
        for k in (5, 10, 20, 40):
            word = prefix + (1,) * k + suffix
            devs.append(matrix_inf_norm(normalized_word_product(fam, word, pf) - target))
        assert devs[0] > devs[1] > devs[2] > devs[3]
        assert devs[-1] <= 1e-6


class TestConstructors:
    def test_forward_example(self):
        p = np.full((2, 2), 0.5)
        fam = construct_shared_family(p, np.array([2.0, 1.0]), {1: 3.0})
        m = fam.matrix(1)
        assert m == pytest.approx(np.array([[1.5, 3.0], [0.75, 1.5]]), abs=1e-15)
        assert m @ np.array([2.0, 1.0]) == pytest.approx([6.0, 3.0], abs=1e-14)
        nu = np.array([1.0 / 3.0, 2.0 / 3.0])
        assert nu @ m == pytest.approx(3.0 * nu, abs=1e-13)

    def test_forward_identity_case(self):
        p = np.array([[0.2, 0.8], [0.6, 0.4]])
        fam = construct_shared_family(p, np.ones(2), {1: 1.0})
        assert fam.matrix(1) == pytest.approx(p, abs=1e-15)

    def test_reversed_symmetric_uniform(self):
        p = np.array([[0.3, 0.7], [0.7, 0.3]])
        fam = construct_shared_family_reversed(p, np.array([0.5, 0.5]), {1: 2.0})
        assert fam.matrix(1) == pytest.approx(2.0 * p.T, abs=1e-15)

    def test_reversed_left_eigenvector(self):
        p = np.full((2, 2), 0.5)
        nu = np.array([1.0 / 3.0, 2.0 / 3.0])
        fam = construct_shared_family_reversed(p, nu, {1: 1.0})
        assert nu @ fam.matrix(1) == pytest.approx(nu, abs=1e-14)

    def test_reversed_passes_shared_check(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            p = random_stochastic(rng, 3)
            nu = rng.uniform(0.2, 2.0, size=3)
            rhos = {1: float(rng.uniform(0.3, 2.0)), 2: float(rng.uniform(0.3, 2.0))}
            fam = construct_shared_family_reversed(p, nu, rhos)
            assert shared_pf_check(fam).shared

    def test_forward_eigen_residual(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            fam, _, h, rhos = make_shared_family(rng, 4, (1, 2, 3))
            for d, r in rhos.items():
                res = np.max(np.abs(fam.matrix(d) @ h - r * h))
                assert res <= 1e-12 * max(1.0, r * h.max())

    def test_not_stochastic(self):
        with pytest.raises(NotStochasticError):
            construct_shared_family(np.array([[0.5, 0.6], [0.5, 0.5]]),
                                    np.ones(2), {1: 1.0})


class TestCommuteCheck:
    def test_scaled_pair(self):
        m = np.array([[1.0, 2.0], [0.5, 1.0]])
        assert commute_check(MeanMatrixFamily((1, 2), (m, 2.0 * m)))

    def test_matrix_and_square(self):
        m = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert commute_check(MeanMatrixFamily((1, 2), (m, m @ m)))

    def test_counterexample(self):
        fam = MeanMatrixFamily((1, 2), (np.ones((2, 2)),
                                        np.array([[2.0, 1.0], [1.0, 1.0]])))
        assert not commute_check(fam)

    def test_commuting_implies_shared(self):
        # polynomials in one irreducible matrix commute and must share
        rng = np.random.default_rng(61)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            m = rng.uniform(0.1, 1.0, size=(n, n))
            mats = []
            for _ in range(3):
                c = rng.uniform(0.05, 1.0, size=3)
                mats.append(c[0] * np.eye(n) + c[1] * m + c[2] * m @ m)
            fam = MeanMatrixFamily((1, 2, 3), tuple(mats))
            assert commute_check(fam, tol=1e-9)
            assert shared_pf_check(fam, tol=1e-8).shared
