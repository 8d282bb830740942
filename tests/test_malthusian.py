import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delayedbp
from delayedbp import malthusian
from delayedbp.cli import dispatch, model_to_config
from delayedbp import (BracketFailureError, LifetimeLaw, MeanMatrixFamily,
                       build_companion, evolve_means, mixture_matrix,
                       pf_decompose, solve_malthusian, stationary_check,
                       theorem_limits)
from conftest import (PHI, make_shared_family, poisson_model_from_family,
                      random_positive_family)


class TestSolveMalthusian:
    def test_single_delay_scalar(self):
        fam = MeanMatrixFamily((1,), (np.array([[1.7]]),))
        sol = solve_malthusian(fam)
        assert sol.rho_hat == pytest.approx(1.7, abs=1e-13)
        assert sol.theta == pytest.approx(math.log(1.7), abs=1e-13)
        assert sol.beta[1] == pytest.approx(1.0, abs=1e-12)
        assert sol.mu_beta == pytest.approx(1.0, abs=1e-12)

    def test_golden_ratio(self, fib_family):
        sol = solve_malthusian(fib_family)
        assert sol.rho_hat == pytest.approx(PHI, abs=1e-12)
        assert sol.theta == pytest.approx(math.log(PHI), abs=1e-12)
        assert sol.beta[1] == pytest.approx(1.0 / PHI, abs=1e-12)
        assert sol.beta[2] == pytest.approx(1.0 / PHI ** 2, abs=1e-12)
        assert sum(sol.beta.values()) == pytest.approx(1.0, abs=1e-12)
        assert sol.regime == "supercritical"
        assert not sol.warnings

    def test_beta_sums_to_one_when_shared(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            fam, _, _, _ = make_shared_family(rng, 3, (1, 2, 3))
            sol = solve_malthusian(fam)
            assert sum(sol.beta.values()) == pytest.approx(1.0, abs=1e-12)
            assert fam.delays[0] <= sol.mu_beta <= fam.delays[-1]

    def test_beta_warning_when_not_shared(self):
        fam = MeanMatrixFamily((1, 2), (np.array([[1.0, 1.0], [1.0, 1.0]]),
                                        np.array([[2.0, 1.0], [1.0, 1.0]])))
        sol = solve_malthusian(fam)
        assert any("not a probability vector" in w for w in sol.warnings)

    def test_growth_map_strictly_decreasing(self):
        rng = np.random.default_rng(71)
        fam = random_positive_family(rng, 3, (1, 2, 3))
        sol = solve_malthusian(fam)
        vals = [pf_decompose(mixture_matrix(fam, r)).rho
                for r in (sol.rho_hat / 2, sol.rho_hat, 2 * sol.rho_hat)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[1] == pytest.approx(1.0, abs=1e-11)

    def test_scaling_single_delay(self):
        fam1 = MeanMatrixFamily((1,), (np.array([[0.8]]),))
        fam2 = MeanMatrixFamily((1,), (np.array([[0.8 * 3.5]]),))
        s1, s2 = solve_malthusian(fam1), solve_malthusian(fam2)
        assert s2.rho_hat == pytest.approx(3.5 * s1.rho_hat, rel=1e-12)

    def test_regime_trichotomy_shared(self):
        rng = np.random.default_rng(73)
        cases = [((0.3, 0.3), "subcritical"),
                 ((0.4, 0.6), "critical"),
                 ((0.9, 0.8), "supercritical")]
        for rho_values, expected in cases:
            fam, _, _, _ = make_shared_family(rng, 2, (1, 2), rho_values=rho_values)
            sol = solve_malthusian(fam)
            assert sol.regime == expected
            if expected == "supercritical":
                assert sol.theta > 0
            elif expected == "subcritical":
                assert sol.theta < 0

    def test_bracket_failure(self):
        fam = MeanMatrixFamily((1,), (np.array([[1e12]]),))
        with pytest.raises(BracketFailureError):
            solve_malthusian(fam)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30),
           st.sets(st.integers(1, 4), min_size=1, max_size=4),
           st.floats(0.2, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_companion_eigvals(self, seed, n, delays, scale):
        rng = np.random.default_rng(seed)
        fam = random_positive_family(rng, n, tuple(sorted(delays)), scale=scale)
        sol = solve_malthusian(fam)
        radius = float(np.max(np.abs(np.linalg.eigvals(build_companion(fam).matrix))))
        assert sol.rho_hat == pytest.approx(radius, rel=1e-12)

    def test_newton_needs_few_pf_solves(self, monkeypatch):
        # a bisection fallback would take ~60 solves per root
        calls = []
        real = malthusian.pf_decompose

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(malthusian, "pf_decompose", counting)
        rng = np.random.default_rng(89)
        for k in range(40):
            n = int(rng.integers(1, 9))
            delays = tuple(sorted(rng.choice(np.arange(1, 6), size=int(rng.integers(1, 5)),
                                             replace=False).tolist()))
            if k % 2:
                fam = random_positive_family(rng, n, delays,
                                             scale=float(rng.uniform(0.2, 5.0)))
            else:
                fam, _, _, _ = make_shared_family(rng, n, delays,
                                                  mix=float(rng.uniform(0.01, 1.0)))
            calls.clear()
            solve_malthusian(fam)
            assert len(calls) <= 20


class TestCompanion:
    def test_fibonacci_block_structure(self, fib_family):
        comp = build_companion(fib_family)
        assert comp.matrix.tolist() == [[1.0, 1.0], [1.0, 0.0]]
        assert comp.index == ((1, 0), (2, 0))
        assert comp.pf.rho == pytest.approx(PHI, abs=1e-12)

    def test_single_delay_collapses(self):
        m = np.array([[0.3, 0.9], [0.4, 0.2]])
        fam = MeanMatrixFamily((1,), (m,))
        comp = build_companion(fam)
        assert np.array_equal(comp.matrix, m)

    def test_two_type_block_layout(self):
        m1 = np.array([[0.1, 0.2], [0.3, 0.4]])
        m3 = np.array([[0.5, 0.6], [0.7, 0.8]])
        fam = MeanMatrixFamily((1, 3), (m1, m3))
        comp = build_companion(fam)
        tm = comp.matrix
        n = 2
        # age advance: (d-1, j) -> (d, j)
        for d in (2, 3):
            for j in range(n):
                assert tm[(d - 2) * n + j, (d - 1) * n + j] == 1.0
        # reproduction: (e, i) -> (1, j) carries M_e(i, j)
        for i in range(n):
            for j in range(n):
                assert tm[i, j] == m1[i, j]
                assert tm[2 * n + i, j] == m3[i, j]
        # everything else zero
        assert np.count_nonzero(tm) == 2 * n + 2 * n * n

    def test_companion_matches_root_on_random_families(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(2, 5))
            delays = tuple(sorted(rng.choice(np.arange(1, 5), size=k, replace=False).tolist()))
            fam = random_positive_family(rng, n, delays, scale=float(rng.uniform(0.5, 2.0)))
            sol = solve_malthusian(fam)
            assert sol.companion_residual <= 1e-9


def _critical_limit(model, fam):
    """The renewal limit of E[X(s)], which is unweighted when theta = 0."""
    return theorem_limits(model, fam, solve_malthusian(fam)).limit_x


class TestCriticalLimit:
    def test_trivial_single_delay(self):
        fam = MeanMatrixFamily((1,), (np.array([[1.0]]),))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)))
        limit = _critical_limit(model, fam)
        assert limit == pytest.approx([1.0], abs=1e-10)

    def test_renewal_long_run_value(self):
        # one type, delays {1, 2}, both means 1/2: theta = 0, limit = 1/mu = 2/3
        fam = MeanMatrixFamily((1, 2), (np.array([[0.5]]), np.array([[0.5]])))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)))
        limit = _critical_limit(model, fam)
        assert limit == pytest.approx([2.0 / 3.0], abs=1e-12)
        traj = evolve_means(model, fam, 200)
        assert traj.ex[200] == pytest.approx(limit, abs=1e-6)

    def test_two_type_critical_family(self):
        rng = np.random.default_rng(83)
        fam, _, _, _ = make_shared_family(rng, 2, (1, 2), rho_values=(0.4, 0.6))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)))
        limit = _critical_limit(model, fam)
        traj = evolve_means(model, fam, 200)
        assert np.max(np.abs(traj.ex[200] - limit)) <= 1e-6


class TestCompanionCertificate:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5),
           st.sets(st.integers(1, 40), min_size=1, max_size=4),
           st.booleans(), st.floats(0.2, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_dense_radius_within_bound(self, seed, n, delays, shared, scale):
        rng = np.random.default_rng(seed)
        delays = tuple(sorted(delays))
        if shared:
            fam, _, _, _ = make_shared_family(rng, n, delays, mix=float(rng.uniform(0.05, 1.0)))
        else:
            fam = random_positive_family(rng, n, delays, scale=scale)
        sol = solve_malthusian(fam)
        radius = float(np.max(np.abs(np.linalg.eigvals(build_companion(fam).matrix))))
        assert abs(radius - sol.rho_hat) <= sol.companion_residual + 1e-13 * sol.rho_hat
        assert sol.companion_residual <= 1e-9 * sol.rho_hat

    def test_pair_is_the_mixture_pf_pair(self):
        rng = np.random.default_rng(97)
        fam = random_positive_family(rng, 4, (1, 3, 7))
        sol = solve_malthusian(fam)
        mix = mixture_matrix(fam, sol.rho_hat)
        assert np.max(np.abs(mix @ sol.h - sol.h)) <= 1e-12
        assert np.max(np.abs(sol.nu @ mix - sol.nu)) <= 1e-12
        assert sol.nu.sum() == pytest.approx(1.0, abs=1e-15)
        assert sol.nu @ sol.h == pytest.approx(1.0, abs=1e-14)

    def test_no_dense_companion_on_the_solve_path(self, monkeypatch, tmp_path, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the dense companion was built")

        monkeypatch.setattr(malthusian, "build_companion", refuse)
        monkeypatch.setattr(delayedbp, "build_companion", refuse)
        rng = np.random.default_rng(101)
        fam = random_positive_family(rng, 3, (1, 4))
        stationary_check(fam, solve_malthusian(fam))
        half = MeanMatrixFamily((1, 2), (np.array([[0.5]]), np.array([[0.5]])))
        _critical_limit(poisson_model_from_family(half, LifetimeLaw(pmf=(0.0, 1.0))), half)

        fam, _, _, _ = make_shared_family(rng, 3, (1, 2, 5))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)))
        path = tmp_path / "shared.json"
        path.write_text(json.dumps(model_to_config(model)))
        for argv in (["validate"], ["spectral"], ["malthusian"], ["evolve", "--horizon", "30"],
                     ["limits"], ["paths", "--s", "5", "--samples", "50", "--seed", "1"],
                     ["simulate", "--horizon", "5", "--replicas", "3", "--seed", "1"]):
            assert dispatch([*argv, "--config", str(path)]) == 0
            assert capsys.readouterr().err == ""


def _dense_critical_limit(model, fam):
    """The critical limit from the dense companion's P-F pair."""
    comp = build_companion(fam)
    n, D = fam.n_types, fam.max_delay
    ex = evolve_means(model, fam, D - 1).ex
    zhat0 = np.concatenate([ex[D - d] for d in range(1, D + 1)])
    return float(zhat0 @ comp.pf.h) * comp.pf.nu[(D - 1) * n:]


def _critical_families():
    rng = np.random.default_rng(83)
    yield MeanMatrixFamily((1,), (np.array([[1.0]]),))
    yield MeanMatrixFamily((1, 2), (np.array([[0.5]]), np.array([[0.5]])))
    yield make_shared_family(rng, 2, (1, 2), rho_values=(0.4, 0.6))[0]
    yield make_shared_family(rng, 2, (1, 2), rho_values=(0.5, 0.5), mix=0.6)[0]
    yield make_shared_family(rng, 3, (2, 3, 7), rho_values=(0.2, 0.3, 0.5))[0]


@pytest.mark.parametrize("k", range(5))
def test_critical_limit_matches_dense_companion(k):
    fam = list(_critical_families())[k]
    model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)))
    limit = _critical_limit(model, fam)
    assert np.max(np.abs(limit - _dense_critical_limit(model, fam))) <= 1e-12
