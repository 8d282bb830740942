import math

import numpy as np
import pytest

from delayedbp import (DegenerateDenominatorError, HorizonTooLargeError,
                       LifetimeLaw, MeanMatrixFamily, PeriodicFamilyError,
                       TailDivergesError, age_distribution, build_companion,
                       evolve_means, shared_pf_check, solve_malthusian,
                       stationary_check, theorem_limits, xi_by_enumeration, xi_kernel)
from conftest import (PHI, make_fibonacci_model, make_shared_family,
                      poisson_model_from_family, random_positive_family)
from delayedbp.model import censored_mean_matrices
from delayedbp.recursion import _window


class TestEvolveMeans:
    def test_fibonacci_sequence(self, fib_model, fib_family):
        traj = evolve_means(fib_model, fib_family, 10)
        assert traj.ex[:, 0].tolist() == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]

    def test_geometric_decay(self):
        fam = MeanMatrixFamily((1,), (np.array([[0.5]]),))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)))
        traj = evolve_means(model, fam, 20)
        assert traj.ex[:, 0] == pytest.approx([0.5 ** s for s in range(21)], rel=1e-14)

    def test_kernel_identity(self):
        rng = np.random.default_rng(89)
        for _ in range(5):
            fam = random_positive_family(rng, 3, (1, 2, 3))
            x0 = rng.uniform(0.0, 2.0, size=3)
            model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)),
                                              initial=tuple(x0))
            traj = evolve_means(model, fam, 12)
            for s in range(13):
                assert traj.ex[s] == pytest.approx(x0 @ xi_kernel(fam, s), rel=1e-12)

    def test_recursion_recomputable(self, fib_model, fib_family):
        traj = evolve_means(fib_model, fib_family, 30)
        x0 = fib_model.initial_mean_vector()
        for s in range(31):
            acc = x0 * (s == 0)
            for d, mat in fib_family.items():
                if s - d >= 0:
                    acc = acc + traj.ex[s - d] @ mat
            assert np.array_equal(acc, traj.ex[s])

    def test_matches_per_series_loop(self):
        # reference: each of the six series run as its own vector recursion;
        # stacking them changes only the BLAS call, so the bound is a few ulps
        # per step
        rng = np.random.default_rng(139)
        means = {d: rng.uniform(0.1, 0.5, size=(4, 4)) for d in (1, 2, 4)}
        from delayedbp import ModelSpec, OffspringLaw
        model = ModelSpec(type_names=("a", "b", "c", "d"),
                          delays=(1, 2, 4),
                          offspring=OffspringLaw(kind="poisson", means=means),
                          lifetime=LifetimeLaw(pmf=(0.2, 0.3, 0.2), tail_ratio=0.6,
                                               death_prob=0.1),
                          initial=(1.0, 0.0, 2.0, 0.5))
        fam = censored_mean_matrices(model)
        sol = solve_malthusian(fam)
        traj = evolve_means(model, fam, 80, sol)
        lt, x0, theta = model.lifetime, model.initial_mean_vector(), sol.theta
        surv = lt.weighted_survival(1.0, 0.0, range(81))
        sources = {
            "x": lambda s: x0 * (s == 0),
            "z": lambda s: x0 * surv[s],
            "y": lambda s: x0 * lt.pmf[0] * (s <= fam.max_delay),
        }
        for name, src in sources.items():
            for weighted in (False, True):
                ref = np.zeros((81, 4))
                for s in range(81):
                    ref[s] = src(s) * (math.exp(-theta * s) if weighted else 1.0)
                    for d, mat in fam.items():
                        if s >= d:
                            w = math.exp(-theta * d) if weighted else 1.0
                            ref[s] += ref[s - d] @ (w * mat)
                got = getattr(traj, ("w" if weighted else "e") + name)
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)

    def test_z_is_survival_convolution(self):
        rng = np.random.default_rng(97)
        lt = LifetimeLaw(pmf=(0.3, 0.3, 0.2, 0.2), death_prob=0.0)
        fam = random_positive_family(rng, 2, (1, 2))
        model = poisson_model_from_family(fam, lt)
        traj = evolve_means(model, fam, 25)
        surv = lt.weighted_survival(1.0, 0.0, range(26))
        for s in range(26):
            conv = sum(traj.ex[s - c] * surv[c] for c in range(s + 1))
            assert traj.ez[s] == pytest.approx(conv, rel=1e-12, abs=1e-14)

    def test_y_is_windowed_incidence(self):
        rng = np.random.default_rng(101)
        lt = LifetimeLaw(pmf=(0.4, 0.6))
        fam = random_positive_family(rng, 2, (1, 3))
        model = poisson_model_from_family(fam, lt)
        D = fam.max_delay
        traj = evolve_means(model, fam, 25)
        for s in range(26):
            window = sum(traj.ex[s - c] for c in range(min(s, D) + 1))
            assert traj.ey[s] == pytest.approx(lt.pmf[0] * window, rel=1e-12, abs=1e-14)

    def test_weighted_matches_rescaled(self, fib_model, fib_family):
        sol = solve_malthusian(fib_family)
        traj = evolve_means(fib_model, fib_family, 50, sol)
        for s in (0, 1, 7, 25, 50):
            w = math.exp(-sol.theta * s)
            assert traj.wx[s] == pytest.approx(traj.ex[s] * w, rel=1e-11)
            assert traj.wz[s] == pytest.approx(traj.ez[s] * w, rel=1e-11)

    def test_monotone_censoring(self):
        rng = np.random.default_rng(103)
        means = {d: rng.uniform(0.2, 1.0, size=(2, 2)) for d in (1, 2)}
        trajs = []
        for dp in (0.0, 0.3, 0.8):
            lt = LifetimeLaw(pmf=(0.2, 0.4, 0.4), death_prob=dp)
            model = poisson_model_from_family(
                MeanMatrixFamily((1, 2), (means[1], means[2])), lt)
            # rebuild with censoring applied through the model route
            from delayedbp import ModelSpec, OffspringLaw
            model = ModelSpec(type_names=("a", "b"),
                              delays=(1, 2),
                              offspring=OffspringLaw(kind="poisson", means=means),
                              lifetime=lt)
            fam = censored_mean_matrices(model)
            trajs.append(evolve_means(model, fam, 20))
        for lighter, heavier in zip(trajs, trajs[1:]):
            assert np.all(heavier.ex <= lighter.ex + 1e-12)
            assert np.all(heavier.ez <= lighter.ez + 1e-12)
            assert np.all(heavier.ey <= lighter.ey + 1e-12)

    def test_joint_renewal_matches_two_pass_bitwise(self):
        # reference: the raw and the weighted state renewed apart, the raw
        # through M_d from P(L > s) and P(L = 0), the weighted through the
        # solution's W_d from the lifetime's weighted rows; the joint
        # (raw, weighted) state must give the same bits
        from delayedbp.recursion import _renew_rows
        rng = np.random.default_rng(211)
        for _ in range(12):
            n = int(rng.integers(1, 7))
            delays = tuple(sorted(rng.choice(np.arange(1, 7), size=int(rng.integers(1, 4)),
                                             replace=False).tolist()))
            fam = random_positive_family(rng, n, delays, scale=float(rng.uniform(0.3, 1.5)))
            lt = LifetimeLaw(pmf=tuple(rng.uniform(0.0, 0.3, size=3)),
                             tail_ratio=float(rng.uniform(0.1, 0.9)))
            model = poisson_model_from_family(fam, lt, initial=tuple(rng.uniform(0.0, 2.0, n)))
            horizon = int(rng.integers(0, 120))
            sol = solve_malthusian(fam)
            traj = evolve_means(model, fam, horizon, sol)

            theta, x0 = sol.theta, model.initial_mean_vector()
            window = range(min(fam.max_delay, horizon) + 1)
            raw = np.zeros((horizon + 1, 3, n))
            wtd = np.zeros_like(raw)
            raw[0, 0] = wtd[0, 0] = x0
            raw[:, 1] = lt.weighted_survival(x0, 0.0, range(horizon + 1))
            for s in window:
                raw[s, 2] = x0 * lt.pmf[0]
            wtd[:, 1] = lt.weighted_survival(x0, theta, range(horizon + 1))
            wtd[:len(window), 2] = lt.weighted_asymptomatic(x0, theta, window)
            _renew_rows(list(fam.items()), raw)
            _renew_rows(list(sol.weighted.items()), wtd)
            for k, name in enumerate("xzy"):
                assert np.array_equal(getattr(traj, "e" + name), raw[:, k])
                assert np.array_equal(getattr(traj, "w" + name), wtd[:, k])

    def test_overflow_guard(self):
        fam = MeanMatrixFamily((1,), (np.array([[10.0]]),))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)))
        with pytest.raises(HorizonTooLargeError):
            evolve_means(model, fam, 350)

    def test_product_past_double_range_is_typed_without_warning(self):
        # E[X(34)] = 6.5e8^34 = 4e299 is under the limit, and its product
        # with M_1 passes the double range; pytest turns a RuntimeWarning
        # into a failure
        fam = MeanMatrixFamily((1,), (np.array([[6.5e8]]),))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)))
        with pytest.raises(HorizonTooLargeError) as info:
            evolve_means(model, fam, 40)
        assert info.value.s == 35

    def test_overflow_guard_reports_first_time(self):
        # 10.0**300 rounds to 1e300, so the first row past the limit is s = 300
        fam = MeanMatrixFamily((1,), (np.array([[10.0]]),))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)))
        with pytest.raises(HorizonTooLargeError) as info:
            evolve_means(model, fam, 350)
        assert info.value.s == 300
        assert str(info.value) == "mean trajectory exceeded 1e300 at time 300"

    @staticmethod
    def _growing_tail_model(initial):
        # theta = log(0.1), so exp(-theta s) P(L > s) grows like 9^s
        fam = MeanMatrixFamily((1,), (np.array([[0.1]]),))
        lt = LifetimeLaw(pmf=(0.0, 0.5), tail_ratio=0.9)
        return fam, poisson_model_from_family(fam, lt, initial=initial)

    def test_weighted_source_overflow_time(self):
        fam, model = self._growing_tail_model(0)
        with pytest.raises(HorizonTooLargeError) as info:
            evolve_means(model, fam, 400)
        assert info.value.s == 315

    def test_weighted_source_past_exp_range_is_typed(self):
        # exp(-theta s) P(L > s) leaves the double range near s = 323, before
        # 1e-10 times the weighted series passes 1e300; the error must name
        # the time the series itself passes the limit
        fam, model = self._growing_tail_model((1e-10,))
        with pytest.raises(HorizonTooLargeError) as info:
            evolve_means(model, fam, 400)
        theta = solve_malthusian(fam).theta
        w = math.exp(-theta) * 0.1  # weighted M_1, within rounding of 1

        def log_source(c):
            return math.log(0.5) + (c - 1) * math.log(0.9) - theta * c if c else 0.0

        def log_wz(s):  # wz[s] = 1e-10 * sum_c w^(s-c) * source(c), in log space
            logs = [log_source(c) + (s - c) * math.log(w) for c in range(s + 1)]
            top = max(logs)
            return math.log(1e-10) + top + math.log(math.fsum(math.exp(v - top) for v in logs))

        first = next(s for s in range(401) if log_wz(s) > math.log(1e300))
        assert info.value.s == first
        assert first > 323

    def test_zero_initial_never_overflows(self):
        fam, model = self._growing_tail_model((0.0,))
        traj = evolve_means(model, fam, 400)
        assert not np.any(traj.wz) and not np.any(np.isnan(traj.wz))

    def test_earlier_weighted_overflow_wins(self):
        # raw means decay, weighted ones overflow: the weighted time is reported
        fam = MeanMatrixFamily((1, 2), (np.array([[0.01]]), np.array([[0.001]])))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 0.5),
                                                           tail_ratio=0.95))
        with pytest.raises(HorizonTooLargeError) as info:
            evolve_means(model, fam, 400)
        assert info.value.s == 214


class TestXiKernel:
    def test_identity_at_zero(self, fib_family):
        assert np.array_equal(xi_kernel(fib_family, 0), np.eye(1))

    def test_fibonacci_composition_count(self, fib_family):
        assert xi_kernel(fib_family, 4)[0, 0] == pytest.approx(5.0, abs=1e-14)

    def test_recursion_recomputable(self):
        rng = np.random.default_rng(137)
        fam = random_positive_family(rng, 4, (1, 3, 4))
        seq = [np.eye(4)]
        for t in range(1, 16):
            acc = np.zeros((4, 4))
            for d, mat in fam.items():
                if t - d >= 0:
                    acc += seq[t - d] @ mat
            seq.append(acc)
        for t in (0, 1, 5, 15):
            assert np.array_equal(xi_kernel(fam, t), seq[t])

    def test_negative_time_rejected(self, fib_family):
        with pytest.raises(ValueError):
            xi_kernel(fib_family, -1)


class TestTheoremLimits:
    def test_fibonacci_x_limit(self, fib_model, fib_family):
        sol = solve_malthusian(fib_family)
        rep = theorem_limits(fib_model, fib_family, sol, horizon=80)
        assert rep.limit_x[0] == pytest.approx(PHI / math.sqrt(5.0), abs=1e-9)
        assert rep.empirical_gap["x"] <= 1e-9

    def test_fibonacci_z_limit_lifetime_three(self, fib_model, fib_family):
        # sum_{c=0}^{2} exp(-theta c) = 1 + 1/phi + 1/phi^2 = 2
        sol = solve_malthusian(fib_family)
        rep = theorem_limits(fib_model, fib_family, sol, horizon=80)
        assert rep.limit_z[0] == pytest.approx(2.0 / sol.mu_beta, abs=1e-12)
        assert rep.limit_z[0] == pytest.approx(1.4472135954999579, abs=1e-9)

    def test_fibonacci_all_asymptomatic(self, fib_family):
        # window sum over ages 0..2 is 1 + 1/phi + 1/phi^2 = 2, and the
        # trajectory (exact by the windowed-incidence identity) confirms it
        model = make_fibonacci_model(lifetime=LifetimeLaw(pmf=(1.0,)))
        sol = solve_malthusian(fib_family)
        rep = theorem_limits(model, fib_family, sol, horizon=80)
        assert rep.limit_y[0] == pytest.approx(2.0 / sol.mu_beta, abs=1e-12)
        assert rep.limit_y[0] == pytest.approx(1.4472135954999579, abs=1e-9)
        assert rep.empirical_gap["y"] <= 1e-9
        assert rep.limit_z[0] == 0.0
        assert rep.age_limit is None

    def test_non_shared_family_converges(self):
        # the renewal limit needs no shared eigenvectors: the trajectories of
        # families whose per-delay P-F vectors differ reach it
        rng = np.random.default_rng(137)
        fams = [MeanMatrixFamily((1, 2), (np.ones((2, 2)),
                                          np.array([[2.0, 1.0], [1.0, 1.0]])))]
        fams += [random_positive_family(rng, 4, delays) for delays in ((1, 3), (1, 2, 5), (2, 3))]
        for fam in fams:
            model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.1, 0.3, 0.6)), initial=1)
            assert not shared_pf_check(fam).shared
            rep = theorem_limits(model, fam, solve_malthusian(fam), horizon=600)
            assert max(rep.empirical_gap.values()) <= 1e-10
            assert np.all(rep.limit_x > 0.01)

    @pytest.mark.parametrize("seed", range(6))
    def test_shared_limit_is_the_papers_constant(self, seed):
        # g = x0'h / mu(beta) with the constructed (h, nu), nu ∝ pi / h
        rng = np.random.default_rng(seed)
        delays = ((1, 2), (1, 2, 3), (2, 3, 7))[seed % 3]
        fam, p, h, _ = make_shared_family(rng, 3, delays, mix=0.15)
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)), initial=1)
        w, v = np.linalg.eig(p.T)
        pi = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        nu = pi / h / np.sum(pi / h)
        h = h / (nu @ h)
        sol = solve_malthusian(fam)
        g = float(model.initial_mean_vector() @ h) / sol.mu_beta
        rep = theorem_limits(model, fam, sol, horizon=50)
        assert np.max(np.abs(rep.limit_x - g * nu) / (g * nu)) <= 1e-12
        assert np.max(np.abs(rep.type_limit - nu) / nu) <= 1e-12

    @pytest.mark.parametrize("delays, mat", [
        ((2, 4), [[0.5]]),
        ((1, 3), [[0.0, 0.5], [0.5, 0.0]]),  # gcd(delays) = 1, period 2
    ])
    def test_periodic_family(self, delays, mat):
        fam = MeanMatrixFamily(delays, tuple(np.array(mat) for _ in delays))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)))
        with pytest.raises(PeriodicFamilyError) as exc:
            theorem_limits(model, fam, solve_malthusian(fam))
        assert exc.value.period == 2

    def test_subcritical_tail_divergence(self):
        fam = MeanMatrixFamily((1,), (np.array([[0.4]]),))
        lt = LifetimeLaw(pmf=(0.2,), tail_ratio=0.5)  # 0.5 * e^{-theta} = 1.25
        model = poisson_model_from_family(fam, lt)
        sol = solve_malthusian(fam)
        with pytest.raises(TailDivergesError):
            theorem_limits(model, fam, sol)

    @pytest.mark.parametrize("theta", [0.7, 1e-3, 1e-9, 0.0, -1e-9, -1e-4, -0.01])
    def test_window_closed_form(self, theta):
        # lags past the cut are one geometric sum in closed form
        for D in (3, 65, 1000, 20000):
            ref = math.fsum(math.exp(-theta * c) for c in range(D + 1))
            assert _window(theta, D) == pytest.approx(ref, rel=1e-14)

    def test_window_past_double_range_is_typed(self):
        # e^{-theta D} stays finite here, but the window, about
        # e^{-theta D} / |theta| with theta = -7e-4, passes the double range
        fam = MeanMatrixFamily((1, 10 ** 6), (np.array([[0.5]]), np.array([[1e-307]])))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.5, 0.5)))
        with pytest.raises(HorizonTooLargeError) as info:
            theorem_limits(model, fam, solve_malthusian(fam), horizon=5)
        assert info.value.s == 10 ** 6
        assert str(info.value) == ("the Y window sum_{c<=D} e^{-theta c} passed the double "
                                   "range at lag 1000000")

    def test_weighted_gap_shrinks(self):
        rng = np.random.default_rng(107)
        fam, _, _, _ = make_shared_family(rng, 3, (1, 2), mix=0.6)
        lt = LifetimeLaw(pmf=(0.25, 0.25, 0.5), death_prob=0.0)
        model = poisson_model_from_family(fam, lt)
        sol = solve_malthusian(fam)
        rep_h = theorem_limits(model, fam, sol, horizon=50)
        rep_2h = theorem_limits(model, fam, sol, horizon=100)
        for key in ("x", "z", "y"):
            assert rep_2h.empirical_gap[key] < rep_h.empirical_gap[key]

    def test_type_proportions_converge(self):
        rng = np.random.default_rng(109)
        fam, _, _, _ = make_shared_family(rng, 3, (1, 2, 3))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)))
        sol = solve_malthusian(fam)
        nu = shared_pf_check(fam).nu
        traj = evolve_means(model, fam, 120, sol)
        props = traj.ex[120] / traj.ex[120].sum()
        assert props == pytest.approx(nu, abs=1e-9)


class TestAgeDistribution:
    def test_fibonacci_lifetime_three_limit(self, fib_model, fib_family):
        sol = solve_malthusian(fib_family)
        dist = age_distribution(fib_model, fib_family, 60)
        assert dist[:, 0] == pytest.approx([1.0 / PHI, 1.0 / PHI ** 2], abs=1e-9)
        rep = theorem_limits(fib_model, fib_family, sol, horizon=60)
        assert rep.age_limit == pytest.approx([1.0 / PHI, 1.0 / PHI ** 2], abs=1e-12)

    def test_single_delay_degenerate(self):
        fam = MeanMatrixFamily((1,), (np.array([[0.9]]),))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 0.5, 0.5)))
        dist = age_distribution(model, fam, 10)
        assert dist[:, 0] == pytest.approx([1.0], abs=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(113)
        fam, _, _, _ = make_shared_family(rng, 3, (1, 2, 3))
        lt = LifetimeLaw(pmf=(0.1, 0.2, 0.3, 0.4))
        model = poisson_model_from_family(fam, lt)
        dist = age_distribution(model, fam, 25)
        assert dist.sum(axis=0) == pytest.approx(np.ones(3), abs=1e-12)

    def test_converges_to_limit_column(self):
        rng = np.random.default_rng(127)
        fam, _, _, _ = make_shared_family(rng, 3, (1, 2))
        lt = LifetimeLaw(pmf=(0.1, 0.3, 0.2, 0.4))
        model = poisson_model_from_family(fam, lt)
        sol = solve_malthusian(fam)
        rep = theorem_limits(model, fam, sol, horizon=60)
        dist = age_distribution(model, fam, 60)
        for j in range(3):
            assert dist[:, j] == pytest.approx(rep.age_limit, abs=1e-6)

    def test_all_dead_by_reproduction_age(self):
        fam = MeanMatrixFamily((1, 2), (np.array([[0.7]]), np.array([[0.7]])))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)))
        with pytest.raises(DegenerateDenominatorError):
            age_distribution(model, fam, 30)

    def test_requires_s_beyond_max_delay(self, fib_model, fib_family):
        with pytest.raises(ValueError):
            age_distribution(fib_model, fib_family, 2)


class TestReducibleMembers:
    # no P-F solve reads the members alone, so a family whose members are
    # each reducible, with an irreducible sum, answers
    @pytest.fixture
    def family(self):
        return MeanMatrixFamily((1, 2), (np.array([[0.5, 0.8], [0.0, 0.6]]),
                                         np.array([[0.3, 0.0], [0.7, 0.4]])))

    def test_kernel_matches_enumeration(self, family):
        total, _ = xi_by_enumeration(family, 9)
        assert np.allclose(xi_kernel(family, 9), total, rtol=1e-13, atol=0)

    def test_companion_root_zeroes_the_mixture(self, family):
        rho = build_companion(family).pf.rho
        m1, m2 = family.matrices
        assert max(abs(np.linalg.eigvals(m1 / rho + m2 / rho ** 2))) == pytest.approx(1.0, abs=1e-12)

    def test_age_distribution(self, family):
        model = poisson_model_from_family(family, LifetimeLaw(pmf=(0.0, 0.0, 0.0, 1.0)))
        ages = age_distribution(model, family, 12)
        assert np.all(ages > 0)
        assert np.allclose(ages.sum(axis=0), 1.0, rtol=0, atol=1e-15)


class TestStationaryCheck:
    def test_fibonacci(self, fib_family):
        sol = solve_malthusian(fib_family)
        assert stationary_check(fib_family, sol) <= 1e-12

    def test_constructed_shared_family(self):
        rng = np.random.default_rng(131)
        for _ in range(5):
            fam, _, _, _ = make_shared_family(rng, 3, (1, 2, 3))
            sol = solve_malthusian(fam)
            assert stationary_check(fam, sol) <= 1e-10

    def test_large_growth_rate_stays_in_range(self):
        # rho_hat = 8e8 and D = 17: rho_hat^(2D) would pass the overflow guard
        fam = MeanMatrixFamily((1, 17), (np.array([[8e8]]), np.array([[1.0]])))
        sol = solve_malthusian(fam)
        assert stationary_check(fam, sol) <= 1e-12

    def test_non_shared_reports_value(self):
        # nu is the mixture's left vector at the root, so sharing is not needed
        fam = MeanMatrixFamily((1, 2), (np.ones((2, 2)),
                                        np.array([[2.0, 1.0], [1.0, 1.0]])))
        sol = solve_malthusian(fam)
        assert stationary_check(fam, sol) <= 1e-12

    @pytest.mark.parametrize("d_max, scale", [(200, 74.0), (40, 1.4e8)])
    def test_long_delay_stays_in_range(self, d_max, scale):
        # rho_hat^D is far past 1e300; the weighted window stays near nu
        rng = np.random.default_rng(139)
        fam = MeanMatrixFamily((1, d_max), (rng.uniform(0.2, 1.0, (3, 3)) * scale / 3,
                                            rng.uniform(0.2, 1.0, (3, 3))))
        sol = solve_malthusian(fam)
        assert sol.theta * d_max > math.log(1e300)
        assert stationary_check(fam, sol) <= 1e-12
