import math
import time
from itertools import accumulate

import numpy as np
import pytest

from delayedbp import (DuplicateDelayError, HorizonTooLargeError, LifetimeLaw,
                       MeanMatrixFamily, ModelSpec, NegativeEntryError,
                       NonIrreducibleError, OffspringLaw, SchemaError, TailDivergesError,
                       censored_mean_matrices, death_prob_by_age, family_pf,
                       shared_pf_check, solve_malthusian, validate)
from delayedbp import malthusian as mal_mod, spectral as spec_mod
from delayedbp.cli import model_to_config, parse_config
from conftest import make_fibonacci_model

import json


def _one_type(delays, means=None):
    """A one-type model on ``delays``, with offspring at delay 1 unless given."""
    return ModelSpec(type_names=("a",), delays=delays,
                     offspring=OffspringLaw(kind="poisson", means=means or {1: [[0.5]]}),
                     lifetime=LifetimeLaw(pmf=(0.0, 1.0)))


class TestDelayFamily:
    """The delay rule, held by ModelSpec and MeanMatrixFamily: integers in
    [1, 2^53], at least one, no duplicate, stored sorted."""

    def test_sorted_and_properties(self):
        model = _one_type((3, 1, 2), {d: [[0.3]] for d in (1, 2, 3)})
        assert model.delays == (1, 2, 3)
        assert censored_mean_matrices(model).max_delay == 3
        byname = {c.name: c for c in validate(model).checks}
        assert byname["delay gcd"].detail == "gcd([1, 2, 3]) = 1"

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateDelayError):
            _one_type((2, 2), {2: [[0.5]]})
        with pytest.raises(DuplicateDelayError):
            MeanMatrixFamily((2, 2), (np.array([[0.5]]),) * 2)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            _one_type((0, 1))

    def test_delays_past_two_to_the_53_rejected(self):
        # every weight e^{-theta d} takes d as a double, exact up to 2^53
        assert _one_type((1, 2 ** 53), {1: [[0.5]], 2 ** 53: [[0.5]]}).delays[-1] == 2 ** 53
        with pytest.raises(SchemaError, match=r"delays: .*2\^53"):
            _one_type((1, 2 ** 53 + 1))

    def test_single_delay_is_ordinary(self):
        # a lone delay {1} is an ordinary branching process: nothing to report
        model = _one_type((1,), {1: [[1.5]]})
        assert all(c.status == "pass" for c in validate(model).checks)

    def test_gcd_warns(self):
        # a gcd above 1 is legal; validate, not the constructor, reports it
        model = ModelSpec(type_names=("a",), delays=(2, 4),
                          offspring=OffspringLaw(kind="poisson", means={2: [[0.5]], 4: [[0.5]]}),
                          lifetime=LifetimeLaw(pmf=(0.0, 0.0, 0.0, 0.0, 1.0)))
        byname = {c.name: c for c in validate(model).checks}
        assert (byname["delay gcd"].status, byname["delay gcd"].detail) == ("warn", "gcd([2, 4]) = 2")

    @pytest.mark.parametrize("delays", [(1.5, 2), (1, float("nan")), (1, float("inf")), ("1",)])
    def test_non_integer_rejected(self, delays):
        # the rule runs before any other check of the model
        with pytest.raises(SchemaError) as exc:
            _one_type(delays)
        assert exc.value.field == "delays"


class TestLifetimeLaw:
    def test_survival_finite(self):
        lt = LifetimeLaw(pmf=(0.2, 0.3, 0.5))
        s0, s1, s2, s10 = lt.weighted_survival(1.0, 0.0, (0, 1, 2, 10))
        assert s0 == pytest.approx(0.8, abs=1e-15)
        assert s1 == pytest.approx(0.5, abs=1e-15)
        assert s2 == 0.0
        assert s10 == 0.0

    def test_geometric_tail(self):
        # half the mass at 0, the rest geometric with ratio 1/2 beyond 0
        lt = LifetimeLaw(pmf=(0.5,), tail_ratio=0.5)
        for c, f in enumerate(lt.weighted_survival(1.0, 0.0, range(6))):
            assert f == pytest.approx(0.5 ** (c + 1), rel=1e-14)
        assert lt.tables(4)[0][3] == pytest.approx(0.5 * 0.25 * 0.5, rel=1e-14)
        assert lt.weighted_survival_series(0.0) == pytest.approx(1.0, rel=1e-14)  # E[L]

    def test_series_at_zero_theta_is_mean(self):
        lt = LifetimeLaw(pmf=(0.1, 0.2, 0.3), tail_ratio=0.25)
        mean = math.fsum((np.arange(400) * lt.tables(400)[0]).tolist())
        assert lt.weighted_survival_series(0.0) == pytest.approx(mean, rel=1e-13)

    def test_series_divergence(self):
        lt = LifetimeLaw(pmf=(0.5,), tail_ratio=0.5)
        with pytest.raises(TailDivergesError):
            lt.weighted_survival_series(-1.0)

    def test_series_past_double_range_is_typed(self):
        # e^{-theta c} with theta = log 1e-8 overflowed w ** c for c >= 39
        lt = LifetimeLaw(pmf=(0.02,) * 50)
        with pytest.raises(HorizonTooLargeError) as info:
            lt.weighted_survival_series(math.log(1e-8))
        assert str(info.value) == ("the series sum_c P(L > c) e^{-theta c} passed the double "
                                   "range at age 49")
        surv = lt.weighted_survival(1.0, 0.0, range(49))
        assert lt.weighted_survival_series(math.log(1e-6)) == pytest.approx(
            math.fsum(f * 1e6 ** c for c, f in enumerate(surv)), rel=1e-13)

    def test_death_prob_zero_for_asymptomatic(self):
        _, death = LifetimeLaw(pmf=(0.5, 0.5), death_prob=0.7).tables(2)
        assert death[0] == 0.0
        assert death[1] == 0.7

    def test_death_prob_list_extends(self):
        _, death = LifetimeLaw(pmf=(0.0, 0.5, 0.5), death_prob=(0.1, 0.4)).tables(10)
        assert death[1] == 0.1
        assert death[2] == 0.4
        assert death[9] == 0.4

    def test_unnormalized_rejected(self):
        with pytest.raises(SchemaError) as exc:
            LifetimeLaw(pmf=(0.4, 0.5))
        assert exc.value.field == "lifetime.pmf"

    def test_near_normalized_has_no_mass_past_pmf(self):
        lt = LifetimeLaw(pmf=(0.5, 0.4999999999999))
        assert lt.weighted_survival(1.0, 0.0, (1, 2, 50)).tolist() == [0.0, 0.0, 0.0]
        assert lt.weighted_survival_series(0.0) == pytest.approx(0.5, rel=1e-12)  # E[L]
        assert lt.weighted_survival_series(-5.0) == 0.5  # only P(L > 0) at c = 0

    def test_all_asymptomatic_warns(self):
        # P(L > 0) = 0 is legal; validate reports it
        model = make_fibonacci_model(lifetime=LifetimeLaw(pmf=(1.0,)))
        byname = {c.name: c for c in validate(model).checks}
        assert byname["nontrivial lifetime"].status == "warn"
        assert byname["nontrivial lifetime"].detail == "P(L > 0) = 0.0"

    def test_entry_above_one_rejected(self):
        # (1e308, 1e308) would overflow math.fsum before the sum check
        for tail in (None, 0.5):
            with pytest.raises(ValueError, match="entry"):
                LifetimeLaw(pmf=(1e308, 1e308), tail_ratio=tail)


class TestDeathProbByAge:
    def test_no_deaths(self):
        lt = LifetimeLaw(pmf=(0.0, 0.0, 0.0, 1.0))
        for d in range(1, 6):
            assert death_prob_by_age(lt, d) == 0.0

    def test_certain_immediate_death(self):
        lt = LifetimeLaw(pmf=(0.0, 1.0), death_prob=1.0)
        assert death_prob_by_age(lt, 1) == 1.0

    def test_mixed_lifetimes(self):
        # P(L=1)=0.5, P(L=3)=0.5, constant death prob 0.4: only l=1 counts at d=2
        lt = LifetimeLaw(pmf=(0.0, 0.5, 0.0, 0.5), death_prob=0.4)
        assert death_prob_by_age(lt, 2) == pytest.approx(0.2, abs=1e-15)

    def test_monotone_in_age(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pmf = rng.dirichlet(np.ones(5))
            lt = LifetimeLaw(pmf=tuple(pmf), death_prob=float(rng.uniform(0, 1)))
            vals = [death_prob_by_age(lt, d) for d in range(1, 8)]
            assert all(0.0 <= a <= b <= 1.0 for a, b in zip(vals, vals[1:]))

    def test_uses_tail_mass(self):
        lt = LifetimeLaw(pmf=(0.5,), tail_ratio=0.5, death_prob=1.0)
        # P(L <= 3, death) = P(1<=L<=3) = 0.25 + 0.125 + 0.0625
        assert death_prob_by_age(lt, 3) == pytest.approx(0.4375, rel=1e-14)

    @staticmethod
    def _termwise(lt, d):
        pmf, death = lt.tables(d + 1)
        return math.fsum((pmf[1:] * death[1:]).tolist())

    def test_closed_form_tail_matches_termwise_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            k = int(rng.integers(1, 6))
            pmf = rng.dirichlet(np.ones(k + 1))[:k] * rng.uniform(0.3, 1.0)
            dp = (float(rng.uniform(0, 1)) if rng.random() < 0.5
                  else tuple(rng.uniform(0, 1, size=int(rng.integers(0, 6))).tolist()))
            lt = LifetimeLaw(pmf=tuple(pmf), tail_ratio=float(rng.uniform(0.0, 0.999)),
                             death_prob=dp)
            for d in (1, 5, 69, 70, 71, 75, 80, 200, 1000, 5000):
                ref = self._termwise(lt, d)
                assert death_prob_by_age(lt, d) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_same_bits_below_cutoff(self):
        lt = LifetimeLaw(pmf=(0.1, 0.2, 0.3), tail_ratio=0.7, death_prob=(0.2, 0.5))
        for d in range(1, 68):
            assert death_prob_by_age(lt, d) == self._termwise(lt, d)

    def test_huge_delay_validates_fast(self):
        model = ModelSpec(
            type_names=("a",),
            delays=(1, 10 ** 6),
            offspring=OffspringLaw(kind="poisson", means={1: [[0.5]], 10 ** 6: [[0.5]]}),
            lifetime=LifetimeLaw(pmf=(0.2, 0.3), tail_ratio=0.9, death_prob=0.5))
        start = time.perf_counter()
        report = validate(model)
        assert time.perf_counter() - start < 0.1
        assert report.ok
        # all but P(L = 0) dies by age 10^6
        assert death_prob_by_age(model.lifetime, 10 ** 6) == pytest.approx(0.4, rel=1e-14)


_LIFETIMES = [
    ((0.2, 0.3, 0.5), None, 0.3),
    ((0.4, 0.6), None, (0.1, 0.2)),          # no tail, short death table
    ((0.1, 0.2, 0.3), 0.6, (0.1, 0.7, 0.2)),
    ((0.5,), 0.0, ()),
    ((0.0, 0.25), 0.95, 1.0),
]


class TestLifetimeTables:
    @pytest.mark.parametrize("pmf,tail,dp", _LIFETIMES)
    def test_tables_match_per_age_calls(self, pmf, tail, dp):
        # per age: the explicit pmf, then tail_mass (1 - q) q^(k-1) at L_max + k;
        # no death at l = 0, the death table's last entry repeats
        lt = LifetimeLaw(pmf=pmf, tail_ratio=tail, death_prob=dp)
        m, dps = len(pmf) - 1, (dp,) if isinstance(dp, float) else dp
        for ages in (1, 2, 3, 40):
            p, death = lt.tables(ages)
            assert p.shape == death.shape == (ages,)
            for l in range(ages):
                prob = (pmf[l] if l <= m else 0.0 if tail is None
                        else lt.tail_mass * (1.0 - tail) * tail ** (l - m - 1))
                assert p[l] == pytest.approx(prob, rel=1e-14, abs=0.0)
                assert death[l] == (dps[min(l, len(dps)) - 1] if l and dps else 0.0)

    @pytest.mark.parametrize("pmf,tail,dp", _LIFETIMES)
    def test_unweighted_rows_are_survival(self, pmf, tail, dp):
        lt = LifetimeLaw(pmf=pmf, tail_ratio=tail, death_prob=dp)
        # P(L > c): 1 - (the exactly rounded prefix sum) on the explicit pmf,
        # tail_mass q^(c - L_max) from L_max on
        m = len(pmf) - 1
        surv = [max(0.0, 1.0 - math.fsum(pmf[:c + 1])) if c < m
                else 0.0 if tail is None else lt.tail_mass * tail ** (c - m) for c in range(41)]
        rows = lt.weighted_survival(1.0, 0.0, range(41))
        assert [float(r) for r in rows] == surv
        x0 = np.array([0.0, 0.3, 7.0])
        assert np.array_equal(lt.weighted_survival(x0, 0.0, range(41)), [x0 * f for f in surv])

    def test_zero_tail_ratio_keeps_its_point_mass(self):
        # tail_ratio 0 puts all of the missing mass on L_max + 1
        lt = LifetimeLaw(pmf=(0.5,), tail_ratio=0.0, death_prob=1.0)
        assert lt.tables(3)[0].tolist() == [0.5, 0.5, 0.0]
        assert lt.weighted_survival(1.0, 0.0, range(3)).tolist() == [0.5, 0.0, 0.0]
        assert death_prob_by_age(lt, 1) == death_prob_by_age(lt, 100) == 0.5
        assert lt.weighted_survival_series(0.0) == 0.5  # E[L]

    def test_survival_head_is_summed_once(self, monkeypatch):
        # P(L > c) for c < L_max comes from prefix sums taken once per law, so
        # rows over S ages cost O(L_max + S), not O(L_max * S)
        import delayedbp.model as model_mod
        sums = []

        def counted(values):
            sums.append(1)
            return accumulate(values)

        monkeypatch.setattr(model_mod, "accumulate", counted)
        lt = LifetimeLaw(pmf=(1 / 2000,) * 2000)
        for theta in (0.0, 0.01, -0.01):
            lt.weighted_survival(1.0, theta, range(2001))
        lt.weighted_survival_series(0.0)
        assert len(sums) == 1

    def test_weighted_rows_overflow_only_past_double_range(self):
        # theta = log 0.1: P(L > c) e^{-theta c} = 0.5 * 0.9^(c-1) * 10^c
        # passes the double range at c = 324, and 1e-10 of it does not
        lt = LifetimeLaw(pmf=(0.0, 0.5), tail_ratio=0.9)
        theta = math.log(0.1)

        def exact(c, scale):
            return math.exp(math.log(scale) + math.log(0.5) + (c - 1) * math.log(0.9) - theta * c)

        rows = lt.weighted_survival(np.array([1e-10, 1.0, 0.0]), theta, range(320, 330))
        assert rows[:, 0] == pytest.approx([exact(c, 1e-10) for c in range(320, 330)], rel=1e-12)
        assert np.all(np.isinf(rows[4:, 1])) and np.all(np.isfinite(rows[:4, 1]))
        assert not np.any(rows[:, 2])

    def test_weighted_rows_lift_an_underflowed_tail(self):
        # P(L > c) = 0.5 * 1e-5^c is 0 in doubles from c = 65; e^{-theta c} lifts
        # it back into range, alone (theta = log 1e-3) or while it overflows
        # itself (theta = log 1e-5)
        lt = LifetimeLaw(pmf=(0.5,), tail_ratio=1e-5)
        assert lt.weighted_survival(1.0, 0.0, (70, 100)).tolist() == [0.0, 0.0]
        assert lt.weighted_survival(1.0, math.log(1e-3), (70,))[0] == pytest.approx(
            0.5e-140, rel=1e-12)
        assert lt.weighted_survival(1.0, math.log(1e-5), (100,))[0] == pytest.approx(
            0.5, rel=1e-12)

    def test_asymptomatic_rows(self):
        lt = LifetimeLaw(pmf=(0.25, 0.75))
        x0 = np.array([1e-40, 2.0])
        rows = lt.weighted_asymptomatic(x0, -2.0, range(400))
        assert np.array_equal(rows[:300], [x0 * (0.25 * math.exp(2.0 * c)) for c in range(300)])
        # e^{2c} overflows from c = 355 on, 1e-40 of it does not
        assert rows[399, 0] == pytest.approx(math.exp(math.log(0.25e-40) + 798.0), rel=1e-12)
        assert np.isinf(rows[399, 1])


class TestCensoredMeans:
    def test_no_censoring_keeps_raw_means(self):
        model = make_fibonacci_model()
        fam = censored_mean_matrices(model)
        assert fam.matrix(1)[0, 0] == 1.0
        assert fam.matrix(2)[0, 0] == 1.0
        assert fam.matrix(5)[0, 0] == 0.0  # outside the delay set

    def test_product_formula(self):
        # P(L <= 2, death) = 0.25 via P(L=1)=0.5 with death prob 1/2 at l=1
        lt = LifetimeLaw(pmf=(0.0, 0.5, 0.0, 0.5), death_prob=(0.5, 0.0, 0.0))
        model = ModelSpec(
            type_names=("a",),
            delays=(2,),
            offspring=OffspringLaw(kind="poisson", means={2: [[2.0]]}),
            lifetime=lt)
        fam = censored_mean_matrices(model)
        assert fam.matrix(2)[0, 0] == pytest.approx(1.5, abs=1e-15)

    def test_zero_matrix_is_reducible(self):
        # the family keeps the zero member; the P-F entries refuse it
        model = ModelSpec(
            type_names=("a",),
            delays=(1, 2),
            offspring=OffspringLaw(kind="poisson", means={1: [[1.0]], 2: [[0.0]]}),
            lifetime=LifetimeLaw(pmf=(0.0, 1.0)))
        fam = censored_mean_matrices(model)
        assert fam.matrix(2)[0, 0] == 0.0
        for solve in (family_pf, shared_pf_check, solve_malthusian):
            with pytest.raises(NonIrreducibleError) as exc:
                solve(fam)
            assert exc.value.delay == 2

    def test_death_probability_rounding_above_one_censors_to_zero(self):
        # the pmf sums to 1 + 1e-13, within the law's tolerance, so
        # P(L <= 3, death) rounds above one; the mean is zero, not negative
        model = ModelSpec(
            type_names=("a",),
            delays=(3,),
            offspring=OffspringLaw(kind="poisson", means={3: [[2.0]]}),
            lifetime=LifetimeLaw(pmf=(0.0, 0.5, 0.5000000000001), death_prob=1.0))
        assert death_prob_by_age(model.lifetime, 3) > 1.0
        assert censored_mean_matrices(model).matrix(3)[0, 0] == 0.0

    def test_censored_below_raw(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            pmf = rng.dirichlet(np.ones(4))
            lt = LifetimeLaw(pmf=tuple(pmf), death_prob=float(rng.uniform(0.1, 1)))
            means = {d: rng.uniform(0.1, 2.0, size=(2, 2)) for d in (1, 2, 3)}
            model = ModelSpec(type_names=("a", "b"),
                              delays=(1, 2, 3),
                              offspring=OffspringLaw(kind="poisson", means=means),
                              lifetime=lt)
            fam = censored_mean_matrices(model)
            for d in (1, 2, 3):
                assert np.all(fam.matrix(d) <= means[d] + 1e-15)

    def test_pmf_offspring_means(self):
        off = OffspringLaw(kind="pmf", pmfs={1: [[(0.25, 0.5, 0.25)]]})
        model = ModelSpec(type_names=("a",), delays=(1,), offspring=off,
                          lifetime=LifetimeLaw(pmf=(0.0, 1.0)))
        assert censored_mean_matrices(model).matrix(1)[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_pmf_entry_above_one_rejected(self):
        # (1e308, 1e308) would overflow math.fsum before the normalization check
        with pytest.raises(ValueError, match="entry"):
            OffspringLaw(kind="pmf", pmfs={1: [[(1e308, 1e308)]]})


class TestMeanMatrixFamily:
    def test_negative_rejected(self):
        with pytest.raises(NegativeEntryError):
            MeanMatrixFamily((1,), (np.array([[-1.0]]),))

    def test_reducible_rejected(self, monkeypatch):
        # a plain container: every P-F entry refuses the first reducible
        # member, delay 2 here, before any solve
        positive, reducible = np.ones((2, 2)), np.array([[1.0, 1.0], [0.0, 1.0]])
        fam = MeanMatrixFamily((1, 2, 3), (positive, reducible, reducible.T))
        assert np.array_equal(fam.matrix(2), reducible)
        solves = []
        monkeypatch.setattr(spec_mod, "_pf_solve", lambda *a: solves.append(a))
        monkeypatch.setattr(mal_mod, "_pf_solve", lambda *a: solves.append(a))
        for solve in (family_pf, shared_pf_check, solve_malthusian):
            with pytest.raises(NonIrreducibleError) as exc:
                solve(fam)
            assert exc.value.delay == 2
        assert solves == []

    def test_immutability(self, fib_family):
        with pytest.raises(ValueError):
            fib_family.matrices[0][0, 0] = 9.0

    @pytest.mark.parametrize("delays", [(0, 1), (-1, 1), (1, 10 ** 30), (2, 1), (1, 1.5)])
    def test_delay_rule_of_delay_family(self, delays):
        # integers in [1, 2^53], strictly increasing; the first three were
        # accepted, and then divided by zero, gave a meaningless root, or
        # passed the cap of e^{-theta d}
        with pytest.raises(SchemaError) as exc:
            MeanMatrixFamily(delays, (np.array([[0.5]]),) * 2)
        assert exc.value.field == "delays"


class TestModelSpec:
    def test_initial_vector(self):
        model = make_fibonacci_model(initial=(2.0,))
        assert model.initial_mean_vector().tolist() == [2.0]

    def test_initial_index_out_of_range(self):
        with pytest.raises(ValueError):
            make_fibonacci_model(initial=3)

    @pytest.mark.parametrize("initial", [(math.nan,), (math.inf,)])
    def test_initial_not_finite_rejected(self, initial):
        with pytest.raises(SchemaError) as exc:
            make_fibonacci_model(initial=initial)
        assert exc.value.field == "initial"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_poisson_mean_not_finite_rejected(self, bad):
        with pytest.raises(SchemaError) as exc:
            OffspringLaw(kind="poisson", means={1: [[1.0, 0.5], [0.5, bad]], 2: [[1.0, 1.0], [1.0, 1.0]]})
        assert exc.value.field == "offspring.means.1[1]"

    def test_missing_delay_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            ModelSpec(type_names=("a",),
                      delays=(1, 2),
                      offspring=OffspringLaw(kind="poisson", means={1: [[1.0]]}),
                      lifetime=LifetimeLaw(pmf=(0.0, 1.0)))


class TestValidate:
    def test_fibonacci_all_pass(self, fib_model):
        report = validate(fib_model)
        assert report.ok
        assert all(c.status == "pass" for c in report.checks)

    def test_gcd_warning(self):
        for delays, means, detail in [
            ((2, 4), [[1.0]], "gcd([2, 4]) = 2"),
            # gcd 1, but every cycle of the swap has even length
            ((1, 3), [[0.0, 0.5], [0.5, 0.0]], "gcd([1, 3]) = 1; period 2"),
        ]:
            model = ModelSpec(
                type_names=tuple("ab"[:len(means)]),
                delays=delays,
                offspring=OffspringLaw(kind="poisson", means={d: means for d in delays}),
                lifetime=LifetimeLaw(pmf=(0.0, 1.0)))
            report = validate(model)
            byname = {c.name: c for c in report.checks}
            assert (byname["delay gcd"].status, byname["delay gcd"].detail) == ("warn", detail)
            assert report.ok  # warnings do not fail validation

    def test_period_of_the_mixture_graph(self):
        # neither member is irreducible, but their mixture is, and its one
        # cycle 0 -(1)-> 1 -(3)-> 0 has length 4 although gcd([1, 3]) = 1
        model = ModelSpec(type_names=("a", "b"), delays=(1, 3),
                          offspring=OffspringLaw(kind="poisson", means={
                              1: [[0.0, 0.9], [0.0, 0.0]], 3: [[0.0, 0.0], [0.8, 0.0]]}),
                          lifetime=LifetimeLaw(pmf=(0.0, 1.0)))
        byname = {c.name: c for c in validate(model).checks}
        assert (byname["delay gcd"].status, byname["delay gcd"].detail) == (
            "warn", "gcd([1, 3]) = 1; period 4")
        # the mixture's graph is read from the signs, so no sum overflows
        big = ModelSpec(type_names=("a", "b"), delays=(1, 2),
                        offspring=OffspringLaw(kind="poisson", means={
                            1: [[0.0, 1e308], [0.0, 0.0]], 2: [[0.0, 1e308], [0.0, 0.0]]}),
                        lifetime=LifetimeLaw(pmf=(0.0, 1.0)))
        assert validate(big).checks[0].detail == "gcd([1, 2]) = 1"

    def test_lifetime_mass_passes(self):
        # LifetimeLaw owns the rule, so every law that builds passes
        for lt in (LifetimeLaw(pmf=(0.5, 0.4999999999999)), LifetimeLaw(pmf=(0.4,), tail_ratio=0.5)):
            byname = {c.name: c for c in validate(make_fibonacci_model(lifetime=lt)).checks}
            assert (byname["lifetime mass"].status, byname["lifetime mass"].detail) == (
                "pass", "P(L < inf) = 1.0")

    def test_check_strings(self):
        model = ModelSpec(
            type_names=("a",),
            delays=(1, 2),
            offspring=OffspringLaw(kind="pmf",
                                   pmfs={1: [[(0.5, 0.5)]], 2: [[(0.0, 1.0)]]}),
            lifetime=LifetimeLaw(pmf=(0.0, 0.0, 1.0), death_prob=1.0))
        report = validate(model)
        assert [(c.name, c.status, c.detail) for c in report.checks] == [
            ("delay gcd", "pass", "gcd([1, 2]) = 1"),
            ("lifetime mass", "pass", "P(L < inf) = 1.0"),
            ("nontrivial lifetime", "pass", "P(L > 0) = 1.0"),
            ("offspring pmf normalization", "pass", "all normalized"),
            ("irreducibility of M_1", "pass", "irreducible"),
            ("irreducibility of M_2", "fail", "reducible"),
        ]


class TestConfigRoundTrip:
    def test_poisson_round_trip(self, fib_model):
        text = json.dumps(model_to_config(fib_model))
        again = parse_config(text)
        f1 = censored_mean_matrices(fib_model)
        f2 = censored_mean_matrices(again)
        for d in f1.delays:
            assert np.array_equal(f1.matrix(d), f2.matrix(d))

    def test_full_featured_round_trip(self):
        rng = np.random.default_rng(3)
        means = {d: rng.uniform(0.05, 1.7, size=(3, 3)) for d in (1, 3)}
        model = ModelSpec(
            type_names=("u", "v", "w"),
            delays=(1, 3),
            offspring=OffspringLaw(kind="poisson", means=means),
            lifetime=LifetimeLaw(pmf=(0.1, 0.2, 0.3), tail_ratio=0.4,
                                 death_prob=(0.05, 0.1, 0.2)),
            initial=(1.0, 0.0, 2.0))
        again = parse_config(json.dumps(model_to_config(model)))
        f1 = censored_mean_matrices(model)
        f2 = censored_mean_matrices(again)
        for d in f1.delays:
            assert np.array_equal(f1.matrix(d), f2.matrix(d))

    def test_pmf_round_trip(self):
        model = ModelSpec(
            type_names=("a",),
            delays=(1, 2),
            offspring=OffspringLaw(kind="pmf",
                                   pmfs={1: [[(0.5, 0.5)]], 2: [[(0.25, 0.5, 0.25)]]}),
            lifetime=LifetimeLaw(pmf=(0.0, 1.0)))
        again = parse_config(json.dumps(model_to_config(model)))
        f1 = censored_mean_matrices(model)
        f2 = censored_mean_matrices(again)
        for d in f1.delays:
            assert np.array_equal(f1.matrix(d), f2.matrix(d))
