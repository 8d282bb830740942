import math
import time

import numpy as np
import pytest

from delayedbp import (DelayFamily, DuplicateDelayError, LifetimeLaw,
                       MeanMatrixFamily, ModelSpec, NegativeEntryError,
                       NonIrreducibleError, OffspringLaw, SchemaError, TailDivergesError,
                       censored_mean_matrices, death_prob_by_age, validate)
from delayedbp.cli import model_to_config, parse_config
from conftest import make_fibonacci_model

import json


class TestDelayFamily:
    def test_sorted_and_properties(self):
        fam = DelayFamily((3, 1, 2))
        assert fam.delays == (1, 2, 3)
        assert fam.max_delay == 3
        assert fam.gcd == 1

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateDelayError):
            DelayFamily((2, 2))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            DelayFamily((0, 1))

    def test_single_delay_is_ordinary(self):
        # a lone delay {1} is an ordinary branching process: nothing to report
        model = ModelSpec(type_names=("a",), delay_family=DelayFamily((1,)),
                          offspring=OffspringLaw(kind="poisson", means={1: [[1.5]]}),
                          lifetime=LifetimeLaw(pmf=(0.0, 1.0)))
        assert all(c.status == "pass" for c in validate(model).checks)

    def test_gcd_warns(self):
        # a gcd above 1 is legal; validate, not the constructor, reports it
        fam = DelayFamily((2, 4))
        assert fam.gcd == 2
        model = ModelSpec(type_names=("a",), delay_family=fam,
                          offspring=OffspringLaw(kind="poisson", means={2: [[0.5]], 4: [[0.5]]}),
                          lifetime=LifetimeLaw(pmf=(0.0, 0.0, 0.0, 0.0, 1.0)))
        byname = {c.name: c for c in validate(model).checks}
        assert (byname["delay gcd"].status, byname["delay gcd"].detail) == ("warn", "gcd([2, 4]) = 2")

    @pytest.mark.parametrize("delays", [(1.5, 2), (1, float("nan")), (1, float("inf")), ("1",)])
    def test_non_integer_rejected(self, delays):
        with pytest.raises(SchemaError) as exc:
            DelayFamily(delays)
        assert exc.value.field == "delays"


class TestLifetimeLaw:
    def test_survival_finite(self):
        lt = LifetimeLaw(pmf=(0.2, 0.3, 0.5))
        assert lt.survival(-1) == 1.0
        assert lt.survival(0) == pytest.approx(0.8, abs=1e-15)
        assert lt.survival(1) == pytest.approx(0.5, abs=1e-15)
        assert lt.survival(2) == 0.0
        assert lt.survival(10) == 0.0

    def test_geometric_tail(self):
        # half the mass at 0, the rest geometric with ratio 1/2 beyond 0
        lt = LifetimeLaw(pmf=(0.5,), tail_ratio=0.5)
        for c in range(6):
            assert lt.survival(c) == pytest.approx(0.5 ** (c + 1), rel=1e-14)
        assert lt.prob(3) == pytest.approx(0.5 * 0.25 * 0.5, rel=1e-14)
        assert lt.mean() == pytest.approx(1.0, rel=1e-14)

    def test_series_at_zero_theta_is_mean(self):
        lt = LifetimeLaw(pmf=(0.1, 0.2, 0.3), tail_ratio=0.25)
        assert lt.weighted_survival_series(0.0) == pytest.approx(lt.mean(), rel=1e-13)

    def test_series_divergence(self):
        lt = LifetimeLaw(pmf=(0.5,), tail_ratio=0.5)
        with pytest.raises(TailDivergesError):
            lt.weighted_survival_series(-1.0)

    def test_death_prob_zero_for_asymptomatic(self):
        lt = LifetimeLaw(pmf=(0.5, 0.5), death_prob=0.7)
        assert lt.death_prob_at(0) == 0.0
        assert lt.death_prob_at(1) == 0.7

    def test_death_prob_list_extends(self):
        lt = LifetimeLaw(pmf=(0.0, 0.5, 0.5), death_prob=(0.1, 0.4))
        assert lt.death_prob_at(1) == 0.1
        assert lt.death_prob_at(2) == 0.4
        assert lt.death_prob_at(9) == 0.4

    def test_unnormalized_rejected(self):
        with pytest.raises(SchemaError) as exc:
            LifetimeLaw(pmf=(0.4, 0.5))
        assert exc.value.field == "lifetime.pmf"

    def test_near_normalized_has_no_mass_past_pmf(self):
        lt = LifetimeLaw(pmf=(0.5, 0.4999999999999))
        assert [lt.survival(c) for c in (1, 2, 50)] == [0.0, 0.0, 0.0]
        assert lt.mean() == pytest.approx(0.5, rel=1e-12)
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
        return math.fsum(lt.prob(l) * lt.death_prob_at(l) for l in range(1, d + 1))

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
            delay_family=DelayFamily((1, 10 ** 6)),
            offspring=OffspringLaw(kind="poisson", means={1: [[0.5]], 10 ** 6: [[0.5]]}),
            lifetime=LifetimeLaw(pmf=(0.2, 0.3), tail_ratio=0.9, death_prob=0.5))
        start = time.perf_counter()
        report = validate(model)
        assert time.perf_counter() - start < 0.1
        assert report.ok
        # all but P(L = 0) dies by age 10^6
        assert death_prob_by_age(model.lifetime, 10 ** 6) == pytest.approx(0.4, rel=1e-14)


class TestLifetimeTables:
    @pytest.mark.parametrize("pmf,tail,dp", [
        ((0.2, 0.3, 0.5), None, 0.3),
        ((0.4, 0.6), None, (0.1, 0.2)),          # no tail, short death table
        ((0.1, 0.2, 0.3), 0.6, (0.1, 0.7, 0.2)),
        ((0.5,), 0.0, ()),
        ((0.0, 0.25), 0.95, 1.0),
    ])
    def test_tables_match_per_age_calls(self, pmf, tail, dp):
        lt = LifetimeLaw(pmf=pmf, tail_ratio=tail, death_prob=dp)
        for ages in (1, 2, 3, 40):
            p, death = lt.tables(ages)
            assert p.shape == death.shape == (ages,)
            for l in range(ages):
                assert p[l] == pytest.approx(lt.prob(l), rel=1e-14, abs=0.0)
                assert death[l] == lt.death_prob_at(l)


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
            delay_family=DelayFamily((2,)),
            offspring=OffspringLaw(kind="poisson", means={2: [[2.0]]}),
            lifetime=lt)
        fam = censored_mean_matrices(model)
        assert fam.matrix(2)[0, 0] == pytest.approx(1.5, abs=1e-15)

    def test_zero_matrix_is_reducible(self):
        model = ModelSpec(
            type_names=("a",),
            delay_family=DelayFamily((1, 2)),
            offspring=OffspringLaw(kind="poisson", means={1: [[1.0]], 2: [[0.0]]}),
            lifetime=LifetimeLaw(pmf=(0.0, 1.0)))
        with pytest.raises(NonIrreducibleError) as exc:
            censored_mean_matrices(model)
        assert exc.value.delay == 2

    def test_censored_below_raw(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            pmf = rng.dirichlet(np.ones(4))
            lt = LifetimeLaw(pmf=tuple(pmf), death_prob=float(rng.uniform(0.1, 1)))
            means = {d: rng.uniform(0.1, 2.0, size=(2, 2)) for d in (1, 2, 3)}
            model = ModelSpec(type_names=("a", "b"),
                              delay_family=DelayFamily((1, 2, 3)),
                              offspring=OffspringLaw(kind="poisson", means=means),
                              lifetime=lt)
            fam = censored_mean_matrices(model)
            for d in (1, 2, 3):
                assert np.all(fam.matrix(d) <= means[d] + 1e-15)

    def test_pmf_offspring_means(self):
        off = OffspringLaw(kind="pmf", pmfs={1: [[(0.25, 0.5, 0.25)]]})
        assert off.mean_matrix(1)[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_pmf_entry_above_one_rejected(self):
        # (1e308, 1e308) would overflow math.fsum before the normalization check
        with pytest.raises(ValueError, match="entry"):
            OffspringLaw(kind="pmf", pmfs={1: [[(1e308, 1e308)]]})


class TestMeanMatrixFamily:
    def test_negative_rejected(self):
        with pytest.raises(NegativeEntryError):
            MeanMatrixFamily((1,), (np.array([[-1.0]]),))

    def test_reducible_rejected(self):
        with pytest.raises(NonIrreducibleError):
            MeanMatrixFamily((1,), (np.array([[1.0, 1.0], [0.0, 1.0]]),))

    def test_immutability(self, fib_family):
        with pytest.raises(ValueError):
            fib_family.matrices[0][0, 0] = 9.0


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
                      delay_family=DelayFamily((1, 2)),
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
                delay_family=DelayFamily(delays),
                offspring=OffspringLaw(kind="poisson", means={d: means for d in delays}),
                lifetime=LifetimeLaw(pmf=(0.0, 1.0)))
            report = validate(model)
            byname = {c.name: c for c in report.checks}
            assert (byname["delay gcd"].status, byname["delay gcd"].detail) == ("warn", detail)
            assert report.ok  # warnings do not fail validation

    def test_lifetime_mass_passes(self):
        # LifetimeLaw owns the rule, so every law that builds passes
        for lt in (LifetimeLaw(pmf=(0.5, 0.4999999999999)), LifetimeLaw(pmf=(0.4,), tail_ratio=0.5)):
            byname = {c.name: c for c in validate(make_fibonacci_model(lifetime=lt)).checks}
            assert (byname["lifetime mass"].status, byname["lifetime mass"].detail) == (
                "pass", "P(L < inf) = 1.0")

    def test_check_strings(self):
        model = ModelSpec(
            type_names=("a",),
            delay_family=DelayFamily((1, 2)),
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
            delay_family=DelayFamily((1, 3)),
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
            delay_family=DelayFamily((1, 2)),
            offspring=OffspringLaw(kind="pmf",
                                   pmfs={1: [[(0.5, 0.5)]], 2: [[(0.25, 0.5, 0.25)]]}),
            lifetime=LifetimeLaw(pmf=(0.0, 1.0)))
        again = parse_config(json.dumps(model_to_config(model)))
        f1 = censored_mean_matrices(model)
        f2 = censored_mean_matrices(again)
        for d in f1.delays:
            assert np.array_equal(f1.matrix(d), f2.matrix(d))
