import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence
from hypothesis import given, settings
from hypothesis import strategies as st

from delayedbp import (CapExceededError, HorizonTooLargeError,
                       MeanMatrixFamily, StepCountVector, block_run_statistic,
                       enumerate_lambda, enumerate_words, has_kappa_run,
                       multinomial_size, run_fraction, solve_malthusian,
                       xi_by_enumeration, xi_by_sampling, xi_kernel)
from delayedbp import malthusian, paths, spectral
from delayedbp.paths import SAMPLING_BLOCK, _inverse_cdf
from conftest import make_shared_family, random_positive_family


class TestEnumerateLambda:
    def test_two_delays_span_four(self):
        ks = enumerate_lambda((1, 2), 4)
        assert {k.counts for k in ks} == {(4, 0), (2, 1), (0, 2)}
        assert [k.counts for k in ks] == sorted(k.counts for k in ks)

    def test_zero_span(self):
        ks = enumerate_lambda((1, 2), 0)
        assert [k.counts for k in ks] == [(0, 0)]

    def test_three_delays_span_six(self):
        assert len(enumerate_lambda((1, 2, 3), 6)) == 7

    def test_unsorted_delays_span_four(self):
        ks = enumerate_lambda((3, 1, 2), 4)
        assert [(k.delays, k.counts) for k in ks] == [
            ((1, 2, 3), (0, 2, 0)), ((1, 2, 3), (1, 0, 1)),
            ((1, 2, 3), (2, 1, 0)), ((1, 2, 3), (4, 0, 0))]

    @pytest.mark.parametrize("delays", [(1, 2, 3), (2, 5), (1, 3, 4, 7), (3, 4, 5, 6, 7),
                                        (7, 1, 4, 3), (5, 2)])
    def test_classes_ascend_lexicographically(self, delays):
        # the order the recursion emits, with or without the length filter
        for s in range(25):
            for r in (None, 4):
                ks = enumerate_lambda(delays, s, r=r)
                counts = [k.counts for k in ks]
                assert all(k.delays == tuple(sorted(delays)) for k in ks)
                assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_length_filter(self):
        ks = enumerate_lambda((1, 2), 6, r=4)
        assert [k.counts for k in ks] == [(2, 2)]
        assert all(k.r == 4 and k.total == 6 for k in ks)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_lambda((1, 2), 100)

    def test_membership_bounds(self):
        for s in range(1, 15):
            for k in enumerate_lambda((1, 2, 3), s):
                assert math.ceil(s / 3) <= k.r <= s


class TestMultinomialSize:
    def test_examples(self):
        assert multinomial_size(StepCountVector((1, 2), (2, 1))) == 3
        assert multinomial_size(StepCountVector((1, 2, 3), (0, 0, 0))) == 1
        assert multinomial_size(StepCountVector((1, 2, 3), (3, 2, 1))) == 60

    def test_exact_beyond_float(self):
        k = StepCountVector((1, 2), (30, 30))
        assert multinomial_size(k) == math.comb(60, 30)


class TestEnumerateWords:
    def test_small_class(self):
        words = enumerate_words(StepCountVector((1, 2), (2, 1)))
        assert set(map(tuple, words.tolist())) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}

    def test_singleton(self):
        assert enumerate_words(StepCountVector((1, 2), (1, 0))).tolist() == [[1]]

    @given(st.lists(st.integers(0, 4), min_size=2, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_count_matches_size(self, counts):
        k = StepCountVector(tuple(range(1, len(counts) + 1)), tuple(counts))
        words = enumerate_words(k)
        assert len(words) == multinomial_size(k)
        assert len(set(map(tuple, words.tolist()))) == len(words)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=3), st.sampled_from([1, 3, 300]))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_the_sorted_permutations(self, counts, step):
        delays = tuple(step * (i + 1) for i in range(len(counts)))
        words = enumerate_words(StepCountVector(delays, tuple(counts)))
        # the distinct permutations of the multiset; filtering all words of
        # length r stays fast where itertools.permutations would take 12! steps
        arrangements = sorted(w for w in itertools.product(delays, repeat=sum(counts))
                              if all(w.count(d) == c for d, c in zip(delays, counts)))
        assert words.shape == (len(arrangements), sum(counts))
        assert [tuple(w) for w in words.tolist()] == arrangements
        assert words.dtype == (np.uint8 if step < 100 else np.uint16)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_words(StepCountVector((1, 2), (30, 30)))


class TestKappaRuns:
    def test_examples(self):
        assert has_kappa_run((1, 1, 2), 2)
        assert not has_kappa_run((1, 2, 1, 2), 2)
        assert not has_kappa_run((1,), 2)
        assert has_kappa_run((2, 1, 1, 1, 2), 3)
        assert not has_kappa_run((2, 1, 1, 2, 1, 1), 3)

    def test_kappa_must_exceed_one(self):
        with pytest.raises(ValueError):
            has_kappa_run((1, 2), 1)


def _kappa_run_loop(word, kappa):
    """The per-word loop the array form replaced, kept as its reference."""
    run = 1
    for prev, cur in zip(word, word[1:]):
        run = run + 1 if cur == prev else 1
        if run >= kappa:
            return True
    return False


def _block_run_loop(word, delays, upsilon, alpha, delta):
    """The per-word loop the array form replaced, kept as its reference."""
    block = 1 << upsilon
    beta = alpha
    for _ in range(upsilon):
        beta = beta * (1.0 - beta)
    n_blocks = len(word) // block
    threshold = (1.0 - delta) * beta * n_blocks
    for d in set(delays):
        full = sum(all(x == d for x in word[i * block:(i + 1) * block])
                   for i in range(n_blocks))
        if full >= threshold:
            return True
    return False


class TestRowwiseStatistics:
    """The statistics on an (m, r) array give the per-row answers."""

    CLASSES = [((1, 2), (0, 0)), ((1, 2), (1, 0)), ((1, 2), (1, 1)), ((1, 2), (4, 3)),
               ((1, 2, 3), (2, 2, 2)), ((2, 5), (3, 2)), ((1, 3, 4), (5, 1, 1))]

    @pytest.mark.parametrize("delays,counts", CLASSES)
    @pytest.mark.parametrize("kappa", [2, 3, 4, 50])
    def test_kappa_run(self, delays, counts, kappa):
        words = enumerate_words(StepCountVector(delays, counts))
        flags = has_kappa_run(words, kappa)
        rows = [tuple(w) for w in words.tolist()]
        assert flags.shape == (len(rows),)
        assert flags.tolist() == [bool(has_kappa_run(w, kappa)) for w in rows]
        assert flags.tolist() == [_kappa_run_loop(w, kappa) for w in rows]

    @pytest.mark.parametrize("delays,counts", CLASSES)
    @pytest.mark.parametrize("upsilon", [1, 2])
    def test_block_run(self, delays, counts, upsilon):
        words = enumerate_words(StepCountVector(delays, counts))
        rows = [tuple(w) for w in words.tolist()]
        if words.shape[1] <= 1 << upsilon:  # every word too short for the block
            with pytest.raises(ValueError, match="must exceed 2\\^upsilon"):
                block_run_statistic(words, delays, upsilon, 0.2, 0.25)
            return
        flags = block_run_statistic(words, delays, upsilon, 0.2, 0.25)
        assert flags.shape == (len(rows),)
        assert flags.tolist() == [bool(block_run_statistic(w, delays, upsilon, 0.2, 0.25))
                                  for w in rows]
        assert flags.tolist() == [_block_run_loop(w, delays, upsilon, 0.2, 0.25)
                                  for w in rows]

    def test_checks_hold_for_arrays(self):
        words = enumerate_words(StepCountVector((1, 2), (3, 3)))
        with pytest.raises(ValueError, match="kappa"):
            has_kappa_run(words, 1)
        with pytest.raises(ValueError, match="upsilon"):
            block_run_statistic(words, (1, 2), 0, 0.2, 0.25)
        with pytest.raises(ValueError, match="alpha"):
            block_run_statistic(words, (1, 2), 1, 0.6, 0.25)
        with pytest.raises(ValueError, match="delta"):
            block_run_statistic(words, (1, 2), 1, 0.2, 0.6)


class TestRunFraction:
    def test_no_class_spans_s(self):
        # delays {2, 5} reach neither 1 nor 3
        for s in (1, 3):
            rf = run_fraction((2, 5), s, 2)
            assert rf.by_class == {}
            assert rf.minimum is None
            with pytest.raises(ValueError, match="kappa"):
                run_fraction((2, 5), s, 1)

    def test_exact_two_thirds(self):
        rf = run_fraction((1, 2), 4, 2)
        assert rf.by_class[(2, 1)] == Fraction(2, 3)
        assert rf.minimum == Fraction(2, 3)

    def test_single_symbol_class_is_full_run(self):
        rf = run_fraction((1, 2), 4, 2)
        assert rf.by_class[(4, 0)] == 1
        assert rf.by_class[(0, 2)] == 1

    def test_minimum_nondecreasing(self):
        mins = [run_fraction((1, 2), s, 2).minimum for s in (6, 10, 14)]
        assert mins[0] <= mins[1] <= mins[2]
        assert mins[0] == Fraction(2, 3)


class TestBlockRunStatistic:
    def test_constant_word_passes(self):
        word = (1,) * 8
        assert block_run_statistic(word, (1, 2), 1, 0.4, 0.4)

    def test_alternating_word_fails(self):
        word = (1, 2) * 4
        assert not block_run_statistic(word, (1, 2), 1, 0.4, 0.4)

    def test_pass_fraction_grows_with_length(self):
        def fraction(counts):
            k = StepCountVector((1, 2), counts)
            words = enumerate_words(k)
            hits = sum(1 for w in words
                       if block_run_statistic(w, (1, 2), 1, 0.4, 0.4))
            return Fraction(hits, len(words))

        assert fraction((6, 6)) > fraction((4, 4))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            block_run_statistic((1, 2, 1, 2), (1, 2), 1, 0.6, 0.4)  # alpha too big
        with pytest.raises(ValueError):
            block_run_statistic((1, 2, 1, 2), (1, 2), 1, 0.4, 0.6)  # delta too big
        with pytest.raises(ValueError):
            block_run_statistic((1, 2), (1, 2), 1, 0.4, 0.4)  # too short


class TestPartitionIdentity:
    def test_class_sizes_sum_to_word_count(self):
        delays = (1, 2, 3)
        for s in range(1, 11):
            by_r = {}
            for k in enumerate_lambda(delays, s):
                by_r[k.r] = by_r.get(k.r, 0) + multinomial_size(k)
            for r, total in by_r.items():
                direct = sum(1 for w in itertools.product(delays, repeat=r)
                             if sum(w) == s)
                assert total == direct


class TestXiByEnumeration:
    def test_identity_at_zero(self, fib_family):
        total, per_r = xi_by_enumeration(fib_family, 0)
        assert np.array_equal(total, np.eye(1))
        assert list(per_r) == [0]

    def test_fibonacci_composition_count(self, fib_family):
        total, per_r = xi_by_enumeration(fib_family, 4)
        assert total[0, 0] == pytest.approx(5.0, rel=1e-13)
        # r = 2 admits only the (2,2) path; r = 3 the arrangements of (1,1,2)
        assert per_r[2][0, 0] == pytest.approx(1.0, rel=1e-13)
        assert per_r[3][0, 0] == pytest.approx(3.0, rel=1e-13)
        assert per_r[4][0, 0] == pytest.approx(1.0, rel=1e-13)

    def test_matches_kernel_on_random_families(self):
        rng = np.random.default_rng(137)
        for _ in range(4):
            fam = random_positive_family(rng, 2, (1, 2, 3), scale=0.9)
            for s in range(11):
                total, _ = xi_by_enumeration(fam, s)
                assert np.max(np.abs(total - xi_kernel(fam, s))) <= 1e-12

    def test_cap(self, fib_family):
        with pytest.raises(CapExceededError):
            xi_by_enumeration(fib_family, 13)

    def test_no_pf_solve(self, monkeypatch):
        # the plain path sum needs no eigenvalue of any M_d
        fam = random_positive_family(np.random.default_rng(141), 3, (1, 2, 3), scale=0.9)
        calls = []
        real = spectral._pf_solve
        counting = lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)
        monkeypatch.setattr(spectral, "_pf_solve", counting)
        monkeypatch.setattr(malthusian, "_pf_solve", counting)
        total, _ = xi_by_enumeration(fam, 8)
        assert not calls
        assert np.max(np.abs(total - xi_kernel(fam, 8))) <= 1e-12 * np.max(total)

    def test_no_class_spans_s(self):
        fam = random_positive_family(np.random.default_rng(139), 2, (2, 5), scale=0.9)
        for s in (1, 3):
            total, per_r = xi_by_enumeration(fam, s)
            assert np.array_equal(total, np.zeros((2, 2)))
            assert per_r == {}
            assert np.array_equal(total, xi_kernel(fam, s))


class TestXiBySampling:
    def test_single_delay_deterministic(self):
        fam = MeanMatrixFamily((1,), (np.array([[1.0]]),))
        sol = solve_malthusian(fam)
        est = xi_by_sampling(fam, sol, 7, 500, seed=1)
        assert est.estimate[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert est.stderr[0, 0] == 0.0

    def test_identity_at_zero(self, fib_family):
        sol = solve_malthusian(fib_family)
        est = xi_by_sampling(fib_family, sol, 0, 100, seed=2)
        assert np.array_equal(est.estimate, np.eye(1))

    def test_fibonacci_within_clt_band(self, fib_family):
        sol = solve_malthusian(fib_family)
        est = xi_by_sampling(fib_family, sol, 6, 20000, seed=3)
        exact = xi_kernel(fib_family, 6)
        assert abs(est.estimate[0, 0] - exact[0, 0]) <= 4 * est.stderr[0, 0]

    def test_multi_type_within_clt_band(self):
        rng = np.random.default_rng(139)
        fam, _, _, _ = make_shared_family(rng, 2, (1, 2))
        sol = solve_malthusian(fam)
        est = xi_by_sampling(fam, sol, 5, 8000, seed=4)
        exact = xi_kernel(fam, 5)
        assert np.all(np.abs(est.estimate - exact) <= 4 * est.stderr + 1e-12)

    def test_deterministic_given_seed(self, fib_family):
        sol = solve_malthusian(fib_family)
        a = xi_by_sampling(fib_family, sol, 6, 3000, seed=9)
        b = xi_by_sampling(fib_family, sol, 6, 3000, seed=9)
        assert np.array_equal(a.estimate, b.estimate)
        assert np.array_equal(a.stderr, b.stderr)

    def test_non_shared_family_within_clt_band(self):
        # the importance weights keep the estimator unbiased where beta does
        # not sum to one
        fam = MeanMatrixFamily((1, 2), (np.ones((2, 2)),
                                        np.array([[2.0, 1.0], [1.0, 1.0]])))
        sol = solve_malthusian(fam)
        assert abs(math.fsum(sol.beta.values()) - 1.0) > 1e-3
        est = xi_by_sampling(fam, sol, 8, 20000, seed=5)
        exact = xi_kernel(fam, 8)
        assert np.all(np.abs(est.estimate - exact) <= 4 * est.stderr)

    def test_delay_with_underflowed_beta_is_never_drawn(self):
        # beta_200 = 3 e^{-200 theta} underflows to 0, so is W_200: the step
        # weight W_200 / p_200 is zero, not 0/0, and Xi(6) = M_1^6
        fam = MeanMatrixFamily((1, 200), (np.full((2, 2), 500.0),
                                          np.array([[1.0, 2.0], [2.0, 1.0]])))
        sol = solve_malthusian(fam)
        assert sol.beta[200] == 0.0
        est = xi_by_sampling(fam, sol, 6, 1000, seed=1)
        exact = xi_kernel(fam, 6)
        assert np.array_equal(exact, np.full((2, 2), 2.0 ** 5 * 500.0 ** 6))
        assert np.allclose(est.estimate, exact, rtol=1e-12, atol=0)
        assert np.all(np.isfinite(est.stderr))

    def test_scale_beyond_double_range(self):
        # theta * s is about 829, so exp(theta * s) overflows a double
        fam = MeanMatrixFamily((1, 2), (np.array([[1e6]]), np.array([[1.0]])))
        sol = solve_malthusian(fam)
        with pytest.raises(HorizonTooLargeError) as info:
            xi_by_sampling(fam, sol, 60, 10, seed=1)
        assert info.value.s == 60
        assert str(info.value) == (f"kernel scale exp(theta*s) = exp({sol.theta * 60!r}) "
                                   "leaves the double range at time 60")


def _loop_sampling(family, mal, s, n_samples, seed):
    """The sampler as a per-row loop: steps from ``Generator.choice``, one
    chain of matmuls per hit sample, accumulated in sample order.  A step d
    weighs W_d / p_d, with W_d = exp(-theta d) M_d from ``mal.weighted``, or 1
    with one type."""
    n = family.n_types
    if s == 0:
        return np.eye(n), np.zeros((n, n))
    delays = np.array(family.delays)
    probs = np.array([mal.beta[d] for d in family.delays])
    probs = probs / probs.sum()
    weight = {d: mal.weighted[d] / p if n > 1 else np.ones((1, 1))
              for d, p in zip(family.delays, probs)}
    sums = np.zeros((n, n))
    sq_sums = np.zeros((n, n))
    for block_idx, lo in enumerate(range(0, n_samples, SAMPLING_BLOCK)):
        b = min(SAMPLING_BLOCK, n_samples - lo)
        rng = Generator(Philox(SeedSequence((seed, block_idx))))
        steps = rng.choice(delays, size=(b, s), p=probs)
        csum = np.cumsum(steps, axis=1)
        stop = (csum >= s).argmax(axis=1)
        for row in np.flatnonzero(csum[np.arange(b), stop] == s):
            prod = np.eye(n)
            for d in steps[row, :stop[row] + 1]:
                prod = prod @ weight[d]
            sums += prod
            sq_sums += prod * prod
    scale = math.exp(mal.theta * s)
    mean = sums / n_samples
    var = (sq_sums - n_samples * mean * mean) / (n_samples - 1)
    return scale * mean, scale * np.sqrt(np.maximum(var, 0.0) / n_samples)


class TestSamplingMatchesLoop:
    """The batched sampler returns the per-row loop's arrays bit for bit."""

    def _check(self, n, delays, s, n_samples, seed):
        fam, _, _, _ = make_shared_family(np.random.default_rng([n, *delays]), n, delays)
        sol = solve_malthusian(fam)
        est = xi_by_sampling(fam, sol, s, n_samples, seed)
        estimate, stderr = _loop_sampling(fam, sol, s, n_samples, seed)
        assert np.array_equal(est.estimate, estimate)
        assert np.array_equal(est.stderr, stderr)
        return est

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    @pytest.mark.parametrize("delays,s", [((1, 2), 7), ((2, 5), 12)])
    def test_one_block(self, n, delays, s):
        self._check(n, delays, s, 400, seed=11)  # at n = 40, several chunks

    @pytest.mark.parametrize("n", [1, 3])
    def test_three_blocks(self, n):
        self._check(n, (1, 2), 4, 2 ** 17 + 5, seed=12)

    @pytest.mark.parametrize("s", [1, 3])
    def test_no_possible_hit(self, s):
        est = self._check(3, (2, 5), s, 500, seed=13)
        assert not est.estimate.any() and not est.stderr.any()

    def test_zero_span(self):
        est = self._check(2, (1, 2), 0, 50, seed=14)
        assert np.array_equal(est.estimate, np.eye(2))
        assert not est.stderr.any()

    def test_chunking_does_not_matter(self, monkeypatch):
        fam, _, _, _ = make_shared_family(np.random.default_rng(15), 3, (1, 2, 3))
        sol = solve_malthusian(fam)
        runs = []
        for chunk in (9, 9 * 7, paths.PRODUCT_CHUNK):  # 1 row, 7 rows, default
            monkeypatch.setattr(paths, "PRODUCT_CHUNK", chunk)
            est = xi_by_sampling(fam, sol, 8, 3000, seed=16)
            runs.append((est.estimate, est.stderr, xi_by_enumeration(fam, 8)))
        for est, err, (total, per_r) in runs[1:]:
            assert np.array_equal(est, runs[0][0]) and np.array_equal(err, runs[0][1])
            assert np.array_equal(total, runs[0][2][0])
            assert all(np.array_equal(per_r[r], runs[0][2][1][r]) for r in per_r)

    @pytest.mark.parametrize("probs", [(0.3, 0.7), (0.1, 0.2, 0.7), (0.5, 0.25, 0.125, 0.125),
                                       (1.0,)])
    def test_inverse_cdf_is_choice(self, probs):
        cdf = np.cumsum(np.array(probs) / np.sum(probs))
        cdf /= cdf[-1]
        for seed in range(20):
            expect = Generator(Philox(SeedSequence((seed, 0)))).choice(
                len(probs), size=(300, 7), p=probs)
            u = Generator(Philox(SeedSequence((seed, 0)))).random((300, 7))
            assert np.array_equal(_inverse_cdf(u, cdf), expect)


class TestSamplingSlices:
    """A block drawn in consecutive slices of its stream gives the per-row
    loop's arrays."""

    _check = TestSamplingMatchesLoop._check

    @pytest.mark.parametrize("rows", [4, 7, 2 ** 10, 2 ** 16])
    @pytest.mark.parametrize("n", [1, 3])
    def test_any_slice_size(self, monkeypatch, n, rows):
        monkeypatch.setattr(paths, "SAMPLING_SLICE", rows)
        self._check(n, (1, 2, 4), 9, 3001, seed=21)

    @pytest.mark.parametrize("n,n_samples", [(1, 4000), (2, 600)])
    def test_long_walks(self, n, n_samples):
        # totals reach s * max(delay) = 500, past what s + max(delay) = 105 sizes
        self._check(n, (1, 5), 100, n_samples, seed=22)

    @pytest.mark.parametrize("n", [1, 3])
    def test_short_last_slice_in_second_block(self, monkeypatch, n):
        monkeypatch.setattr(paths, "SAMPLING_SLICE", 2 ** 10)
        self._check(n, (1, 2), 4, SAMPLING_BLOCK + 2 ** 10 + 37, seed=23)

    def test_slices_match_the_whole_block(self):
        # Philox yields 4 doubles per counter step; slices of 1, 3 and 1000
        # rows of 7 cut inside a step, and the next draw resumes there
        for s in (12, 7):
            whole = Generator(Philox(SeedSequence((24, 1)))).random((SAMPLING_BLOCK, s))
            rng = Generator(Philox(SeedSequence((24, 1))))
            sizes = (1, 3, 1000, SAMPLING_BLOCK - 1004)
            parts = [rng.random((rows, s)) for rows in sizes]
            assert np.array_equal(np.concatenate(parts), whole)
