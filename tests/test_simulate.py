import functools

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence

from delayedbp import (AllTruncatedError, LifetimeLaw, ModelSpec,
                       OffspringLaw, SchemaError, censored_mean_matrices, ensemble,
                       evolve_means, extinction_consistency, simulate_replica)
from delayedbp.simulate import (BLOCK_BYTES, ReplicaBlock, _multinomial, _poisson,
                                block_rows, replica_blocks, simulate_block, summarize)
from delayedbp import simulate as sim_mod
from conftest import make_fibonacci_model


def subcritical_model():
    return ModelSpec(
        type_names=("a",),
        delays=(1,),
        offspring=OffspringLaw(kind="poisson", means={1: [[0.5]]}),
        lifetime=LifetimeLaw(pmf=(0.0, 1.0)))


def asymptomatic_model():
    return make_fibonacci_model(lifetime=LifetimeLaw(pmf=(1.0,)))


class TestSimulateReplica:
    def test_deterministic_given_seed(self, fib_model):
        a = simulate_replica(fib_model, 8, seed=42)
        b = simulate_replica(fib_model, 8, seed=42)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.y, b.y)
        for u, v in zip(a.extinction(), b.extinction()):
            assert np.array_equal(u, v)

    def test_different_seeds_differ(self, fib_model):
        a = simulate_replica(fib_model, 8, seed=1)
        b = simulate_replica(fib_model, 8, seed=2)
        assert not np.array_equal(a.x, b.x)

    def test_no_offspring_immediate_extinction(self):
        model = ModelSpec(
            type_names=("a",),
            delays=(1,),
            offspring=OffspringLaw(kind="pmf", pmfs={1: [[(1.0,)]]}),
            lifetime=LifetimeLaw(pmf=(0.0, 1.0)))
        rec = simulate_replica(model, 10, seed=7)
        assert rec.x.sum() == 1 and rec.x[0, 0, 0] == 1
        det, time = rec.extinction()
        assert det[0, 0] and time[0, 0] == 1

    @pytest.mark.parametrize("initial", [(0.5,), (2.0 ** 62,), (1e30,)])
    def test_initial_counts_must_fit(self, initial):
        # integer counts below 2^62, the int64 headroom, or a SchemaError
        model = ModelSpec(type_names=("a",), delays=(1,),
                          offspring=OffspringLaw(kind="poisson", means={1: [[0.5]]}),
                          lifetime=LifetimeLaw(pmf=(0.0, 1.0)), initial=initial)
        with pytest.raises(SchemaError, match="initial"):
            simulate_replica(model, 3, seed=1)

    def test_all_asymptomatic_identities(self):
        model = asymptomatic_model()
        rec = simulate_replica(model, 12, seed=11)
        assert rec.z.sum() == 0
        det, time = rec.extinction()
        assert det[1, 0] == det[0, 0]
        if det[1, 0]:
            assert time[1, 0] == 0
        # asymptomatic presence is exactly the trailing window of births
        D = model.delays[-1]
        for s in range(13):
            window = rec.x[0, max(0, s - D):s + 1].sum()
            assert rec.y[0, s, 0] == window

    def test_symptomatic_window_identity(self, fib_model):
        # L = 3 for everyone: ill on [t, t+2]
        rec = simulate_replica(fib_model, 12, seed=13)
        for s in range(13):
            window = rec.x[0, max(0, s - 2):s + 1].sum()
            assert rec.z[0, s, 0] == window
        assert rec.y.sum() == 0

    def test_initial_vector_counts(self):
        model = make_fibonacci_model(initial=(3.0,))
        rec = simulate_replica(model, 0, seed=3)
        assert rec.x[0, 0, 0] == 3

    def test_non_integer_initial_rejected(self):
        model = make_fibonacci_model(initial=(1.5,))
        with pytest.raises(ValueError, match="integer"):
            simulate_replica(model, 5, seed=1)

    def test_pop_cap_truncates(self, fib_model):
        rec = simulate_replica(fib_model, 20, seed=5, pop_cap=10)
        assert rec.truncated[0]
        assert not rec.extinction()[0][0, 0]

    def test_supercritical_usually_undetermined(self, fib_model):
        undetermined = sum(
            not simulate_replica(fib_model, 10, seed=(100, k)).extinction()[0][0, 0]
            for k in range(30))
        assert undetermined >= 20  # survival probability is high for the golden model


class TestEnsemble:
    def test_matches_mean_recursion(self, fib_model, fib_family):
        stats = ensemble(fib_model, 6, replicas=4000, seed=17)
        traj = evolve_means(fib_model, fib_family, 6)
        for s in range(7):
            se = max(stats.se_x[s, 0], 1e-12)
            assert abs(stats.mean_x[s, 0] - traj.ex[s, 0]) <= 5 * se

    def test_single_replica_has_no_se(self, fib_model):
        stats = ensemble(fib_model, 5, replicas=1, seed=19)
        assert stats.se_x is None
        rec = simulate_replica(fib_model, 5, seed=(19, 0))
        assert np.array_equal(stats.mean_x, rec.x[0].astype(float))

    def test_subcritical_extinction_frequency(self):
        model = subcritical_model()
        stats = ensemble(model, 100, replicas=500, seed=23)
        assert stats.extinction_frequency["x"] >= 0.95
        # the three processes die out together up to lifetime lag
        assert abs(stats.extinction_frequency["x"]
                   - stats.extinction_frequency["z"]) <= 0.05

    def test_all_truncated(self):
        model = ModelSpec(
            type_names=("a",),
            delays=(1,),
            offspring=OffspringLaw(kind="pmf", pmfs={1: [[(0.0, 0.0, 1.0)]]}),
            lifetime=LifetimeLaw(pmf=(0.0, 1.0)))  # always two children
        with pytest.raises(AllTruncatedError):
            ensemble(model, 20, replicas=3, seed=29, pop_cap=5)

    def test_deterministic(self, fib_model):
        a = ensemble(fib_model, 5, replicas=50, seed=31)
        b = ensemble(fib_model, 5, replicas=50, seed=31)
        assert np.array_equal(a.mean_x, b.mean_x)
        assert np.array_equal(a.se_z, b.se_z)


class TestBlocks:
    def test_replica_is_block_of_one(self, fib_model):
        rec = simulate_replica(fib_model, 9, seed=(5, 2))
        block = simulate_block(fib_model, 9, (5, 2), 1)
        assert isinstance(rec, ReplicaBlock) and rec.counts.shape == (1, 3, 10, 1)
        for name in ("counts", "truncated"):
            assert np.array_equal(getattr(rec, name), getattr(block, name))
        for u, v in zip(rec.extinction(), block.extinction()):
            assert np.array_equal(u, v)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 2), (1, 5), (3, 4)])
    def test_scalar_path_makes_the_same_draws(self, shape):
        # the helpers switch to numpy's scalar path for a few draws
        rng = np.random.default_rng(1)
        pvals = np.array([0.2, 0.5, 0.1, 0.0, 0.2])
        a = Generator(Philox(SeedSequence(3)))
        b = Generator(Philox(SeedSequence(3)))
        for _ in range(20):
            n = rng.integers(0, 400, size=shape)
            lam = rng.uniform(0.0, 50.0, size=shape)
            got = _multinomial(a, n, pvals)
            assert got.shape == shape + (5,)
            assert np.array_equal(got, b.multinomial(n, pvals))
            assert np.array_equal(_poisson(a, lam), b.poisson(lam))

    def test_block_rows_bounded(self):
        for horizon, n in ((0, 1), (10, 1), (60, 3), (4000, 1), (10 ** 6, 50)):
            rows = block_rows(horizon, n)
            assert rows >= 1
            assert rows == 1 or rows * 8 * n * 6 * (horizon + 2) <= BLOCK_BYTES

    def test_block_rows_counts_pmf_split(self):
        # n = 50 types, 3 delays, pmfs over 20 offspring values: the split of
        # one step's offspring holds 3 * 50 * 50 * 20 int64 per row
        horizon, n, split = 10, 50, 3 * 50 * 50 * 20
        rows = block_rows(horizon, n, split)
        assert rows >= 1
        assert rows == 1 or rows * (8 * n * 6 * (horizon + 2) + 8 * split) <= BLOCK_BYTES
        assert rows < block_rows(horizon, n)

    def test_replica_blocks_size_pmf_blocks_by_split(self, monkeypatch):
        pmfs = {d: [[[0.6, 0.3, 0.1], [0.8, 0.2]], [[0.9, 0.1], [0.5, 0.3, 0.2]]]
                for d in (1, 2)}
        model = ModelSpec(type_names=("a", "b"), delays=(1, 2),
                          offspring=OffspringLaw(kind="pmf", pmfs=pmfs),
                          lifetime=LifetimeLaw(pmf=(0.0, 0.5, 0.5)), initial=(1, 1))
        seen = []
        real = sim_mod.block_rows
        monkeypatch.setattr(sim_mod, "block_rows",
                            lambda *args: seen.append(args) or real(*args))
        assert sum(len(b.x) for b in replica_blocks(model, 5, 3, 1)) == 3
        assert seen == [(5, 2, 2 * 2 * 2 * 3)]

    def test_offspring_table_built_once_per_ensemble(self, monkeypatch):
        pmfs = {d: [[[0.6, 0.3, 0.1], [0.8, 0.2]], [[0.9, 0.1], [0.5, 0.3, 0.2]]]
                for d in (1, 3)}
        model = ModelSpec(type_names=("a", "b"), delays=(1, 3),
                          offspring=OffspringLaw(kind="pmf", pmfs=pmfs),
                          lifetime=LifetimeLaw(pmf=(0.0, 0.5, 0.5)), initial=(2, 1))
        builds = []
        real = ModelSpec.offspring_table.func
        counted = functools.cached_property(lambda self: builds.append(1) or real(self))
        counted.__set_name__(ModelSpec, "offspring_table")
        monkeypatch.setattr(ModelSpec, "offspring_table", counted)
        monkeypatch.setattr(sim_mod, "block_rows", lambda *args: 2)
        blocks = list(replica_blocks(model, 8, 7, 3))
        assert len(blocks) == 4 and len(builds) == 1
        table = model.offspring_table
        assert table.shape == (2, 2, 2, 3) and not table.flags.writeable
        for g, d in enumerate((1, 3)):
            for i in range(2):
                for j in range(2):
                    cell = np.array([*pmfs[d][i][j], 0.0, 0.0][:3])
                    assert table[g, i, j].tolist() == (cell / cell.sum()).tolist()

    def test_ensemble_is_concatenation_of_blocks(self):
        model = subcritical_model()
        horizon, replicas = 4000, 100
        rows = block_rows(horizon, 1)
        assert replicas > 2 * rows  # at least three blocks
        blocks = list(replica_blocks(model, horizon, replicas, 61))
        assert len(blocks) == -(-replicas // rows)
        alone = [simulate_block(model, horizon, (61, b), min(rows, replicas - b * rows))
                 for b in range(len(blocks))]
        for got, want in zip(blocks, alone):
            for name in ("x", "z", "y", "truncated"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        stats = ensemble(model, horizon, replicas, 61)
        x = np.concatenate([b.x for b in alone]).astype(float)
        assert np.allclose(stats.mean_x, x.mean(axis=0), rtol=1e-15, atol=0)
        assert np.allclose(stats.se_x, x.std(axis=0, ddof=1) / np.sqrt(replicas),
                           rtol=1e-12, atol=0)

    def test_summary_independent_of_block_order(self):
        model = make_fibonacci_model(lifetime=LifetimeLaw(pmf=(0.3, 0.2, 0.5),
                                                          death_prob=0.2))
        blocks = [simulate_block(model, 12, (71, b), 37) for b in range(5)]
        fwd, rev = summarize(blocks), summarize(blocks[::-1])
        for name in ("mean_x", "mean_z", "mean_y", "se_x", "se_z", "se_y"):
            assert getattr(fwd, name).tobytes() == getattr(rev, name).tobytes()
        assert fwd.extinction_frequency == rev.extinction_frequency

    def test_pop_cap_truncates_some_rows(self):
        model = make_fibonacci_model(lifetime=LifetimeLaw(pmf=(0.5, 0.0, 0.0, 0.5)))
        block = simulate_block(model, 25, 81, 400, pop_cap=200)
        created = block.x.sum(axis=(1, 2))
        keep = ~block.truncated
        assert 0 < keep.sum() < 400
        assert np.all(created[keep] <= 200)
        assert np.all(created[block.truncated] > 200)
        # a truncated row stops reproducing within a step of passing the cap;
        # unchecked, these rows would reach about 10^5 births by time 25
        assert created.max() <= 3 * 200
        det, _ = block.extinction()
        assert not det[:, block.truncated].any()
        stats = summarize([block])
        assert (stats.replicas, stats.truncated) == (keep.sum(), 400 - keep.sum())
        assert np.allclose(stats.mean_x, block.x[keep].mean(axis=0), rtol=1e-15, atol=0)


def _within_4se(stats, traj, share=0.95):
    """Whether at least ``share`` of the (time, type) cells of X, Z and Y
    have their ensemble mean within 4 standard errors of the exact mean;
    a cell with SE 0 must match it."""
    hits = []
    for mean, se, exact in ((stats.mean_x, stats.se_x, traj.ex),
                            (stats.mean_z, stats.se_z, traj.ez),
                            (stats.mean_y, stats.se_y, traj.ey)):
        hits.append(np.abs(mean - exact) <= 4.0 * se + 1e-12 * np.abs(exact))
    return np.concatenate([h.ravel() for h in hits]).mean() >= share


class TestMonteCarloCoverage:
    def test_pmf_offspring(self):
        model = ModelSpec(
            type_names=("u", "v"),
            delays=(1, 2),
            offspring=OffspringLaw(kind="pmf", pmfs={
                1: [[(0.6, 0.3, 0.1), (0.7, 0.3)], [(0.5, 0.2, 0.2, 0.1), (0.8, 0.2)]],
                2: [[(0.8, 0.2), (0.5, 0.5)], [(0.9, 0.1), (0.6, 0.2, 0.2)]]}),
            lifetime=LifetimeLaw(pmf=(0.2, 0.3, 0.5), death_prob=0.2),
            initial=(3.0, 2.0))
        stats = ensemble(model, 12, replicas=20_000, seed=91)
        traj = evolve_means(model, censored_mean_matrices(model), 12)
        assert _within_4se(stats, traj)

    def test_three_types_deaths_geometric_tail(self):
        rng = np.random.default_rng(5)
        means = {d: (rng.uniform(0.1, 0.4, size=(3, 3)) * w).tolist()
                 for d, w in ((1, 1.0), (2, 0.8), (4, 0.5))}
        model = ModelSpec(
            type_names=("a", "b", "c"),
            delays=(1, 2, 4),
            offspring=OffspringLaw(kind="poisson", means=means),
            lifetime=LifetimeLaw(pmf=(0.15, 0.25), tail_ratio=0.6,
                                 death_prob=(0.05, 0.1, 0.3)),
            initial=(4.0, 4.0, 4.0))
        stats = ensemble(model, 15, replicas=20_000, seed=93)
        traj = evolve_means(model, censored_mean_matrices(model), 15)
        assert _within_4se(stats, traj)


class TestExtinctionConsistency:
    def test_no_violations_on_mixed_batch(self):
        model = make_fibonacci_model(
            lifetime=LifetimeLaw(pmf=(0.5, 0.0, 0.0, 0.5)))
        records = [simulate_replica(model, 15, seed=(37, k)) for k in range(200)]
        report = extinction_consistency(records)
        assert report.ok
        assert report.replicas_checked > 0

    def test_pathwise_ordering_subcritical(self):
        model = ModelSpec(
            type_names=("a",),
            delays=(1, 2),
            offspring=OffspringLaw(kind="poisson", means={1: [[0.3]], 2: [[0.3]]}),
            lifetime=LifetimeLaw(pmf=(0.5, 0.25, 0.25)))
        records = [simulate_replica(model, 60, seed=(41, k)) for k in range(300)]
        report = extinction_consistency(records)
        assert report.ok
        D = model.delays[-1]
        both = [time[:, 0] for det, time in (r.extinction() for r in records)
                if det[0, 0] and det[2, 0]]
        assert both, "expected determined extinctions in a subcritical run"
        assert all(t[2] <= t[0] + D for t in both)

    def test_all_asymptomatic_batch(self):
        model = asymptomatic_model()
        records = [simulate_replica(model, 10, seed=(43, k)) for k in range(50)]
        report = extinction_consistency(records)
        assert report.ok
        for rec in records:
            det, time = rec.extinction()
            if det[1, 0]:
                assert time[1, 0] == 0

    def test_reports_violation_numbered_across_blocks(self):
        # S = 10, D = 2; the first block's middle row is truncated and skipped
        first = ReplicaBlock(max_delay=2, counts=np.zeros((3, 3, 11, 1), dtype=np.int64),
                             truncated=np.array([False, True, False]))
        counts = np.zeros((2, 3, 11, 1), dtype=np.int64)
        counts[1, 0, 0] = 1  # births only at t = 0 ...
        counts[1, 2, 8] = 1  # ... but asymptomatic presence at t = 8
        second = ReplicaBlock(max_delay=2, counts=counts, truncated=np.zeros(2, dtype=bool))
        report = extinction_consistency([first, second])
        assert not report.ok
        assert report.replicas_checked == 4
        assert report.violations == ("replica 4: T_Y = 9 > T_X + D = 3",)

    def test_multi_row_blocks_with_truncation(self, monkeypatch):
        model = make_fibonacci_model(lifetime=LifetimeLaw(pmf=(0.5, 0.0, 0.0, 0.5)))
        horizon, replicas = 25, 150
        # 40 rows per block: four blocks
        monkeypatch.setattr(sim_mod, "BLOCK_BYTES", 40 * 48 * (horizon + 2))
        blocks = list(replica_blocks(model, horizon, replicas, 83, pop_cap=200))
        assert len(blocks) >= 3
        truncated = sum(int(b.truncated.sum()) for b in blocks)
        assert 0 < truncated < replicas
        report = extinction_consistency(blocks)
        assert report.ok
        assert report.replicas_checked == replicas - truncated == summarize(blocks).replicas
