"""Individual-level Monte Carlo simulation of the delayed branching process.

A replica starts from the model's initial individuals at time 0, integer
counts below 2^62 (another initial vector is a SchemaError).  Every
individual born at time t of type i draws a lifetime L (possibly 0 =
asymptomatic, in which case it cannot die), a death indicator for L >= 1, and
raw offspring counts per (delay, child type); offspring at age d are censored
when the individual has died by then (L <= d and death).  Symptomatic
individuals are counted ill on [t, t+L-1], asymptomatic ones are present on
[t, t+D].  Lifetimes at or beyond the horizon are lumped into one category.

Replicas are simulated in blocks.  A block of R rows holds one
(R, 3, S+1, types) count array, X, Z and Y per row, and advances all its
rows together, one time step at a time: the individuals born at time t split
over lifetimes in one multinomial draw, deaths by age come from one binomial
draw, and the offspring of every delay from one Poisson draw (for pmf-kind
laws, one multinomial draw over the offspring values).  Individuals of one
(row, time, type) are exchangeable, so these counts have the law of the
individual-level process.  A row whose individuals ever created exceed
pop_cap is truncated: from the next time step on it draws no offspring.

A block draws from one counter-based Philox stream keyed by its seed, which
makes it a pure function of (model, horizon, seed, rows, pop_cap).  Ensemble
replica k is row k % B of block k // B, and that block's stream is keyed
(seed, k // B).  B = ``block_rows`` depends only on the horizon, the type
count and, for pmf-kind laws, the size of the offspring split, so results do
not depend on how blocks are scheduled.
``simulate_replica`` returns the block of one row keyed by its seed, and
``extinction_consistency`` checks the rows of any sequence of blocks.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .errors import AllTruncatedError, HorizonTooLargeError, SchemaError

DEFAULT_POP_CAP = 10 ** 6

# bytes of block state, temporaries included, that fix the rows per block
BLOCK_BYTES = 8 * 2 ** 20

_INT64_MAX = 2 ** 63 - 1

# Up to this many draws, numpy's scalar path, one call per draw, is the
# cheaper one: it makes the same draws as the array path without its ~10 us
# of argument checks per call, which a block of one row pays at every step.
_SCALAR_DRAWS = 4


@dataclass(frozen=True)
class ReplicaBlock:
    """The rows of one block.  ``counts[r]`` stacks, per (time, type), the
    births X, the symptomatic present Z and the asymptomatic present Y of
    row r."""

    max_delay: int
    counts: np.ndarray = field(repr=False)  # (rows, 3, horizon + 1, types)
    truncated: np.ndarray = field(repr=False)  # (rows,) bool

    @property
    def x(self) -> np.ndarray:
        return self.counts[:, 0]

    @property
    def z(self) -> np.ndarray:
        return self.counts[:, 1]

    @property
    def y(self) -> np.ndarray:
        return self.counts[:, 2]

    def extinction(self) -> tuple[np.ndarray, np.ndarray]:
        """(determined, time) of X, Z and Y, each of shape (3, rows).

        The time is the first instant from which the count stays at 0.  It
        is undetermined, and -1, while the row might still be alive past the
        horizon, or when the row was truncated.
        """
        S = self.counts.shape[2] - 1
        # one past the last time with mass, 0 for none
        end = (self.counts.any(axis=3) * np.arange(1, S + 2)).max(axis=2).T
        # X is determined when no birth falls in the last D steps, Z also needs
        # nobody ill at S, Y is determined with X
        det = end <= np.array([[S + 1 - self.max_delay], [S], [S + 1]])
        det &= det[0] & ~self.truncated
        return det, np.where(det, end, -1)


def block_rows(horizon: int, n_types: int, split_cells: int = 0) -> int:
    """Rows per ensemble block: as many as keep one block within BLOCK_BYTES.

    A row holds six int64 planes of at most (horizon + 2) x types: X, Z and
    Y, one step's lifetime draws, the temporary of their update, and one
    step's offspring draws.  A pmf-kind law adds its offspring split, one
    int64 per (delay, parent type, child type, offspring value): pass that
    count as ``split_cells``.
    """
    return max(1, BLOCK_BYTES // (48 * n_types * (horizon + 2) + 8 * split_cells))


def simulate_block(model, horizon: int, seed, rows: int,
                   pop_cap: int = DEFAULT_POP_CAP) -> ReplicaBlock:
    """Simulate ``rows`` replicas from the one Philox stream keyed by ``seed``.

    When the individuals a row has created exceed ``pop_cap`` (checked
    after each time step) the row stops producing offspring, its truncation
    flag is set, and its extinction becomes undetermined.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if rows < 1:
        raise ValueError("rows must be >= 1")
    if pop_cap < 1:
        raise ValueError("pop_cap must be >= 1")
    init = model.initial_mean_vector().tolist()
    # counts live in int64; 2^62 keeps a factor of two of headroom
    if any(abs(v - round(v)) > 1e-9 or v >= 2 ** 62 for v in init):
        raise SchemaError("initial", "simulation needs integer counts below 2^62")
    S = horizon
    delays = model.delay_family.delays
    D = model.delay_family.max_delay
    pmf, death = model.lifetime.tables(S + 2)
    # deaths at ages past min(D, S) can never censor in-horizon births
    death = death[1:min(D, S) + 1]
    dies = death.any()
    kind, law = model.offspring.kind, model.offspring_table

    rng = Generator(Philox(SeedSequence(seed)))
    counts = np.zeros((rows, 3, S + 1, model.n_types), dtype=np.int64)
    # in the loop z[:, s] counts the lifetimes ending at s and y[:, s] the
    # asymptomatic births at s; both become presence counts at the end
    x, z, y = counts[:, 0], counts[:, 1], counts[:, 2]
    x[:, 0] = [round(v) for v in init]
    # x holds every individual a row has created; no row can pass pop_cap
    # before the block total does
    total = int(x[:, 0].sum())

    for t in range(S + 1):
        cohort = x[:, t]
        if np.count_nonzero(cohort):
            k = S - t + 1
            # lifetimes 0..S-t; numpy gives the last category the rest, L > S-t
            life = _multinomial(rng, cohort, pmf[:k + 1])
            z[:, t:] += life[..., :k].transpose(0, 2, 1)
            y[:, t] = life[..., 0]
            m = bisect.bisect_right(delays, S - t)  # delays landing in the horizon
            if m:
                alive = cohort[:, None]
                if dies:
                    ages = min(D, S - t)
                    dead = rng.binomial(life[..., 1:ages + 1], death[:ages]).cumsum(axis=-1)
                    alive = alive - dead[..., [d - 1 for d in delays[:m]]].transpose(0, 2, 1)
                if total > pop_cap:  # truncated rows produce no more offspring
                    alive = alive * (x.sum(axis=(1, 2)) <= pop_cap)[:, None, None]
                try:
                    born = _draw_births(rng, kind, law[:m], alive)
                except ValueError as exc:  # numpy's, e.g. a Poisson mean past its range
                    raise HorizonTooLargeError(t, f"the offspring draw at time {t} "
                                                  f"was refused: {exc}") from None
                for j, d in enumerate(delays[:m]):
                    x[:, t + d] += born[:, j]
                total += int(born.sum())
        if not np.count_nonzero(x[:, t + 1:t + D + 1]):
            break
    # symptomatic presence: born so far minus lifetimes ended so far;
    # asymptomatic presence: asymptomatic births in the last D + 1 steps
    np.subtract(x, z, out=z)
    counts[:, 1:].cumsum(axis=2, out=counts[:, 1:])
    if D < S:
        y[:, D + 1:] -= y[:, :S - D].copy()
    return ReplicaBlock(max_delay=D, counts=counts,
                        truncated=x.sum(axis=(1, 2)) > pop_cap)


def _multinomial(rng, n: np.ndarray, pvals: np.ndarray) -> np.ndarray:
    """``rng.multinomial(n, pvals)`` for an integer array n and 1-d pvals."""
    if n.size <= _SCALAR_DRAWS:
        return np.array([rng.multinomial(c, pvals) for c in n.ravel().tolist()],
                        dtype=np.int64).reshape(n.shape + pvals.shape)
    return rng.multinomial(n, pvals)


def _poisson(rng, lam: np.ndarray) -> np.ndarray:
    """``rng.poisson(lam)`` for a float array lam."""
    if lam.size <= _SCALAR_DRAWS:
        return np.array([rng.poisson(v) for v in lam.ravel().tolist()],
                        dtype=np.int64).reshape(lam.shape)
    return rng.poisson(lam)


def _draw_births(rng, kind: str, law: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """Raw offspring per (row, delay, child type) of the ``alive`` parents,
    (rows, delays, n) or broadcast from (rows, 1, n).  Poisson counts
    superpose exactly, over parents and parent types; for explicit pmfs the
    parents split over the offspring values in one multinomial."""
    if kind == "poisson":
        return _poisson(rng, np.matmul(alive[:, :, None], law)[:, :, 0])
    split = rng.multinomial(alive[..., None], law)
    return (split @ np.arange(law.shape[-1])).sum(axis=2)


def simulate_replica(model, horizon: int, seed, pop_cap: int = DEFAULT_POP_CAP) -> ReplicaBlock:
    """Simulate one replica, the block of one row keyed by ``seed`` (an int
    or a tuple of ints); deterministic given the seed."""
    return simulate_block(model, horizon, seed, 1, pop_cap)


@dataclass(frozen=True)
class EnsembleStats:
    horizon: int
    replicas: int
    truncated: int
    mean_x: np.ndarray = field(repr=False)
    mean_z: np.ndarray = field(repr=False)
    mean_y: np.ndarray = field(repr=False)
    se_x: np.ndarray | None = field(repr=False, default=None)
    se_z: np.ndarray | None = field(repr=False, default=None)
    se_y: np.ndarray | None = field(repr=False, default=None)
    extinction_frequency: dict[str, float] | None = None


def ensemble(model, horizon: int, replicas: int, seed,
             pop_cap: int = DEFAULT_POP_CAP) -> EnsembleStats:
    """Ensemble means and standard errors over independent replicas.

    Replica k is row k % B of block k // B, keyed (seed, k // B); the
    aggregation sums exact integers, so results do not depend on the order
    in which blocks are summed.  Truncated replicas are excluded from all
    statistics; if every replica truncates, AllTruncatedError is raised.
    """
    return summarize(replica_blocks(model, horizon, replicas, seed, pop_cap))


def replica_blocks(model, horizon: int, replicas: int, seed,
                   pop_cap: int = DEFAULT_POP_CAP):
    """Yield the blocks holding replicas 0..replicas-1, block b keyed (seed, b)."""
    split = model.offspring_table.size if model.offspring.kind == "pmf" else 0
    rows = block_rows(horizon, model.n_types, split)
    for b, first in enumerate(range(0, replicas, rows)):
        yield simulate_block(model, horizon, (seed, b), min(rows, replicas - first), pop_cap)


def summarize(blocks) -> EnsembleStats:
    """Aggregate replica blocks as ``ensemble`` does, one block at a time.

    Counts and squared counts are summed as exact integers, so the result
    is the same for any order of the blocks.
    """
    sums = sqs = extinct = 0
    used = trunc = 0
    for block in blocks:
        keep = ~block.truncated
        trunc += int(block.truncated.sum())
        used += int(keep.sum())
        counts = block.counts
        if int(counts.max()) > math.isqrt(_INT64_MAX // keep.size):
            counts = counts.astype(object)  # squares would overflow int64
        w = keep.astype(np.int64)
        sums = sums + np.einsum("r,r...->...", w, counts).astype(object)
        sqs = sqs + np.einsum("r,r...,r...->...", w, counts, counts).astype(object)
        extinct = extinct + block.extinction()[0][:, keep].sum(axis=1)
    if used + trunc == 0:
        raise ValueError("need at least one replica")
    if used == 0:
        raise AllTruncatedError(trunc)

    # int / int is correctly rounded, and the variance numerator is exact
    means = (sums / used).astype(float)
    if used > 1:
        var = ((used * sqs - sums * sums) / (used * (used - 1))).astype(float)
        ses = np.sqrt(var / used)
    else:
        ses = (None, None, None)

    return EnsembleStats(
        horizon=means.shape[1] - 1, replicas=used, truncated=trunc,
        mean_x=means[0], mean_z=means[1], mean_y=means[2],
        se_x=ses[0], se_z=ses[1], se_y=ses[2],
        extinction_frequency={k: int(extinct[i]) / used for i, k in enumerate("xzy")},
    )


@dataclass(frozen=True)
class ConsistencyReport:
    replicas_checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def extinction_consistency(blocks) -> ConsistencyReport:
    """Check the pathwise extinction ordering on the rows of replica blocks.

    Per untruncated row whose birth extinction is determined, asymptomatic
    presence must cease within D of the last birth: T_Y <= T_X + D.
    ``ReplicaBlock.extinction`` makes Y determined whenever X is and reads
    each time off the last instant with mass, so those two facts hold by
    construction and are not checked.  Replicas are numbered across the
    blocks in order.  Violations indicate an implementation bug, not
    randomness.
    """
    violations = []
    checked = first = 0
    for block in blocks:
        det, time = block.extinction()
        D = block.max_delay
        rows = zip(block.truncated.tolist(), det[0].tolist(), time[0].tolist(), time[2].tolist())
        for idx, (trunc, dx, tx, ty) in enumerate(rows, start=first):
            if trunc:
                continue
            checked += 1
            if dx and ty > tx + D:
                violations.append(f"replica {idx}: T_Y = {ty} > T_X + D = {tx + D}")
        first += len(block.truncated)
    return ConsistencyReport(replicas_checked=checked, violations=tuple(violations))
