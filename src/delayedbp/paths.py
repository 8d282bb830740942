"""Backward-path combinatorics and brute-force oracles for the kernel.

A backward path from time s to 0 is a word (d_1, ..., d_r) of delays summing
to s.  Words group into classes by their step-count vector k (how many steps
of each size), each class holding r!/prod(k_d!) distinct words.  A class's
words are one integer array, a word per row, and the run statistics work
along its last axis, one answer per row.  Long words almost always contain
long runs of a repeated symbol, which is what drags products of normalized
mean matrices to their rank-one limit; the run and block statistics here
make that effect measurable at small s.

Two independent evaluations of the kernel live here as test oracles: full
path enumeration (exponential cost, capped) and a Monte Carlo estimator that
draws path steps i.i.d. from the step weights beta scaled to sum to one and
weights each hit by importance, so that it is unbiased for every family.
Both multiply out their words through one kernel, ``_add_word_products``:
words go in chunks of bounded size, each distinct prefix in a chunk is
multiplied out once, and the products are summed in word order, so every sum
is the one a per-word loop of matmuls gives, bit for bit, whatever the
chunking.  The sampler draws each block's Philox stream in consecutive row
slices, so the estimate is the same for any slice size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .errors import CapExceededError, HorizonTooLargeError, SchemaError

ENUMERATION_S_CAP = 64
KERNEL_S_CAP = 12
WORD_CAP = 10 ** 6
SAMPLING_BLOCK = 1 << 16
SAMPLING_SLICE = 1 << 13  # sampler rows drawn at once; any size gives the same doubles
PRODUCT_CHUNK = 1 << 17  # doubles of word products held at once


@dataclass(frozen=True)
class StepCountVector:
    """Step counts per delay; membership in Lambda(s, r) is checked via the
    derived quantities ``total`` (the time spanned) and ``r`` (word length)."""

    delays: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.delays) != len(self.counts):
            raise ValueError("counts must align with delays")
        if any(k < 0 for k in self.counts):
            raise ValueError("counts must be >= 0")

    @property
    def r(self) -> int:
        return sum(self.counts)

    @property
    def total(self) -> int:
        return sum(d * k for d, k in zip(self.delays, self.counts))


def enumerate_lambda(delays, s: int, r: int | None = None) -> list[StepCountVector]:
    """All step-count vectors spanning exactly s, ascending lexicographic.

    With ``r`` given, restricts to words of that length (Lambda(s, r) is
    nonempty only for ceil(s/max_delay) <= r <= s).
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if s > ENUMERATION_S_CAP:
        raise CapExceededError(f"enumeration capped at s <= {ENUMERATION_S_CAP}, got {s}")
    delays = tuple(sorted(int(d) for d in delays))
    out: list[StepCountVector] = []

    def rec(idx, remaining, prefix):
        if idx == len(delays) - 1:
            d = delays[idx]
            if remaining % d == 0:
                out.append(StepCountVector(delays, prefix + (remaining // d,)))
            return
        d = delays[idx]
        for k in range(remaining // d + 1):
            rec(idx + 1, remaining - k * d, prefix + (k,))

    rec(0, s, ())  # counts ascend in the first delay's, then the next's, ...
    if r is not None:
        out = [k for k in out if k.r == r]
    return out


def multinomial_size(k: StepCountVector) -> int:
    """|S(k)| = r! / prod_d k_d!, exactly (arbitrary-precision integers)."""
    num = math.factorial(k.r)
    for c in k.counts:
        num //= math.factorial(c)
    return num


def enumerate_words(k: StepCountVector) -> np.ndarray:
    """All distinct arrangements of the multiset described by k, one word
    per row of an (|S(k)|, r) array of delays.

    Rows are in ascending lexicographic order when ``k.delays`` ascend (as
    ``enumerate_lambda`` gives them).  The array has the smallest unsigned
    type that holds every delay and count, uint8 below 256.  Words are built
    one position at a time: each prefix is extended by every delay it has
    left, in delay order.
    """
    size = multinomial_size(k)
    if size > WORD_CAP:
        raise CapExceededError(f"class holds {size} words, cap is {WORD_CAP}")
    dtype = np.min_scalar_type(max(k.delays + k.counts, default=0))
    delays = np.array(k.delays, dtype=dtype)
    words = np.empty((1, 0), dtype=dtype)
    left = np.array([k.counts], dtype=dtype)  # per prefix: steps of each delay still to place
    for _ in range(k.r):
        rows, cols = np.nonzero(left)
        words = np.column_stack((words[rows], delays[cols]))
        left = left[rows]
        left[np.arange(len(rows)), cols] -= 1
    return words


def has_kappa_run(words, kappa: int):
    """Whether a word contains kappa consecutive equal symbols, along the last
    axis: one bool for one word, one per row for an (m, r) array.

    Words shorter than kappa never qualify.
    """
    if kappa <= 1:
        raise ValueError("kappa must be > 1")
    words = np.asarray(words)
    r = words.shape[-1]
    equal = words[..., 1:] == words[..., :-1]
    run = equal  # after step j: positions i .. i + j + 1 all hold one symbol
    for j in range(1, min(kappa, r) - 1):
        run = run[..., :-1] & equal[..., j:]
    return run.any(axis=-1) & (r >= kappa)  # the loop stops at r: a shorter word cannot qualify


@dataclass(frozen=True)
class RunFractions:
    """Per-class fraction of words containing a kappa-run, as exact rationals.
    ``minimum`` is None when Lambda(s) has no class."""

    by_class: dict[tuple[int, ...], Fraction]
    minimum: Fraction | None


def run_fraction(delays, s: int, kappa: int) -> RunFractions:
    """|S(k)^kappa| / |S(k)| for every class k in Lambda(s), plus the minimum.

    The minimum over classes creeps toward 1 as s grows: long words cannot
    avoid runs.
    """
    if kappa <= 1:  # checked here too, so that an empty Lambda(s) does not skip it
        raise ValueError("kappa must be > 1")
    fractions: dict[tuple[int, ...], Fraction] = {}
    for k in enumerate_lambda(delays, s):
        words = enumerate_words(k)
        fractions[k.counts] = Fraction(np.count_nonzero(has_kappa_run(words, kappa)), len(words))
    return RunFractions(by_class=fractions, minimum=min(fractions.values(), default=None))


def check_block_run_params(delays, alpha: float, delta: float, prefix: str = "") -> None:
    """Raise a SchemaError naming ``prefix + "alpha"`` or ``prefix + "delta"``
    unless 0 < alpha < 1/(number of delays) and 0 < delta < 1/2."""
    n_sym = len(set(delays))
    if not (0.0 < alpha < 1.0 / n_sym):
        raise SchemaError(f"{prefix}alpha", f"must lie in (0, 1/{n_sym}), got {alpha!r}")
    if not (0.0 < delta < 0.5):
        raise SchemaError(f"{prefix}delta", f"must lie in (0, 1/2), got {delta!r}")


def longer_than_block(r: int, upsilon: int) -> bool:
    """r > 2^upsilon, decided without building 2^upsilon: once upsilon
    reaches the bit length of r, 2^upsilon already exceeds r."""
    return r > 1 << min(upsilon, r.bit_length())


def block_run_statistic(words, delays, upsilon: int, alpha: float, delta: float):
    """Aligned-block run test behind the run-frequency lower bound, along the
    last axis: one bool for one word, one per row for an (m, r) array.

    Splits a word into floor(r / 2^upsilon) aligned blocks of length
    2^upsilon and asks whether some delay d fills at least
    (1 - delta) * beta_upsilon * floor(r / 2^upsilon) of them entirely, where
    beta_0 = alpha and beta_l = beta_{l-1} (1 - beta_{l-1}).
    """
    if upsilon < 1:
        raise ValueError("upsilon must be >= 1")
    check_block_run_params(delays, alpha, delta)
    words = np.asarray(words)
    r = words.shape[-1]
    if not longer_than_block(r, upsilon):
        raise ValueError(f"word length {r} must exceed 2^upsilon = 2^{upsilon}")
    block = 1 << upsilon
    beta = alpha
    for _ in range(upsilon):
        beta = beta * (1.0 - beta)
    n_blocks = r // block
    threshold = (1.0 - delta) * beta * n_blocks
    blocks = words[..., :n_blocks * block].reshape(*words.shape[:-1], n_blocks, block)
    first = blocks[..., 0]
    filled = (blocks == first[..., None]).all(axis=-1)
    return np.any([np.count_nonzero(filled & (first == d), axis=-1) >= threshold
                   for d in set(delays)], axis=0)


def _product_chunk(steps: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Step-matrix product along every row of ``words``, shape (rows, n, n).

    ``steps`` stacks one matrix per delay index; a word holds symbols
    index + 1, padded with 0 once it has ended.  Each distinct prefix is
    multiplied out once: at position j the rows are re-keyed as
    prefix id * (D + 1) + symbol, and every new prefix extends its parent by
    one matmul per delay.  A row's product is the same left-to-right chain
    I @ N_1 @ N_2 ... however the rows are grouped.
    """
    n = steps.shape[1]
    base = len(steps) + 1
    prods = np.eye(n)[None]
    ids = np.zeros(len(words), dtype=np.int64)
    for column in words.T:
        if not column.any():  # every word has ended
            break
        keys, ids = np.unique(ids * base + column, return_inverse=True)
        parent, sym = np.divmod(keys, base)
        nxt = np.empty((len(keys), n, n))
        for k in range(base):
            sel = np.flatnonzero(sym == k)
            if k == 0:
                nxt[sel] = prods[parent[sel]]
            elif len(sel):
                nxt[sel] = (prods[parent[sel]].reshape(-1, n) @ steps[k - 1]).reshape(-1, n, n)
        prods = nxt
    return prods[ids]


def _add_word_products(steps: np.ndarray, words: np.ndarray, sums: np.ndarray,
                       sq_sums: np.ndarray | None = None, owner: np.ndarray | None = None) -> None:
    """In place: add the product of each row of ``words`` to
    ``sums[owner[row]]`` (and its elementwise square to ``sq_sums[owner[row]]``),
    one row at a time in row order.  ``owner`` is nondecreasing; by default
    every row goes to ``sums[0]``.

    Rows go in chunks of at most ``PRODUCT_CHUNK`` doubles of products.  A
    running total is folded into the first row of its run in a chunk before
    the run's axis-0 sum, which adds rows in order, so the result is the
    same for any chunking.
    """
    n = steps.shape[1]
    rows = max(1, PRODUCT_CHUNK // (n * n))
    if owner is None:
        owner = np.zeros(len(words), dtype=np.intp)
    for lo in range(0, len(words), rows):
        prods = _product_chunk(steps, words[lo:lo + rows])
        own = owner[lo:lo + rows]
        cuts = [0, *(np.flatnonzero(own[1:] != own[:-1]) + 1), len(own)]
        for a, b in zip(cuts, cuts[1:]):
            run = prods[a:b]
            if sq_sums is not None:
                sq = run * run
                sq[0] += sq_sums[own[a]]
                sq.sum(axis=0, out=sq_sums[own[a]])
            run[0] += sums[own[a]]
            run.sum(axis=0, out=sums[own[a]])


def xi_by_enumeration(family, s: int):
    """Kernel at time s by summing M_{d_1} ... M_{d_r} over every backward
    path (d_1, ..., d_r) spanning s.  Returns (Xi(s), {r: Xi(s; r)}), the
    second holding the sum over the paths of each length r.
    """
    if s > KERNEL_S_CAP:
        raise CapExceededError(f"enumeration kernel capped at s <= {KERNEL_S_CAP}, got {s}")
    n = family.n_types
    per_r: dict[int, np.ndarray] = {}
    classes = enumerate_lambda(family.delays, s)
    if not classes:  # no word spans s, as s = 3 on delays {2, 5}
        return np.zeros((n, n)), per_r
    # every word of every class in one pass, padded with 0 past its end
    words = [enumerate_words(k) for k in classes]
    padded = np.concatenate([np.pad(ws, ((0, 0), (0, s - ws.shape[1]))) for ws in words])
    sym = np.searchsorted(family.delays, padded, side="right")  # delay index + 1, 0 stays 0
    acc = np.zeros((len(classes), n, n))
    _add_word_products(np.stack(family.matrices), sym, acc,
                       owner=np.repeat(np.arange(len(classes)), list(map(len, words))))
    for k, part in zip(classes, acc):
        per_r[k.r] = per_r.get(k.r, np.zeros((n, n))) + part
    return sum(per_r.values(), np.zeros((n, n))), per_r


def _inverse_cdf(u: np.ndarray, cdf: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
    """``values[i]`` for the index i that ``Generator.choice`` draws for each
    u: the number of entries of ``cdf`` at or below u (``cdf[-1]`` is 1,
    above every u).  ``values`` ascend, and the result has their type; by
    default they are the indices, in the smallest unsigned type that also
    holds index + 1."""
    if values is None:
        values = np.arange(len(cdf), dtype=np.min_scalar_type(len(cdf)))
    out = np.full(u.shape, values[0])
    for c, rise in zip(cdf[:-1], np.diff(values)):
        out += (u >= c) * rise
    return out


def _sample_slice(rng: Generator, rows: int, s: int, cdf: np.ndarray, delays: np.ndarray,
                  words: bool):
    """The next ``rows`` samples of ``rng``'s stream, s uniforms each: their
    hit count, or with ``words`` their hit words in row order.  ``delays``
    has a type that holds s * max(delay), the largest running total."""
    u = rng.random((rows, s))
    # running totals over the steps, mapped straight to delays and transposed
    # to one contiguous row per step number (cheaper than gathering delays by
    # index): at_s[j] marks the samples at s after step j + 1, and totals rise
    # strictly, so a sample hits s at most once
    at_s = np.empty((s, rows), dtype=bool)
    total = np.zeros(rows, dtype=delays.dtype)
    for step, at in zip(_inverse_cdf(u, cdf, delays).T.copy(), at_s):
        total += step
        np.equal(total, s, out=at)
    if not words:
        return np.count_nonzero(at_s)
    # steps taken when each sample hits s, 0 for a miss
    step_no = np.arange(1, s + 1, dtype=delays.dtype)
    taken = (at_s * step_no[:, None]).sum(axis=0, dtype=delays.dtype)
    hit = np.flatnonzero(taken)
    # each hit word's symbols (delay index + 1) up to its last step, 0 after it
    hit_words = _inverse_cdf(u[hit], cdf) + 1
    hit_words *= step_no <= taken[hit, None]
    return hit_words


@dataclass(frozen=True)
class SamplingEstimate:
    estimate: np.ndarray
    stderr: np.ndarray
    n_samples: int


def xi_by_sampling(family, mal, s: int, n_samples: int, seed) -> SamplingEstimate:
    """Monte Carlo kernel estimate by importance-sampled backward paths,
    unbiased for every family.

    Steps are drawn i.i.d. from p = beta / sum(beta) until the running total
    reaches s.  A sample that hits s exactly along the word (d_1, ..., d_r)
    weighs exp(theta*s) N_{d_1} ... N_{d_r}, with N_d = W_d / p_d for the
    W_d = exp(-theta*d) M_d of ``mal.weighted``, and a miss weighs zero, so
    the mean weight is the sum of M_{d_1} ... M_{d_r} over the words
    spanning s, which is Xi(s).  On a family sharing P-F eigenvectors, beta
    sums to one and N_d = M_d / rho_d is the paper's normalized matrix; with
    one type every N_d is 1 in exact arithmetic, and a hit counts 1.  Raises
    HorizonTooLargeError when exp(theta*s) leaves the double range.

    Samples are assigned to fixed 2^16-sample blocks.  Block b, holding m
    samples, draws m * s uniforms, row-major, from
    ``Philox(SeedSequence((seed, b)))`` and maps each through the inverse CDF
    of p (the draw ``Generator.choice`` makes).  A block is drawn in
    consecutive slices of ``SAMPLING_SLICE`` rows from its one stream, so a
    slice holds the same doubles as the whole block at those rows and its
    arrays stay small.  One-type hit counts are summed as integers, and
    multi-type hit words are multiplied out in sample order whatever the
    chunking, so the result does not depend on the slice size.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    try:
        scale = math.exp(mal.theta * s)
    except OverflowError:
        raise HorizonTooLargeError(s, f"kernel scale exp(theta*s) = exp({mal.theta * s!r}) "
                                      f"leaves the double range at time {s}") from None
    n = family.n_types
    if s == 0:
        return SamplingEstimate(np.eye(n), np.zeros((n, n)), n_samples)

    delays = np.array(family.delays, dtype=np.min_scalar_type(s * max(family.delays)))
    probs = np.array([mal.beta[d] for d in family.delays])
    probs = probs / probs.sum()
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    # a delay whose beta underflowed to 0 is never drawn: its step stays zero
    steps = np.stack([w / p if p else np.zeros_like(w)
                      for w, p in zip(mal.weighted.values(), probs)]) if n > 1 else None

    sums = np.zeros((n, n))
    sq_sums = np.zeros((n, n))
    for block, first in enumerate(range(0, n_samples, SAMPLING_BLOCK)):
        rows = min(SAMPLING_BLOCK, n_samples - first)
        rng = Generator(Philox(SeedSequence((seed, block))))
        parts = [_sample_slice(rng, min(SAMPLING_SLICE, rows - lo), s, cdf, delays,
                               steps is not None)
                 for lo in range(0, rows, SAMPLING_SLICE)]
        if steps is None:  # one type: every step weight is 1
            hits = sum(parts)
            sums[0, 0] += hits
            sq_sums[0, 0] += hits
        else:
            _add_word_products(steps, np.concatenate(parts), sums[None], sq_sums[None])

    mean = sums / n_samples
    estimate = scale * mean
    if n_samples > 1:
        var = (sq_sums - n_samples * mean * mean) / (n_samples - 1)
        stderr = scale * np.sqrt(np.maximum(var, 0.0) / n_samples)
    else:
        stderr = np.full((n, n), np.nan)
    return SamplingEstimate(estimate=estimate, stderr=stderr, n_samples=n_samples)
