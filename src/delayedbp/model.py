"""Model definition for delayed multi-type branching processes.

A model couples four ingredients: the set of reproduction ages (delays), the
type space, the raw offspring laws per (parent type, child type, age), and the
lifetime/recovery law that censors reproduction after death.  From these the
censored mean matrices are derived; everything downstream (spectral analysis,
growth rates, mean recursions, simulation) consumes either the model or its
mean-matrix family.
"""

from __future__ import annotations

import contextlib
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import (DuplicateDelayError, HorizonTooLargeError, NegativeEntryError,
                     SchemaError, TailDivergesError)

_NORM_TOL = 1e-12
MAX_DELAY = 2 ** 53  # weights e^{-theta d} take d as a double, exact up to 2^53
_CSV_BREAKS = frozenset(',"\r\n')  # characters a type name must not hold


def _check_unit(field, values):
    """Raise SchemaError(field) unless every value lies in [0, 1]."""
    bad = [v for v in values if not 0.0 <= v <= 1.0]  # NaN is caught too
    if bad:
        raise SchemaError(field, f"entry {bad[0]!r} outside [0, 1]")


@dataclass(frozen=True)
class DelayFamily:
    """Ordered set of positive integer reproduction ages."""

    delays: tuple[int, ...]

    def __post_init__(self):
        try:
            delays = tuple(map(operator.index, self.delays))
        except TypeError:
            raise SchemaError("delays", f"entries must be integers, got {list(self.delays)}") from None
        if len(delays) == 0:
            raise SchemaError("delays", "at least one delay is required")
        if any(d < 1 for d in delays):
            raise SchemaError("delays", f"entries must be >= 1, got {list(delays)}")
        if max(delays) > MAX_DELAY:
            raise SchemaError("delays", f"entries must be <= 2^53, got {max(delays)}")
        if len(set(delays)) != len(delays):
            raise DuplicateDelayError(delays)
        object.__setattr__(self, "delays", tuple(sorted(delays)))

    @property
    def max_delay(self) -> int:
        return self.delays[-1]

    @property
    def gcd(self) -> int:
        return math.gcd(*self.delays)

    def __iter__(self):
        return iter(self.delays)

    def __len__(self):
        return len(self.delays)


@dataclass(frozen=True)
class LifetimeLaw:
    """Distribution of the convalescence time L and the death indicator.

    ``pmf[l]`` is P(L = l) for l = 0..L_max.  L is finite: with no
    ``tail_ratio`` the pmf must sum to 1, and with one the missing mass is
    placed on {L_max+1, L_max+2, ...} as a geometric tail with that ratio:
    P(L > c) = (1 - sum(pmf)) * tail_ratio**(c - L_max) for c >= L_max.

    ``death_prob`` gives P(death | L = l) for l >= 1, either as a single
    constant or as a sequence indexed from l = 1 (values past the end repeat
    the last entry).  Individuals with L = 0 are asymptomatic and never die.
    """

    pmf: tuple[float, ...]
    tail_ratio: float | None = None
    death_prob: float | tuple[float, ...] = 0.0

    def __post_init__(self):
        pmf = tuple(float(p) for p in self.pmf)
        if len(pmf) == 0:
            raise SchemaError("lifetime.pmf", "must have at least one entry")
        _check_unit("lifetime.pmf", pmf)  # also keeps fsum below overflow
        total = math.fsum(pmf)
        if self.tail_ratio is None:
            if abs(total - 1.0) > _NORM_TOL:
                raise SchemaError("lifetime.pmf",
                                  f"sums to {total!r} with no tail_ratio to absorb the rest")
        else:
            if total > 1.0 + _NORM_TOL:
                raise SchemaError("lifetime.pmf", f"sums to {total!r} > 1")
            q = float(self.tail_ratio)
            if not (0.0 <= q < 1.0):
                raise SchemaError("lifetime.tail_ratio", f"must lie in [0, 1), got {q!r}")
            object.__setattr__(self, "tail_ratio", q)
        object.__setattr__(self, "pmf", pmf)
        dp = self.death_prob
        dp = float(dp) if isinstance(dp, (int, float)) else tuple(float(x) for x in dp)
        _check_unit("lifetime.death_prob", dp if isinstance(dp, tuple) else (dp,))
        object.__setattr__(self, "death_prob", dp)

    @property
    def max_finite(self) -> int:
        """Largest lifetime covered by the explicit pmf."""
        return len(self.pmf) - 1

    @cached_property
    def tail_mass(self) -> float:
        if self.tail_ratio is None:
            return 0.0
        return max(0.0, 1.0 - math.fsum(self.pmf))

    @cached_property
    def _survival_head(self) -> tuple[float, ...]:
        """P(L > c) for c < L_max, from exactly rounded prefix sums: every entry
        is an integer multiple of 1/den, so each sum is exact and s / den rounds once."""
        ratios = [p.as_integer_ratio() for p in self.pmf[:-1]]
        den = max([d for _, d in ratios], default=1)
        sums = accumulate([n * (den // d) for n, d in ratios])
        return tuple([max(0.0, 1.0 - s / den) for s in sums])

    def tables(self, ages: int) -> tuple[np.ndarray, np.ndarray]:
        """P(L = l) and P(death | L = l) for l = 0..ages-1, as numpy arrays.

        P(L = l) is the explicit pmf, then the geometric tail
        P(L = L_max + k) = tail_mass (1 - q) q^(k-1).  P(death | L = l) is 0 at
        l = 0 (asymptomatic individuals never die), then ``death_prob``.
        """
        pmf = np.zeros(ages)
        head = self.pmf[:ages]
        pmf[:len(head)] = head
        m, q = self.max_finite, self.tail_ratio
        if q is not None and ages > m + 1:
            pmf[m + 1:] = self.tail_mass * (1.0 - q) * q ** np.arange(ages - m - 1)
        dp = self.death_prob
        by_age = np.array((0.0, dp) if isinstance(dp, float) else (0.0, *dp))
        return pmf, by_age.take(np.arange(ages), mode="clip")  # the last entry repeats

    def weighted_survival(self, scale, theta: float, ages) -> np.ndarray:
        """Rows scale * P(L > c) e^{-theta c}, one per age c >= 0 in ``ages``,
        for a number or vector ``scale``: scale * (P(L > c) * e^{-theta c}), so
        at theta = 0 row c is scale * P(L > c) bit for bit.  Where e^{-theta c}
        overflows, or lifts a P(L > c) that underflowed, the row is taken in log
        space, with log P(L > c) in closed form on the geometric tail, so an
        entry is inf only where its true value passes the double range."""
        m, q, rem, head = self.max_finite, self.tail_ratio, self.tail_mass, self._survival_head
        rows = []
        for c in ages:
            f = head[c] if c < m else 0.0 if q is None else rem * q ** (c - m)
            log_f = (math.log(rem) + (c - m) * math.log(q) if q and rem and c >= m
                     else math.log(f) if f else -math.inf)
            rows.append(_times_exp(scale, f, log_f, -theta * c))
        return np.array(rows)

    def weighted_asymptomatic(self, scale, theta: float, ages) -> np.ndarray:
        """Rows scale * P(L = 0) e^{-theta c}, one per age c in ``ages``, by
        the rule of ``weighted_survival``."""
        p0 = self.pmf[0]
        log_p0 = math.log(p0) if p0 else -math.inf
        return np.array([_times_exp(scale, p0, log_p0, -theta * c) for c in ages])

    def weighted_survival_series(self, theta: float) -> float:
        """sum_{c>=0} P(L > c) e^{-theta c}: the ``weighted_survival`` rows
        c < L_max term by term, then the geometric tail from c = L_max as row
        L_max / (1 - q e^{-theta}).  Raises TailDivergesError when
        q e^{-theta} >= 1, and HorizonTooLargeError past the double range.
        """
        m = self.max_finite
        terms = list(self.weighted_survival(1.0, theta, range(m + 1)))
        if self.tail_mass > 0.0:
            q = self.tail_ratio
            ratio = float(_times_exp(1.0, q, math.log(q) if q else -math.inf, -theta))
            if ratio >= 1.0:
                raise TailDivergesError(f"geometric rate {ratio!r} >= 1 beyond the finite lifetime part")
            terms[m] /= 1.0 - ratio
        with contextlib.suppress(OverflowError):  # fsum's, on finite terms
            if (total := math.fsum(terms)) < math.inf:
                return total
        raise HorizonTooLargeError(
            m, f"the series sum_c P(L > c) e^{{-theta c}} passed the double range at age {m}")


def _times_exp(scale, factor: float, log_factor: float, exponent: float):
    """scale * (factor * e^exponent), the bracket taken first; in log space
    where e^exponent would overflow, or would lift a factor that underflowed,
    so the product is inf only where its true value passes the double range."""
    if exponent < 709.0 and (exponent <= 0.0 or factor >= sys.float_info.min
                             or log_factor == -math.inf):
        return scale * (factor * math.exp(exponent))
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(np.log(scale) + (log_factor + exponent))


@dataclass(frozen=True)
class OffspringLaw:
    """Raw (uncensored) offspring count laws z_d^{i,j}.

    One law per (parent type i, child type j, delay d), all of a single kind:

    * ``kind="poisson"``: ``means[d][i, j]`` is the Poisson mean.
    * ``kind="pmf"``: ``pmfs[d][i][j]`` is an explicit finite pmf over
      {0, 1, ..., len-1}.
    """

    kind: str
    means: dict[int, np.ndarray] | None = None
    pmfs: dict[int, list[list[tuple[float, ...]]]] | None = None

    def __post_init__(self):
        if self.kind not in ("poisson", "pmf"):
            raise SchemaError("offspring.kind", f"must be 'poisson' or 'pmf', got {self.kind!r}")
        table = "means" if self.kind == "poisson" else "pmfs"
        if getattr(self, table) is None:
            raise SchemaError(f"offspring.{table}", "missing required field")
        if self.kind == "poisson":
            means = {int(d): np.asarray(m, dtype=float) for d, m in self.means.items()}
            for d, m in means.items():
                if m.ndim != 2 or m.shape[0] != m.shape[1]:
                    raise SchemaError(f"offspring.means.{d}", "must be a square matrix")
                rows = np.flatnonzero(~np.isfinite(m).all(axis=1))
                if rows.size:
                    raise SchemaError(f"offspring.means.{d}[{rows[0]}]", "entries must be finite")
                if np.any(m < 0):
                    i = int(np.flatnonzero((m < 0).any(axis=1))[0])
                    raise NegativeEntryError(f"offspring.means.{d}[{i}]", float(m[i].min()))
                m.setflags(write=False)
            object.__setattr__(self, "means", means)
        else:
            pmfs = {int(d): [[tuple(float(p) for p in cell) for cell in row] for row in grid]
                    for d, grid in self.pmfs.items()}
            for d, grid in pmfs.items():
                for i, row in enumerate(grid):
                    for j, cell in enumerate(row):
                        path = f"offspring.pmfs.{d}[{i}][{j}]"
                        _check_unit(path, cell)  # also keeps fsum below overflow
                        if abs(math.fsum(cell) - 1.0) > _NORM_TOL:
                            raise SchemaError(path, f"sums to {math.fsum(cell)!r}")
            object.__setattr__(self, "pmfs", pmfs)

    @property
    def delays_covered(self) -> tuple[int, ...]:
        table = self.means if self.kind == "poisson" else self.pmfs
        return tuple(sorted(table))

    def n_types(self) -> int:
        table = self.means if self.kind == "poisson" else self.pmfs
        return len(next(iter(table.values())))


@dataclass(frozen=True)
class ModelSpec:
    """Complete process description; immutable once constructed."""

    type_names: tuple[str, ...]
    delay_family: DelayFamily
    offspring: OffspringLaw
    lifetime: LifetimeLaw
    initial: int | tuple[float, ...] = 0

    def __post_init__(self):
        names = tuple(str(t) for t in self.type_names)
        if len(names) == 0:
            raise SchemaError("types", "at least one type is required")
        for name in names:  # each name is one CSV cell, told apart from the others
            if not _CSV_BREAKS.isdisjoint(name):
                raise SchemaError("types", f"name {name!r} holds a comma, quote, CR or LF")
        if len(set(names)) < len(names):
            twice = next(t for i, t in enumerate(names) if t in names[:i])
            raise SchemaError("types", f"name {twice!r} is given twice")
        object.__setattr__(self, "type_names", names)
        n = len(names)
        covered = self.offspring.delays_covered
        for d in sorted(set(covered) ^ set(self.delay_family)):  # the first mismatch
            if d not in covered:
                raise SchemaError(f"offspring.{d}", f"no offspring law for delay {d} (key missing)")
            table = "means" if self.offspring.kind == "poisson" else "pmfs"
            raise SchemaError(f"offspring.{table}.{d}", f"delay {d} is not in delays")
        if self.offspring.n_types() != n:
            raise SchemaError(
                "offspring", f"law is for {self.offspring.n_types()} types, model has {n}")
        init = self.initial
        if isinstance(init, (int, np.integer)):
            if not (0 <= init < n):
                raise SchemaError("initial", f"type index {init} out of range")
            object.__setattr__(self, "initial", int(init))
        else:
            init = tuple(float(x) for x in init)
            if len(init) != n:
                raise SchemaError("initial", f"length {len(init)} != type count {n}")
            if not all(map(math.isfinite, init)):
                raise SchemaError("initial", "entries must be finite")
            if any(x < 0 for x in init):
                raise NegativeEntryError("initial", min(init))
            object.__setattr__(self, "initial", init)

    @property
    def n_types(self) -> int:
        return len(self.type_names)

    @cached_property
    def offspring_table(self) -> np.ndarray:
        """The offspring laws of the model's delays as one read-only array,
        built once: Poisson means as (delays, n, n), or pmfs as (delays, n,
        n, K), padded with zeros to the longest pmf and normalized along the
        last axis."""
        off, delays = self.offspring, self.delay_family.delays
        if off.kind == "poisson":
            table = np.array([off.means[d] for d in delays])
        else:
            cells = [cell for d in delays for row in off.pmfs[d] for cell in row]
            table = np.zeros((len(cells), max(map(len, cells))))
            for k, cell in enumerate(cells):
                table[k, :len(cell)] = cell
            table = table.reshape(len(delays), self.n_types, self.n_types, -1)
            table /= table.sum(axis=-1, keepdims=True)
        table.setflags(write=False)
        return table

    def initial_mean_vector(self) -> np.ndarray:
        """E[X(0)] as a row vector."""
        if isinstance(self.initial, int):
            e = np.zeros(self.n_types)
            e[self.initial] = 1.0
            return e
        return np.array(self.initial, dtype=float)


@dataclass(frozen=True)
class MeanMatrixFamily:
    """Censored mean matrices (M_d : d in the delay set).

    Matrices are stored in delay order; ``matrix(d)`` fetches by delay and
    returns the zero matrix for delays outside the family.  Every stored
    matrix is validated square and nonnegative at construction; the P-F
    solves that need irreducibility check it (``spectral.family_pf``).
    """

    delays: tuple[int, ...]
    matrices: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        delays = DelayFamily(self.delays).delays  # integers in [1, 2^53], no duplicate
        if list(delays) != list(self.delays):
            raise SchemaError("delays", f"must be strictly increasing, got {list(self.delays)}")
        mats = []
        n = None
        for d, m in zip(delays, self.matrices, strict=True):
            m = np.array(m, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"matrix at delay {d} is not square")
            if n is None:
                n = m.shape[0]
            elif m.shape[0] != n:
                raise ValueError("matrices have inconsistent sizes")
            if np.any(m < 0):
                raise NegativeEntryError(f"M[{d}]", float(m.min()))
            m.setflags(write=False)
            mats.append(m)
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "matrices", tuple(mats))

    @property
    def n_types(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def max_delay(self) -> int:
        return self.delays[-1]

    def matrix(self, d: int) -> np.ndarray:
        """M_d, or the zero matrix for d outside the delay set."""
        try:
            return self.matrices[self.delays.index(d)]
        except ValueError:
            return np.zeros((self.n_types, self.n_types))

    def items(self):
        return zip(self.delays, self.matrices)


# ages summed term by term past the explicit pmf and death table; the rest of
# the geometric tail is added in closed form
_TERMWISE_AGES = 64


def death_prob_by_age(lifetime: LifetimeLaw, d: int) -> float:
    """P(L <= d, death) = sum_{l=1..d} P(L = l) P(death | L = l).

    This is the probability that an individual has died by age d and is
    therefore censored from reproducing at ages >= d.  Beyond a cutoff past
    the explicit pmf and death table both factors are geometric or constant,
    so the remainder sum_{l=c+1..d} is tail_mass dp q^(c-L_max) (1 - q^(d-c)).
    """
    if d < 1:
        raise ValueError("age must be >= 1")
    dp = lifetime.death_prob
    table = 1 if isinstance(dp, float) else len(dp)
    cut = min(d, max(len(lifetime.pmf), table) + _TERMWISE_AGES)
    pmf, death = lifetime.tables(cut + 1)
    terms = (pmf[1:] * death[1:]).tolist()
    q = lifetime.tail_ratio
    if d > cut and q:  # past the cut P(death | L = l) stays at death[cut]
        terms.append(lifetime.tail_mass * float(death[cut])
                     * q ** (cut - lifetime.max_finite)
                     * -math.expm1((d - cut) * math.log(q)))
    return math.fsum(terms)


def censored_mean_matrices(model: ModelSpec) -> MeanMatrixFamily:
    """Derive M_d(i,j) = E[z_d^{i,j}] * (1 - P(L <= d, death)) for every delay,
    with E[z_d] read from ``offspring_table``, the laws the simulator draws
    from."""
    table = model.offspring_table
    means = table if model.offspring.kind == "poisson" else table @ np.arange(table.shape[-1])
    lt, delays = model.lifetime, model.delay_family.delays
    # P(L <= d, death) may round above one on a pmf that sums to 1 + 1e-12
    return MeanMatrixFamily(delays, tuple(m * max(0.0, 1.0 - death_prob_by_age(lt, d))
                                          for d, m in zip(delays, means)))


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    status: str  # "pass" | "warn" | "fail"
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def __str__(self):
        return "\n".join(f"[{c.status}] {c.name}: {c.detail}" for c in self.checks)


def validate(model: ModelSpec) -> ValidationReport:
    """Check the standing assumptions; failures are reported, never raised.

    Every rule the model constructors enforce reads as a pass.  The delay
    check warns when the family is periodic, which it can be with gcd 1: its
    detail adds the period when that differs from the gcd.
    """
    from .spectral import is_irreducible, period

    delays = model.delay_family.delays
    family = censored_mean_matrices(model)
    irreducible = [is_irreducible(m) for m in family.matrices]
    g = model.delay_family.gcd
    p = period(family) if all(irreducible) else g
    checks = [ValidationCheck(
        "delay gcd", "pass" if p == 1 else "warn",
        f"gcd({list(delays)}) = {g}" + (f"; period {p}" if p != g else ""))]

    # LifetimeLaw and OffspringLaw reject an unnormalized pmf at construction
    checks.append(ValidationCheck("lifetime mass", "pass", "P(L < inf) = 1.0"))

    p_pos = float(model.lifetime.weighted_survival(1.0, 0.0, (0,))[0])
    checks.append(ValidationCheck(
        "nontrivial lifetime", "pass" if p_pos > 0 else "warn",
        f"P(L > 0) = {p_pos!r}"))

    checks.append(ValidationCheck(
        "offspring pmf normalization", "pass",
        "all normalized" if model.offspring.kind == "pmf" else "poisson laws are normalized"))

    for d, ok in zip(delays, irreducible):
        checks.append(ValidationCheck(
            f"irreducibility of M_{d}", "pass" if ok else "fail",
            "irreducible" if ok else "reducible"))

    return ValidationReport(tuple(checks))
