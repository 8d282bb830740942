"""Model definition for delayed multi-type branching processes.

A model couples four ingredients: the set of reproduction ages (delays), the
type space, the raw offspring laws per (parent type, child type, age), and the
lifetime/recovery law that censors reproduction after death.  From these the
censored mean matrices are derived; everything downstream (spectral analysis,
growth rates, mean recursions, simulation) consumes either the model or its
mean-matrix family.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DuplicateDelayError, NegativeEntryError, NonIrreducibleError,
                     SchemaError)

_NORM_TOL = 1e-12


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

    @property
    def tail_mass(self) -> float:
        if self.tail_ratio is None:
            return 0.0
        return max(0.0, 1.0 - math.fsum(self.pmf))

    def prob(self, l: int) -> float:
        """P(L = l), including the geometric tail."""
        if l < 0:
            return 0.0
        if l <= self.max_finite:
            return self.pmf[l]
        q = self.tail_ratio
        if q is None or self.tail_mass == 0.0:
            return 0.0
        k = l - self.max_finite
        return self.tail_mass * (1.0 - q) * q ** (k - 1)

    def survival(self, c: int) -> float:
        """P(L > c); zero past the explicit pmf when there is no tail."""
        if c < 0:
            return 1.0
        if c < self.max_finite:
            return max(0.0, 1.0 - math.fsum(self.pmf[: c + 1]))
        if self.tail_ratio is None:
            return 0.0
        return self.tail_mass * self.tail_ratio ** (c - self.max_finite)

    def death_prob_at(self, l: int) -> float:
        """P(death | L = l); zero for l = 0 (asymptomatic individuals)."""
        if l <= 0:
            return 0.0
        dp = self.death_prob
        if isinstance(dp, float):
            return dp
        if len(dp) == 0:
            return 0.0
        return dp[min(l, len(dp)) - 1]

    def tables(self, ages: int) -> tuple[np.ndarray, np.ndarray]:
        """P(L = l) and P(death | L = l) for l = 0..ages-1, as numpy arrays.

        The same values as ``prob`` and ``death_prob_at``: the explicit pmf,
        then the geometric tail P(L = L_max + k) = tail_mass (1 - q) q^(k-1).
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

    def mean(self) -> float:
        """E[L]."""
        m = math.fsum(l * p for l, p in enumerate(self.pmf))
        if self.tail_mass > 0.0:
            m += self.tail_mass * (self.max_finite + 1.0 / (1.0 - self.tail_ratio))
        return m

    def weighted_survival_series(self, theta: float) -> float:
        """sum_{c>=0} P(L > c) * exp(-theta*c) in closed form.

        The finite part is summed term by term; the geometric tail collapses
        to tail_mass * exp(-theta*L_max) / (1 - q*exp(-theta)).  Raises
        TailDivergesError when q*exp(-theta) >= 1.
        """
        from .errors import TailDivergesError

        w = math.exp(-theta)
        total = math.fsum(self.survival(c) * w ** c for c in range(self.max_finite))
        rem = self.tail_mass
        if rem > 0.0:
            ratio = self.tail_ratio * w
            if ratio >= 1.0:
                raise TailDivergesError(
                    f"geometric rate {ratio!r} >= 1 beyond the finite lifetime part")
            total += rem * w ** self.max_finite / (1.0 - ratio)
        return total


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

    def mean_matrix(self, d: int) -> np.ndarray:
        """E[z_d^{i,j}] as an (n, n) array."""
        if self.kind == "poisson":
            return np.array(self.means[d], dtype=float)
        grid = self.pmfs[d]
        n = len(grid)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                out[i, j] = math.fsum(k * p for k, p in enumerate(grid[i][j]))
        return out


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
        object.__setattr__(self, "type_names", names)
        n = len(names)
        covered = self.offspring.delays_covered
        for d in self.delay_family:
            if d not in covered:
                raise SchemaError(f"offspring.{d}", f"no offspring law for delay {d} (key missing)")
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
    matrix is validated nonnegative and irreducible at construction.
    """

    delays: tuple[int, ...]
    matrices: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        from .spectral import is_irreducible  # deferred: spectral imports this module

        delays = tuple(int(d) for d in self.delays)
        if sorted(set(delays)) != list(delays):
            raise ValueError("delays must be strictly increasing and unique")
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
            if not is_irreducible(m):
                raise NonIrreducibleError(d)
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
    terms = [lifetime.prob(l) * lifetime.death_prob_at(l) for l in range(1, cut + 1)]
    q = lifetime.tail_ratio
    if d > cut and q:
        terms.append(lifetime.tail_mass * lifetime.death_prob_at(d)
                     * q ** (cut - lifetime.max_finite)
                     * -math.expm1((d - cut) * math.log(q)))
    return math.fsum(terms)


def censored_mean_matrices(model: ModelSpec) -> MeanMatrixFamily:
    """Derive M_d(i,j) = E[z_d^{i,j}] * (1 - P(L <= d, death)) for every delay.

    Raises NonIrreducibleError when any resulting matrix is reducible.
    """
    mats = tuple(_censored_matrix(model, d) for d in model.delay_family)
    return MeanMatrixFamily(tuple(model.delay_family), mats)


def _censored_matrix(model: ModelSpec, d: int) -> np.ndarray:
    return model.offspring.mean_matrix(d) * (1.0 - death_prob_by_age(model.lifetime, d))


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
    mats = {d: _censored_matrix(model, d) for d in delays}
    irreducible = [is_irreducible(m) for m in mats.values()]
    g = model.delay_family.gcd
    p = period(mats) if all(irreducible) else g
    checks = [ValidationCheck(
        "delay gcd", "pass" if p == 1 else "warn",
        f"gcd({list(delays)}) = {g}" + (f"; period {p}" if p != g else ""))]

    # LifetimeLaw and OffspringLaw reject an unnormalized pmf at construction
    checks.append(ValidationCheck("lifetime mass", "pass", "P(L < inf) = 1.0"))

    p_pos = model.lifetime.survival(0)
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
