"""Independent references and the correctness check of every op.

Nothing here imports delayedbp: mean matrices, renewal recursions, companion
eigenvalues, path counts and run statistics are recomputed from the config
documents with numpy and the standard library.  A check returns ``None`` when
the op's output is correct and a one-line reason otherwise.  A Monte Carlo
mean that misses the exact mean is reported as a ``MonteCarloMiss`` reason,
the one failure that an op marked as a known defect is allowed.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import cached_property

import numpy as np

PHI = (1.0 + 5.0 ** 0.5) / 2.0
RHO_RTOL = 1e-9           # rho_hat against the companion eigenvalue
GOLDEN_TOL = 1e-12        # Fibonacci rho_hat against the golden ratio
GAP_TOL = 1e-6            # limits: empirical gap at the horizon
EXACT_RTOL = 1e-9         # emitted trajectories against the renewal recursion
KERNEL_RTOL = 1e-12       # enumeration / xi_kernel against the renewal kernel
SE_PULL = 4.0             # Monte Carlo estimates: allowed pull in standard errors
MC_CELL_SHARE = 0.95      # share of Monte Carlo cells that must lie within the pull


class MonteCarloMiss(str):
    """Reason of a ``simulate`` op whose mean_x misses the exact means."""


# ---------------------------------------------------------------------------
# strict parsing of the program's output


def _strict_float(text: str) -> float:
    """A float token must be the 17-significant-digit rendering of itself."""
    x = float(text)
    if f"{x:.17g}" != text:
        raise ValueError(f"float {text!r} is not in 17-digit form")
    return x


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_json(text: str):
    return json.loads(text, parse_float=_strict_float,
                      parse_constant=_reject_constant)


def parse_csv(text: str, header: tuple[str, ...], int_cols: int = 1,
              name_col: int | None = 1) -> list[list]:
    """Rows of a CSV the program emitted; every cell must parse exactly."""
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != ",".join(header):
        raise ValueError(f"bad CSV header or missing final newline: {lines[0]!r}")
    rows = []
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"CSV row has {len(cells)} cells: {line!r}")
        row = []
        for k, c in enumerate(cells):
            if k == name_col:
                row.append(c)
            elif k < int_cols or (name_col is not None and k < name_col):
                row.append(int(c))
            else:
                row.append(_strict_float(c))
        rows.append(row)
    return rows


def _rel_err(a, b) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    return float(np.max(np.abs(a - b))) / scale if scale > 0 else float(np.max(np.abs(a)))


def _cellwise_close(a, b, rtol) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.abs(b)))


# ---------------------------------------------------------------------------
# the model, recomputed from its config


def renewal(mats, delays, source) -> np.ndarray:
    """v[s] = source[s] + sum_d v[s-d] @ M_d for s = 0..len(source)-1.

    ``source`` has shape (S+1, ...) and the matrices act on its last axis.
    """
    v = np.array(source, dtype=float)
    for s in range(len(v)):
        for d, m in zip(delays, mats):
            if s >= d:
                v[s] += v[s - d] @ m
    return v


class Model:
    """Censored mean matrices and lifetime law of one config document."""

    def __init__(self, doc: dict):
        self.delays = tuple(sorted(doc["delays"]))
        self.n = len(doc["types"])
        lt = doc["lifetime"]
        self.pmf = [float(p) for p in lt["pmf"]]
        self.q = lt.get("tail_ratio")
        self.death = lt.get("death_prob", 0.0)
        off = doc["offspring"]
        raw = {}
        for d in self.delays:
            if off["kind"] == "poisson":
                raw[d] = np.array(off["means"][str(d)], dtype=float)
            else:
                raw[d] = np.array([[sum(k * p for k, p in enumerate(cell))
                                    for cell in row]
                                   for row in off["pmfs"][str(d)]])
        self.mats = tuple(
            raw[d] * (1.0 - sum(self.prob(l) * self.death_at(l)
                                for l in range(1, d + 1)))
            for d in self.delays)
        init = doc.get("initial", 0)
        self.x0 = np.zeros(self.n)
        if isinstance(init, list):
            self.x0[:] = init
        else:
            self.x0[init] = 1.0

    def prob(self, l: int) -> float:
        """P(L = l), with the geometric tail past the explicit pmf."""
        if l < len(self.pmf):
            return self.pmf[l]
        if self.q is None:
            return 0.0
        return (1.0 - sum(self.pmf)) * (1.0 - self.q) * self.q ** (l - len(self.pmf))

    def survival(self, c: int) -> float:
        """P(L > c); past the explicit pmf the leftover mass decays by q per
        step, in closed form so that long horizons keep full relative
        precision."""
        last = len(self.pmf) - 1
        if c < last:
            return 1.0 - math.fsum(self.pmf[:c + 1])
        rest = max(0.0, 1.0 - math.fsum(self.pmf))
        return rest if self.q is None else rest * self.q ** (c - last)

    def death_at(self, l: int) -> float:
        if l <= 0:
            return 0.0
        dp = self.death
        return float(dp) if not isinstance(dp, list) else float(dp[min(l, len(dp)) - 1])

    @cached_property
    def rho_d(self) -> dict[int, float]:
        return {d: float(np.max(np.abs(np.linalg.eigvals(m))))
                for d, m in zip(self.delays, self.mats)}

    @cached_property
    def rho_hat(self) -> float:
        """Spectral radius of the block companion matrix on {1..D} x types."""
        n, big_d = self.n, self.delays[-1]
        comp = np.zeros((big_d * n, big_d * n))
        for e in range(1, big_d):
            comp[(e - 1) * n:e * n, e * n:(e + 1) * n] = np.eye(n)
        for d, m in zip(self.delays, self.mats):
            comp[(d - 1) * n:d * n, 0:n] = m
        return float(np.max(np.abs(np.linalg.eigvals(comp))))

    def means(self, horizon: int) -> dict[str, np.ndarray]:
        """E[X], E[Z], E[Y] by the renewal recursion with their own sources."""
        cache = self.__dict__.setdefault("_means", {})
        if horizon not in cache:
            s = np.arange(horizon + 1)
            src_x = np.zeros((horizon + 1, self.n))
            src_x[0] = self.x0
            surv = np.array([self.survival(c) for c in s])
            src_z = surv[:, None] * self.x0
            src_y = np.where(s <= self.delays[-1], self.prob(0), 0.0)[:, None] * self.x0
            cache[horizon] = {k: renewal(self.mats, self.delays, src)
                              for k, src in (("x", src_x), ("z", src_z), ("y", src_y))}
        return cache[horizon]

    def kernel(self, s: int) -> np.ndarray:
        """Xi(s) by the matrix renewal Xi(t) = [t = 0] I + sum_d Xi(t-d) M_d."""
        src = np.zeros((s + 1, self.n, self.n))
        src[0] = np.eye(self.n)
        return renewal(self.mats, self.delays, src)[s]


# ---------------------------------------------------------------------------
# path combinatorics by brute force


def words(delays, s: int):
    """Every word over ``delays`` summing to s, by itertools.product."""
    lo = -(-s // max(delays))
    for r in range(lo, s // min(delays) + 1):
        for w in itertools.product(delays, repeat=r):
            if sum(w) == s:
                yield w


def has_run(w, kappa: int) -> bool:
    return any(len(set(w[i:i + kappa])) == 1 for i in range(len(w) - kappa + 1))


def block_pass(w, delays, upsilon, alpha, delta) -> bool:
    beta = alpha
    for _ in range(upsilon):
        beta *= 1.0 - beta
    size = 2 ** upsilon
    blocks = [w[i:i + size] for i in range(0, len(w) // size * size, size)]
    need = (1.0 - delta) * beta * len(blocks)
    return any(sum(all(x == d for x in b) for b in blocks) >= need for d in delays)


def class_counts(delays, s: int, pred=None) -> dict[tuple, list[int]]:
    """{step counts: [hits, words]} over all words summing to s."""
    out: dict[tuple, list[int]] = {}
    for w in words(delays, s):
        key = tuple(w.count(d) for d in delays)
        cell = out.setdefault(key, [0, 0])
        cell[1] += 1
        if pred is not None and pred(w):
            cell[0] += 1
    return out


def renewal_hit_ratio(beta: dict[int, float], s: int) -> float:
    """P(an i.i.d. beta walk hits s exactly): u_0 = 1, u_t = sum_d beta_d u_{t-d}."""
    u = [1.0]
    for t in range(1, s + 1):
        u.append(sum(b * u[t - d] for d, b in beta.items() if t >= d))
    return u[s]


def beta_of(model: Model) -> dict[int, float]:
    return {d: model.rho_d[d] * model.rho_hat ** (-d) for d in model.delays}


# ---------------------------------------------------------------------------
# checks, one per op kind


class Checker:
    """Runs each op's check against references cached per config file."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.models: dict[str, Model] = {}
        self.brute: dict[tuple, dict] = {}

    def model(self, config: str) -> Model:
        if config not in self.models:
            self.models[config] = Model(json.loads((self.workdir / config).read_text()))
        return self.models[config]

    def check(self, op, rc, result) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            return getattr(self, f"_check_{op.check}")(op, result)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"

    def _read(self, op, k=0) -> str:
        return (self.workdir / op.outputs[k]).read_text()

    # -- exact ----------------------------------------------------------

    def _check_validate(self, op, _):
        doc = parse_json(self._read(op))
        m = self.model(op.config)
        if doc["ok"] is not True or len(doc["checks"]) != 4 + len(m.delays):
            return f"validate report {doc['ok']} with {len(doc['checks'])} checks"
        bad = [c["name"] for c in doc["checks"] if c["status"] != "pass"]
        return f"checks not passing: {bad}" if bad else None

    def _check_spectral(self, op, _):
        doc = parse_json(self._read(op))
        m = self.model(op.config)
        for d, mat in zip(m.delays, m.mats):
            pf = doc["per_delay"][str(d)]
            rho, h, nu = pf["rho"], np.array(pf["h"]), np.array(pf["nu"])
            if abs(rho - m.rho_d[d]) > RHO_RTOL * m.rho_d[d]:
                return f"rho_{d} {rho!r} vs eigvals {m.rho_d[d]!r}"
            if (np.max(np.abs(mat @ h - rho * h)) > RHO_RTOL * rho * np.max(h)
                    or np.max(np.abs(nu @ mat - rho * nu)) > RHO_RTOL * rho * np.max(nu)
                    or abs(nu.sum() - 1.0) > RHO_RTOL or abs(nu @ h - 1.0) > RHO_RTOL):
                return f"P-F vectors at delay {d} fail the eigen-equations"
        if doc["shared"]["shared"] is not op.params["shared"]:
            return f"shared = {doc['shared']['shared']}, expected {op.params['shared']}"
        commute = all(np.max(np.abs(a @ b - b @ a).sum(axis=1)) <= 1e-10
                      for a, b in itertools.combinations(m.mats, 2))
        if doc["commute"] is not commute:
            return f"commute = {doc['commute']}, expected {commute}"
        return None

    def _check_malthusian(self, op, _):
        doc = parse_json(self._read(op))
        m = self.model(op.config)
        rho_hat = doc["rho_hat"]
        if abs(rho_hat - m.rho_hat) > RHO_RTOL * m.rho_hat:
            return f"rho_hat {rho_hat!r} vs companion eigvals {m.rho_hat!r}"
        if op.params.get("golden") and abs(rho_hat - PHI) > GOLDEN_TOL:
            return f"Fibonacci rho_hat {rho_hat!r} vs golden ratio {PHI!r}"
        if abs(doc["theta"] - math.log(rho_hat)) > 1e-12:
            return "theta != log(rho_hat)"
        if doc["companion_residual"] > RHO_RTOL * rho_hat:
            return f"companion_residual {doc['companion_residual']!r}"
        beta = {int(d): b for d, b in doc["beta"].items()}
        if _rel_err([beta[d] for d in m.delays], list(beta_of(m).values())) > 1e-8:
            return f"beta {beta} vs reference {beta_of(m)}"
        if op.params["shared"] and (abs(sum(beta.values()) - 1.0) > 1e-9 or doc["warnings"]):
            return f"shared family but beta sums to {sum(beta.values())!r}"
        regime = "supercritical" if m.rho_hat > 1.0 else "subcritical"
        return None if doc["regime"] == regime else f"regime {doc['regime']}"

    def _check_evolve(self, op, _):
        h = op.params["horizon"]
        rows = parse_csv(self._read(op), ("s", "type", "ex", "ez", "ey", "wx", "wz", "wy"))
        m = self.model(op.config)
        ref = m.means(h)
        if len(rows) != (h + 1) * m.n:
            return f"{len(rows)} CSV rows, expected {(h + 1) * m.n}"
        got = np.array([r[2:] for r in rows]).reshape(h + 1, m.n, 6)
        weight = np.exp(-math.log(m.rho_hat) * np.arange(h + 1))[:, None]
        for k, name in enumerate("xzy"):
            if not _cellwise_close(got[:, :, k], ref[name], EXACT_RTOL):
                return f"e{name} differs from the renewal recursion"
            if not _cellwise_close(got[:, :, k + 3], ref[name] * weight, 1e-8):
                return f"w{name} differs from the weighted recursion"
        return None

    def _check_limits(self, op, _):
        doc = parse_json(self._read(op))
        h = op.params["horizon"]
        gap = doc["empirical_gap"]
        if doc["horizon"] != h or max(gap.values()) > GAP_TOL:
            return f"empirical_gap {gap}"
        m = self.model(op.config)
        wx = m.means(h)["x"][h] * m.rho_hat ** (-h)
        if np.max(np.abs(np.array(doc["limit_x"]) - wx)) > GAP_TOL:
            return "limit_x differs from the weighted trajectory at the horizon"
        return None

    # -- ensemble -------------------------------------------------------

    def _check_simulate(self, op, _):
        p = op.params
        h, n_rep = p["horizon"], p["replicas"]
        m = self.model(op.config)
        rows = parse_csv(self._read(op), ("s", "type", "mean_x", "se_x", "mean_z",
                                          "se_z", "mean_y", "se_y"))
        if len(rows) != (h + 1) * m.n:
            return f"{len(rows)} CSV rows, expected {(h + 1) * m.n}"
        got = np.array([r[2:] for r in rows]).reshape(h + 1, m.n, 6)
        mean, se = got[:, :, 0], got[:, :, 1]
        exact = m.means(h)["x"]
        # a cell never observed nonzero in n_rep replicas cannot resolve a
        # mean below 3 / n_rep
        within = (np.abs(mean - exact) <= SE_PULL * se + 1e-12 * exact) | \
            ((mean == 0) & (se == 0) & (exact <= 3.0 / n_rep))
        share = float(within.mean())
        if share < MC_CELL_SHARE:
            return MonteCarloMiss(
                f"mean_x within {SE_PULL} SE on {share:.1%} of cells; "
                f"mean_x[{h}] = {mean[h].tolist()} vs exact {exact[h].tolist()}")
        if p["dump"]:
            dump = parse_csv(self._read(op, 1), ("replica", "s", "type", "x", "z", "y"),
                             int_cols=2, name_col=2)
            if len(dump) != n_rep * (h + 1) * m.n:
                return f"dump holds {len(dump)} rows"
            x = np.array([r[3] for r in dump], dtype=float).reshape(n_rep, h + 1, m.n)
            if not np.allclose(x.mean(axis=0), mean, rtol=1e-12, atol=0):
                return "dumped replicas do not average to mean_x"
        return None

    def _check_consistency(self, op, result):
        records, report = result
        alive = sum(not r.truncated for r in records)
        if len(records) != op.params["replicas"] or report.replicas_checked != alive:
            return f"{report.replicas_checked} of {len(records)} replicas checked"
        return None if report.ok else f"violations: {report.violations[:3]}"

    # -- oracles --------------------------------------------------------

    def _paths_common(self, op, doc, pred=None, key=None):
        m = self.model(op.config)
        s = op.params["s"]
        brute = self.brute.setdefault(
            key or (op.config, s), class_counts(m.delays, s, pred))
        classes = {tuple(c["counts"]): c["words"] for c in doc["classes"]}
        if doc["s"] != s or classes != {k: v[1] for k, v in brute.items()}:
            return None, "path classes differ from the brute-force enumeration"
        if [c["counts"] for c in doc["classes"]] != sorted(map(list, brute)):
            return None, "path classes are not in lexicographic order"
        return brute, None

    def _check_run_fraction(self, op, _):
        doc = parse_json(self._read(op))
        kappa = op.params["kappa"]
        brute, err = self._paths_common(
            op, doc, lambda w: has_run(w, kappa), (op.config, op.params["s"], "kappa", kappa))
        if err:
            return err
        rf = doc["run_fraction"]
        want = {str(list(k)): Fraction(*v) for k, v in brute.items()}
        for key, frac in want.items():
            got = rf["by_class"][key]
            if (got["numerator"], got["denominator"]) != (frac.numerator, frac.denominator) \
                    or got["value"] != float(frac):
                return f"run fraction of class {key}: {got} vs {frac}"
        lo = min(want.values())
        if (rf["min"]["numerator"], rf["min"]["denominator"]) != (lo.numerator, lo.denominator) \
                or len(rf["by_class"]) != len(want) or rf["kappa"] != kappa:
            return "run fraction minimum or class set differs"
        return None

    def _check_block_run(self, op, _):
        doc = parse_json(self._read(op))
        p = op.params
        m = self.model(op.config)
        brute, err = self._paths_common(
            op, doc, lambda w: block_pass(w, m.delays, p["upsilon"], p["alpha"], p["delta"]),
            (op.config, p["s"], "block", p["upsilon"], p["alpha"], p["delta"]))
        if err:
            return err
        want = {str(list(k)): {"passing": v[0], "words": v[1]}
                for k, v in brute.items() if sum(k) > 2 ** p["upsilon"]}
        return None if doc["block_run"]["by_class"] == want else \
            "block-run counts differ from the brute-force count"

    def _check_sampling(self, op, _):
        doc = parse_json(self._read(op))
        _, err = self._paths_common(op, doc)
        if err:
            return err
        m = self.model(op.config)
        exact = np.array(doc["kernel_exact"])
        ref = m.kernel(op.params["s"])
        if _rel_err(exact, ref) > KERNEL_RTOL:
            return f"kernel_exact off the renewal kernel by {_rel_err(exact, ref):.2e}"
        est = doc["kernel_estimate"]
        mean, se = np.array(est["estimate"]), np.array(est["stderr"])
        if not np.all(np.abs(mean - ref) <= SE_PULL * se + KERNEL_RTOL * np.abs(ref)):
            return f"kernel estimate beyond {SE_PULL} SE of kernel_exact"
        return None

    def _check_xi_enumeration(self, op, result):
        total, per_r, kernel = result
        ref = self.model(op.config).kernel(op.params["s"])
        if _rel_err(kernel, ref) > KERNEL_RTOL:
            return f"xi_kernel off the renewal kernel by {_rel_err(kernel, ref):.2e}"
        if _rel_err(total, kernel) > KERNEL_RTOL:
            return f"enumeration off xi_kernel by {_rel_err(total, kernel):.2e}"
        if _rel_err(sum(per_r.values()), total) > KERNEL_RTOL:
            return "per-length parts do not add up to the kernel"
        return None
