"""Command-line front end.

Subcommands: validate, spectral, malthusian, evolve, limits, paths, simulate,
generate.  Models are described by a strict JSON config; any unknown field or
out-of-range value is rejected with a field path.  Scalar reports are emitted
as JSON and trajectories as CSV, floats always with 17 significant digits so
that values round-trip losslessly.  Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import malthusian as mal_mod
from . import paths as paths_mod
from . import recursion as rec_mod
from . import simulate as sim_mod
from . import spectral as spec_mod
from .errors import DelayedBPError, SchemaError
from .model import (DelayFamily, LifetimeLaw, ModelSpec, OffspringLaw,
                    censored_mean_matrices, death_prob_by_age, validate)

_MODEL_FIELDS = {"types", "delays", "offspring", "lifetime", "initial"}
_OFFSPRING_FIELDS = {"kind", "means", "pmfs"}
_LIFETIME_FIELDS = {"pmf", "tail_ratio", "death_prob"}


def _require(cond, field, message):
    if not cond:
        raise SchemaError(field, message)


def _is_number(v) -> bool:
    """A JSON number that converts to a finite double."""
    try:
        return isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:  # an integer beyond the double range
        return False


def _load_object(text: str, fields) -> dict:
    """Decode a JSON document whose top level is an object over ``fields``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("<document>", f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "<document>", "top level must be an object")
    unknown = set(doc) - fields
    _require(not unknown, sorted(unknown)[0] if unknown else "",
             "unknown field")
    return doc


def parse_config(text: str) -> ModelSpec:
    """Parse and validate a JSON model config into a ModelSpec."""
    doc = _load_object(text, _MODEL_FIELDS)
    for req in ("types", "delays", "offspring", "lifetime"):
        _require(req in doc, req, "missing required field")

    types = doc["types"]
    _require(isinstance(types, list) and types, "types", "must be a nonempty list")
    _require(all(isinstance(t, str) for t in types), "types", "entries must be strings")

    delays = doc["delays"]
    _require(isinstance(delays, list) and delays, "delays", "must be a nonempty list")
    _require(all(isinstance(d, int) and not isinstance(d, bool) and d >= 1
                 for d in delays),
             "delays", "entries must be integers >= 1")
    delay_family = DelayFamily(tuple(delays))  # raises DuplicateDelayError

    off_doc = doc["offspring"]
    _require(isinstance(off_doc, dict), "offspring", "must be an object")
    unknown = set(off_doc) - _OFFSPRING_FIELDS
    _require(not unknown, f"offspring.{sorted(unknown)[0]}" if unknown else "",
             "unknown field")
    kind = off_doc.get("kind")
    _require(kind in ("poisson", "pmf"), "offspring.kind",
             "must be 'poisson' or 'pmf'")
    n = len(types)
    if kind == "poisson":
        _require("means" in off_doc, "offspring.means", "missing required field")
        _require("pmfs" not in off_doc, "offspring.pmfs",
                 "not allowed for poisson kind")
        _require(isinstance(off_doc["means"], dict), "offspring.means",
                 "must be an object keyed by delay")
        means = {}
        for key, grid in off_doc["means"].items():
            d = _parse_delay_key(key, "offspring.means")
            arr = _parse_matrix(grid, n, f"offspring.means.{key}")
            means[d] = arr
        offspring = OffspringLaw(kind="poisson", means=means)
    else:
        _require("pmfs" in off_doc, "offspring.pmfs", "missing required field")
        _require("means" not in off_doc, "offspring.means",
                 "not allowed for pmf kind")
        _require(isinstance(off_doc["pmfs"], dict), "offspring.pmfs",
                 "must be an object keyed by delay")
        pmfs = {}
        for key, grid in off_doc["pmfs"].items():
            d = _parse_delay_key(key, "offspring.pmfs")
            path = f"offspring.pmfs.{key}"
            _require(isinstance(grid, list) and len(grid) == n, path,
                     f"must be a {n}x{n} grid of pmfs")
            for i, row in enumerate(grid):
                _require(isinstance(row, list) and len(row) == n,
                         f"{path}[{i}]", f"must hold {n} pmfs")
                for j, cell in enumerate(row):
                    _require(isinstance(cell, list) and cell,
                             f"{path}[{i}][{j}]", "must be a nonempty list")
                    _require(all(_is_number(p) and 0 <= p <= 1 for p in cell),
                             f"{path}[{i}][{j}]", "entries must be numbers in [0, 1]")
            pmfs[d] = grid
        offspring = OffspringLaw(kind="pmf", pmfs=pmfs)
    for d in delay_family:
        _require(d in offspring.delays_covered, f"offspring.{d}",
                 f"no offspring law for delay {d}")

    lifetime = _parse_lifetime(doc["lifetime"])

    initial = doc.get("initial", 0)
    if isinstance(initial, list):
        _require(all(_is_number(v) for v in initial),
                 "initial", "entries must be numbers")
        initial = tuple(float(v) for v in initial)
    else:
        _require(isinstance(initial, int) and not isinstance(initial, bool),
                 "initial", "must be a type index or a vector")

    try:
        return ModelSpec(type_names=tuple(types), delay_family=delay_family,
                         offspring=offspring, lifetime=lifetime, initial=initial)
    except ValueError as exc:
        raise SchemaError("<model>", str(exc)) from exc


def _parse_lifetime(lt_doc) -> LifetimeLaw:
    _require(isinstance(lt_doc, dict), "lifetime", "must be an object")
    unknown = set(lt_doc) - _LIFETIME_FIELDS
    _require(not unknown, f"lifetime.{sorted(unknown)[0]}" if unknown else "",
             "unknown field")
    _require("pmf" in lt_doc, "lifetime.pmf", "missing required field")
    pmf = lt_doc["pmf"]
    _require(isinstance(pmf, list) and pmf, "lifetime.pmf", "must be a nonempty list")
    _require(all(_is_number(p) and 0 <= p <= 1 for p in pmf),
             "lifetime.pmf", "entries must be numbers in [0, 1]")
    tail = lt_doc.get("tail_ratio")
    if tail is None:
        total = math.fsum(float(p) for p in pmf)
        _require(abs(total - 1.0) <= 1e-12, "lifetime.pmf",
                 f"sums to {total!r} with no tail_ratio to absorb the rest")
    else:
        _require(_is_number(tail), "lifetime.tail_ratio", "must be a number")
    dp = lt_doc.get("death_prob", 0.0)
    if isinstance(dp, list):
        _require(all(_is_number(x) for x in dp),
                 "lifetime.death_prob", "entries must be numbers")
        dp = tuple(float(x) for x in dp)
    else:
        _require(_is_number(dp), "lifetime.death_prob",
                 "must be a number or list")
    try:
        return LifetimeLaw(pmf=tuple(float(p) for p in pmf),
                           tail_ratio=None if tail is None else float(tail),
                           death_prob=dp)
    except ValueError as exc:
        raise SchemaError("lifetime", str(exc)) from exc


def _parse_delay_key(key, path):
    try:
        d = int(key)
    except (TypeError, ValueError):
        raise SchemaError(f"{path}.{key}", "key must be an integer delay") from None
    _require(d >= 1, f"{path}.{key}", "delay must be >= 1")
    return d


def _parse_matrix(grid, n, path):
    _require(isinstance(grid, list) and len(grid) == n, path,
             f"must be a {n}x{n} matrix")
    for i, row in enumerate(grid):
        _require(isinstance(row, list) and len(row) == n, f"{path}[{i}]",
                 f"must hold {n} numbers")
        _require(all(_is_number(v) for v in row),
                 f"{path}[{i}]", "entries must be numbers")
        _require(all(v >= 0 for v in row), f"{path}[{i}]", "entries must be >= 0")
    return np.array(grid, dtype=float)


def model_to_config(model: ModelSpec) -> dict:
    """Config document that parses back to an identical model."""
    if model.offspring.kind == "poisson":
        off = {"kind": "poisson",
               "means": {str(d): model.offspring.means[d].tolist()
                         for d in model.delay_family}}
    else:
        off = {"kind": "pmf",
               "pmfs": {str(d): [[list(cell) for cell in row]
                                 for row in model.offspring.pmfs[d]]
                        for d in model.delay_family}}
    lt = {"pmf": list(model.lifetime.pmf)}
    if model.lifetime.tail_ratio is not None:
        lt["tail_ratio"] = model.lifetime.tail_ratio
    dp = model.lifetime.death_prob
    lt["death_prob"] = list(dp) if isinstance(dp, tuple) else dp
    init = model.initial
    return {
        "types": list(model.type_names),
        "delays": list(model.delay_family.delays),
        "offspring": off,
        "lifetime": lt,
        "initial": list(init) if isinstance(init, tuple) else init,
    }


# ---------------------------------------------------------------------------
# output helpers


def _fmt_float(x: float) -> str:
    if x != x:
        return "null"
    if x in (float("inf"), float("-inf")):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def emit_json(obj, indent: int = 0) -> str:
    """JSON text with every float rendered to 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {emit_json(v, indent + 1)}'
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        return "[" + ", ".join(emit_json(v, indent) for v in seq) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append("" if v != v else f"{float(v):.17g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _load_model(path: str) -> ModelSpec:
    with open(path) as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    model = _load_model(args.config)
    report = validate(model)
    doc = {"ok": report.ok,
           "checks": [{"name": c.name, "status": c.status, "detail": c.detail}
                      for c in report.checks]}
    _write(emit_json(doc), args.out)
    return 0


def _cmd_spectral(args) -> int:
    model = _load_model(args.config)
    family = censored_mean_matrices(model)
    pf = spec_mod.family_pf(family, args.tol)
    shared = spec_mod.shared_pf_check(family)
    doc = {
        "per_delay": {
            str(d): {"rho": pf[d].rho, "h": pf[d].h, "nu": pf[d].nu,
                     "residual_right": pf[d].residual_right,
                     "residual_left": pf[d].residual_left}
            for d in family.delays},
        "shared": {
            "shared": shared.shared,
            "max_deviation": shared.max_deviation,
            "tolerance": shared.tolerance,
            "h": shared.h, "nu": shared.nu,
        },
        "commute": spec_mod.commute_check(family),
    }
    _write(emit_json(doc), args.out)
    return 0


def _cmd_malthusian(args) -> int:
    model = _load_model(args.config)
    family = censored_mean_matrices(model)
    sol = mal_mod.solve_malthusian(family)
    doc = {
        "rho_hat": sol.rho_hat,
        "theta": sol.theta,
        "beta": {str(d): b for d, b in sol.beta.items()},
        "mu_beta": sol.mu_beta,
        "regime": sol.regime,
        "companion_residual": sol.companion_residual,
        "warnings": list(sol.warnings),
    }
    _write(emit_json(doc), args.out)
    return 0


def _cmd_evolve(args) -> int:
    model = _load_model(args.config)
    family = censored_mean_matrices(model)
    traj = rec_mod.evolve_means(model, family, args.horizon)
    rows = []
    for s in range(args.horizon + 1):
        for j, name in enumerate(model.type_names):
            rows.append((s, name, traj.ex[s, j], traj.ez[s, j], traj.ey[s, j],
                         traj.wx[s, j], traj.wz[s, j], traj.wy[s, j]))
    _write(_csv(("s", "type", "ex", "ez", "ey", "wx", "wz", "wy"), rows), args.out)
    return 0


def _cmd_limits(args) -> int:
    model = _load_model(args.config)
    family = censored_mean_matrices(model)
    sol = mal_mod.solve_malthusian(family)
    rep = rec_mod.theorem_limits(model, family, sol, horizon=args.horizon)
    doc = {
        "limit_x": rep.limit_x,
        "limit_z": rep.limit_z,
        "limit_y": rep.limit_y,
        "type_limit": rep.type_limit,
        "age_limit": rep.age_limit,
        "empirical_gap": rep.empirical_gap,
        "horizon": rep.horizon,
    }
    _write(emit_json(doc), args.out)
    return 0


def _cmd_paths(args) -> int:
    model = _load_model(args.config)
    family = censored_mean_matrices(model)
    delays = family.delays
    classes = paths_mod.enumerate_lambda(delays, args.s, r=args.r)
    doc = {
        "s": args.s,
        "classes": [{"counts": list(k.counts), "r": k.r,
                     "words": paths_mod.multinomial_size(k)} for k in classes],
    }
    if args.kappa is not None:
        rf = paths_mod.run_fraction(delays, args.s, args.kappa)
        doc["run_fraction"] = {
            "kappa": args.kappa,
            "by_class": {str(list(c)): {"numerator": f.numerator,
                                        "denominator": f.denominator,
                                        "value": float(f)}
                         for c, f in rf.by_class.items()},
            "min": {"numerator": rf.minimum.numerator,
                    "denominator": rf.minimum.denominator,
                    "value": float(rf.minimum)},
        }
    if args.upsilon is not None:
        if args.alpha is None or args.delta is None:
            raise SchemaError("--upsilon", "requires --alpha and --delta")
        block = {}
        for k in classes:
            if k.r <= (1 << args.upsilon):
                continue
            words = paths_mod.enumerate_words(k)
            passing = sum(1 for w in words
                          if paths_mod.block_run_statistic(w, delays, args.upsilon,
                                                           args.alpha, args.delta))
            block[str(list(k.counts))] = {"passing": passing, "words": len(words)}
        doc["block_run"] = {"upsilon": args.upsilon, "alpha": args.alpha,
                            "delta": args.delta, "by_class": block}
    if args.samples is not None:
        if args.seed is None:
            raise SchemaError("--samples", "requires --seed")
        sol = mal_mod.solve_malthusian(family)
        est = paths_mod.xi_by_sampling(family, sol, args.s, args.samples, args.seed)
        doc["kernel_estimate"] = {"estimate": est.estimate, "stderr": est.stderr,
                                  "n_samples": est.n_samples}
        doc["kernel_exact"] = rec_mod.xi_kernel(family, args.s)
    _write(emit_json(doc), args.out)
    return 0


def _cmd_simulate(args) -> int:
    model = _load_model(args.config)
    records = sim_mod.replica_records(model, args.horizon, args.replicas, args.seed,
                                      pop_cap=args.pop_cap)
    if args.dump is not None:
        records = list(records)  # kept for the dump; otherwise streamed
    stats = sim_mod.summarize(records)
    rows = []
    for s in range(args.horizon + 1):
        for j, name in enumerate(model.type_names):
            rows.append((
                s, name,
                stats.mean_x[s, j],
                stats.se_x[s, j] if stats.se_x is not None else float("nan"),
                stats.mean_z[s, j],
                stats.se_z[s, j] if stats.se_z is not None else float("nan"),
                stats.mean_y[s, j],
                stats.se_y[s, j] if stats.se_y is not None else float("nan"),
            ))
    _write(_csv(("s", "type", "mean_x", "se_x", "mean_z", "se_z",
                 "mean_y", "se_y"), rows), args.out)
    if args.dump is not None:
        dump_rows = []
        for k, rec in enumerate(records):
            for s in range(args.horizon + 1):
                for j, name in enumerate(model.type_names):
                    dump_rows.append((k, s, name, rec.x[s, j], rec.z[s, j],
                                      rec.y[s, j]))
        _write(_csv(("replica", "s", "type", "x", "z", "y"), dump_rows), args.dump)
    return 0


def _cmd_generate(args) -> int:
    with open(args.input) as fh:
        doc = _load_object(fh.read(), {"P", "h", "nu", "rhos", "types", "lifetime",
                                       "initial"})
    for req in ("P", "rhos"):
        _require(req in doc, req, "missing required field")
    _require(("h" in doc) != ("nu" in doc), "h",
             "exactly one of 'h' (forward) or 'nu' (time-reversed) is required")
    _require(isinstance(doc["P"], list) and doc["P"], "P", "must be a square matrix")
    n = len(doc["P"])
    p = _parse_matrix(doc["P"], n, "P")
    key = "h" if "h" in doc else "nu"
    vec = doc[key]
    _require(isinstance(vec, list) and len(vec) == n and all(map(_is_number, vec)),
             key, f"must be a list of {n} numbers")
    _require(isinstance(doc["rhos"], dict) and doc["rhos"], "rhos",
             "must be a nonempty object keyed by delay")
    rhos = {}
    for k, value in doc["rhos"].items():
        _require(_is_number(value) and not isinstance(value, bool),
                 f"rhos.{k}", "must be a number")
        rhos[_parse_delay_key(k, "rhos")] = float(value)
    construct = {"h": spec_mod.construct_shared_family,
                 "nu": spec_mod.construct_shared_family_reversed}[key]
    family = construct(p, np.array(vec, dtype=float), rhos)

    types = doc.get("types", [f"t{i}" for i in range(n)])
    _require(isinstance(types, list) and len(types) == n, "types",
             f"must be a list of {n} names, one per row of P")
    lt_doc = doc.get("lifetime", {"pmf": [0.0, 1.0]})
    lifetime = _parse_lifetime(lt_doc)
    # raw means are inflated so that death censoring lands on the target family
    means = {}
    for d in family.delays:
        keep = 1.0 - death_prob_by_age(lifetime, d)
        _require(keep > 0, f"rhos.{d}",
                 "death censoring removes all reproduction at this delay")
        means[str(d)] = (family.matrix(d) / keep).tolist()
    config = {
        "types": types,
        "delays": list(family.delays),
        "offspring": {"kind": "poisson", "means": means},
        "lifetime": {k: v for k, v in (("pmf", lt_doc["pmf"]),
                                       ("tail_ratio", lt_doc.get("tail_ratio")),
                                       ("death_prob", lt_doc.get("death_prob", 0.0)))
                     if v is not None},
        "initial": doc.get("initial", 0),
    }
    text = emit_json(config)
    parse_config(text)  # what is written must load
    _write(text, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayedbp",
        description="Delayed multi-type branching process toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    p = add("validate", _cmd_validate, help="check model assumptions")
    p.add_argument("--config", required=True)

    p = add("spectral", _cmd_spectral, help="P-F data per delay and sharing check")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=float, default=1e-12)

    p = add("malthusian", _cmd_malthusian, help="growth rate and step distribution")
    p.add_argument("--config", required=True)

    p = add("evolve", _cmd_evolve, help="mean trajectories as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=int, required=True)

    p = add("limits", _cmd_limits, help="closed-form limits for shared families")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=int, default=400)

    p = add("paths", _cmd_paths, help="path classes, run fractions, kernel estimates")
    p.add_argument("--config", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--kappa", type=int, default=None)
    p.add_argument("--upsilon", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = add("simulate", _cmd_simulate, help="Monte Carlo ensemble as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pop-cap", type=int, default=sim_mod.DEFAULT_POP_CAP)
    p.add_argument("--dump", default=None, help="per-replica CSV path")

    p = add("generate", _cmd_generate,
            help="build a model config whose mean matrices share P-F eigenvectors")
    p.add_argument("--input", required=True)

    return parser


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except (DelayedBPError, ValueError, OSError) as exc:
        sys.stderr.write(f"error:{type(exc).__name__}: {exc}\n")
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
