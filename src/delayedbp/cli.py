"""Command-line front end.

Subcommands: validate, spectral, malthusian, evolve, limits, paths, simulate,
generate.  Models are described by a strict JSON config.  This module checks
only what decoding needs (JSON types, finite numbers, known and required
fields, delay keys, n x n shapes).  Every value rule, normalization
included, lives in the model constructors, which raise a SchemaError naming
the config field.  Scalar reports are emitted as JSON and trajectories as CSV,
floats always with 17 significant digits so that values round-trip
losslessly.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import malthusian as mal_mod
from . import paths as paths_mod
from . import recursion as rec_mod
from . import simulate as sim_mod
from . import spectral as spec_mod
from .errors import DelayedBPError, OutOfMemoryError, SchemaError
from .model import (DelayFamily, LifetimeLaw, ModelSpec, OffspringLaw,
                    censored_mean_matrices, death_prob_by_age, validate)

_LAW_FIELDS = {"poisson": "means", "pmf": "pmfs"}  # offspring kind -> its table


def _require(cond, field, message):
    if not cond:
        raise SchemaError(field, message)


_NUMBER_TYPES = {int, float}  # not bool: JSON true and false are no numbers


def _is_numbers(v, n=None) -> bool:
    """A list of JSON numbers that convert to finite doubles, of length ``n``
    when given.  The list is checked whole, with no Python call per entry."""
    if not (isinstance(v, list) and (n is None or len(v) == n)):
        return False
    try:
        return set(map(type, v)) <= _NUMBER_TYPES and all(map(math.isfinite, v))
    except OverflowError:  # an integer beyond the double range
        return False


def _is_number(v) -> bool:
    """A JSON number, not a boolean, that converts to a finite double."""
    return _is_numbers([v])


def _object(value, fields, required=(), path=""):
    """``value`` as a JSON object over ``fields``; ``path`` names it in errors."""
    _require(isinstance(value, dict), path or "<document>", "must be an object")
    prefix = f"{path}." if path else ""
    unknown = sorted(set(value) - fields)
    if unknown:
        raise SchemaError(prefix + unknown[0], "unknown field")
    for req in required:
        _require(req in value, prefix + req, "missing required field")
    return value


def _load_object(text: str, fields, required=()) -> dict:
    """Decode a JSON document whose top level is an object over ``fields``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("<document>", f"invalid JSON: {exc}") from exc
    return _object(doc, fields, required)


def parse_config(text: str) -> ModelSpec:
    """Decode a JSON model config into a ModelSpec, which checks its values."""
    required = ("types", "delays", "offspring", "lifetime")
    doc = _load_object(text, {*required, "initial"}, required)
    types = doc["types"]
    _require(isinstance(types, list) and types, "types", "must be a nonempty list")
    _require(all(isinstance(t, str) for t in types), "types", "entries must be strings")
    delays = doc["delays"]
    _require(isinstance(delays, list) and all(type(d) is int for d in delays),
             "delays", "must be a list of integers")
    delay_family = DelayFamily(tuple(delays))

    off = _object(doc["offspring"], {"kind", *_LAW_FIELDS.values()}, (), "offspring")
    kind = off.get("kind")
    _require(isinstance(kind, str) and kind in _LAW_FIELDS, "offspring.kind",
             "must be 'poisson' or 'pmf'")
    field = _LAW_FIELDS[kind]
    _require(field in off, f"offspring.{field}", "missing required field")
    for other in set(_LAW_FIELDS.values()) - {field}:
        _require(other not in off, f"offspring.{other}", f"not allowed for {kind} kind")
    path = f"offspring.{field}"
    _require(isinstance(off[field], dict), path, "must be an object keyed by delay")
    table = _delay_keyed(off[field], path,
                         lambda grid, where: _parse_grid(grid, len(types), where,
                                                         pmfs=field == "pmfs"))

    return ModelSpec(type_names=tuple(types), delay_family=delay_family,
                     offspring=OffspringLaw(kind=kind, **{field: table}),
                     lifetime=_parse_lifetime(doc["lifetime"]),
                     initial=_parse_initial(doc.get("initial", 0)))


def _parse_lifetime(value) -> LifetimeLaw:
    lt = _object(value, {"pmf", "tail_ratio", "death_prob"}, ("pmf",), "lifetime")
    pmf, tail, dp = lt["pmf"], lt.get("tail_ratio"), lt.get("death_prob", 0.0)
    _require(_is_numbers(pmf), "lifetime.pmf", "must be a list of numbers")
    _require(tail is None or _is_number(tail), "lifetime.tail_ratio", "must be a number")
    _require(_is_number(dp) or _is_numbers(dp), "lifetime.death_prob",
             "must be a number or a list of numbers")
    return LifetimeLaw(pmf=pmf, tail_ratio=tail, death_prob=dp)


def _parse_initial(initial):
    _require(type(initial) is int or _is_numbers(initial), "initial",
             "must be a type index or a vector")
    return initial


def _delay_keyed(obj: dict, path: str, parse) -> dict:
    """{delay: parse(entry, field)} of a JSON object keyed by delay.  Two keys
    naming one delay (``"1"`` and ``"01"``) are an error naming the second."""
    table = {}
    for key, entry in obj.items():
        where = f"{path}.{key}"
        try:
            d = int(key)
        except (TypeError, ValueError):
            raise SchemaError(where, "key must be an integer delay") from None
        _require(d >= 1, where, "delay must be >= 1")
        _require(d not in table, where, f"delay {d} is already given")
        table[d] = parse(entry, where)
    return table


def _parse_rho(value, where):
    _require(_is_number(value), where, "must be a number")
    return value


def _parse_grid(grid, n, path, pmfs=False):
    """An n x n grid of numbers, or of pmfs (lists of numbers) when ``pmfs``.

    Rows are checked whole; a field path is built only for a row that fails.
    """
    _require(isinstance(grid, list) and len(grid) == n, path,
             f"must be a {n}x{n} {'grid of pmfs' if pmfs else 'matrix'}")
    for i, row in enumerate(grid):
        if not (isinstance(row, list) and len(row) == n):
            raise SchemaError(f"{path}[{i}]", f"must hold {n} {'pmfs' if pmfs else 'numbers'}")
        if not (all(map(_is_numbers, row)) if pmfs else _is_numbers(row)):
            if not pmfs:
                raise SchemaError(f"{path}[{i}]", "entries must be numbers")
            j = next(j for j, cell in enumerate(row) if not _is_numbers(cell))
            raise SchemaError(f"{path}[{i}][{j}]", "must be a list of numbers")
    return grid


def model_to_config(model: ModelSpec) -> dict:
    """Config document that parses back to an identical model."""
    off, lt = model.offspring, model.lifetime
    field = _LAW_FIELDS[off.kind]
    laws = getattr(off, field)
    lifetime = {"pmf": lt.pmf, "tail_ratio": lt.tail_ratio, "death_prob": lt.death_prob}
    doc = {
        "types": model.type_names,
        "delays": model.delay_family.delays,
        "offspring": {"kind": off.kind, field: {str(d): laws[d] for d in model.delay_family}},
        "lifetime": {k: v for k, v in lifetime.items() if v is not None},
        "initial": model.initial,
    }
    # plain JSON values: tuples and arrays become lists, and floats keep every bit
    return json.loads(json.dumps(doc, default=np.ndarray.tolist))


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


@contextmanager
def _output(out: str | None):
    """The file ``out`` opened for writing, or stdout when ``out`` is None."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w") as fh:
            yield fh


def _write(text: str, out: str | None):
    text += "" if text.endswith("\n") else "\n"
    with _output(out) as fh:
        fh.write(text)


_CSV_CHUNK = 1024  # rows built and written at a time: cache-sized numpy work


def _write_csv(out: str | None, header, types, parts):
    """Stream a CSV to ``out``: the header, then for each (first, columns)
    part one row per index of the arrays in ``columns`` (None for an empty
    cell), which share one shape, in C order.  A row starts with its index,
    ``first`` added to the leading entry and the last entry written as a name
    from ``types``, then takes its entry of each column.

    Rows are built and written a chunk at a time, so the whole text is never
    held, and the columns are read in place.
    """
    from . import csvrows  # building its tables takes milliseconds: only CSV commands pay

    names = csvrows.labels(types)
    with _output(out) as fh:
        fh.write(",".join(header) + "\n")
        for first, columns in parts:
            shape = next(c.shape for c in columns if c is not None)
            total = math.prod(shape)
            for start in range(0, total, _CSV_CHUNK):
                index = np.unravel_index(np.arange(start, min(start + _CSV_CHUNK, total)), shape)
                cells = [None if c is None else c[index] for c in columns]
                keys = [index[0] + first, *index[1:-1], (names, index[-1])]
                fh.write(csvrows.rows(keys + cells))


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
    shared = spec_mod.shared_pf_check(family, pf_tol=args.tol)
    pf = shared.pf
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
    _write_csv(args.out, ("s", "type", "ex", "ez", "ey", "wx", "wz", "wy"), model.type_names,
               [(0, [traj.ex, traj.ez, traj.ey, traj.wx, traj.wz, traj.wy])])
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


def _fraction(f) -> dict:
    return {"numerator": f.numerator, "denominator": f.denominator, "value": float(f)}


def _cmd_paths(args) -> int:
    model = _load_model(args.config)
    family = censored_mean_matrices(model)
    delays = family.delays
    if args.upsilon is not None:
        if args.alpha is None or args.delta is None:
            raise SchemaError("--upsilon", "requires --alpha and --delta")
        paths_mod.check_block_run_params(delays, args.alpha, args.delta, prefix="--")
    classes = paths_mod.enumerate_lambda(delays, args.s, r=args.r)
    doc = {
        "s": args.s,
        "classes": [{"counts": list(k.counts), "r": k.r,
                     "words": paths_mod.multinomial_size(k)} for k in classes],
    }
    if args.kappa is not None:
        rf = paths_mod.run_fraction(delays, args.s, args.kappa)
        # --r scopes the run fractions as it scopes the class list
        fractions = {c: f for c, f in rf.by_class.items() if args.r in (None, sum(c))}
        low = min(fractions.values(), default=None)
        doc["run_fraction"] = {
            "kappa": args.kappa,
            "by_class": {str(list(c)): _fraction(f) for c, f in fractions.items()},
            "min": None if low is None else _fraction(low),
        }
    if args.upsilon is not None:
        block = {}
        for k in classes:
            if not paths_mod.longer_than_block(k.r, args.upsilon):
                continue
            words = paths_mod.enumerate_words(k)
            passing = paths_mod.block_run_statistic(words, delays, args.upsilon,
                                                    args.alpha, args.delta)
            block[str(list(k.counts))] = {"passing": np.count_nonzero(passing),
                                          "words": len(words)}
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
    blocks = sim_mod.replica_blocks(model, args.horizon, args.replicas, args.seed,
                                    pop_cap=args.pop_cap)
    if args.dump is not None:
        blocks = list(blocks)  # kept for the dump; otherwise streamed
    stats = sim_mod.summarize(blocks)
    if stats.truncated:
        sys.stderr.write(f"warning: {stats.truncated} of {args.replicas} replicas truncated "
                         f"at pop_cap {args.pop_cap}; excluded from the statistics\n")
    # one replica has no standard errors: their cells are empty
    _write_csv(args.out, ("s", "type", "mean_x", "se_x", "mean_z", "se_z", "mean_y", "se_y"),
               model.type_names, [(0, [stats.mean_x, stats.se_x, stats.mean_z, stats.se_z,
                                       stats.mean_y, stats.se_y])])
    if args.dump is not None:
        _write_csv(args.dump, ("replica", "s", "type", "x", "z", "y"), model.type_names,
                   _dump_parts(blocks))
    return 0


def _dump_parts(blocks):
    """(first, counts) per block for ``--dump``: row k of the dump is replica k."""
    k = 0
    for block in blocks:
        yield k, [block.x, block.z, block.y]
        k += len(block.counts)


def _cmd_generate(args) -> int:
    with open(args.input) as fh:
        doc = _load_object(fh.read(), {"P", "h", "nu", "rhos", "types", "lifetime", "initial"},
                           ("P", "rhos"))
    _require(("h" in doc) != ("nu" in doc), "h",
             "exactly one of 'h' (forward) or 'nu' (time-reversed) is required")
    _require(isinstance(doc["P"], list) and doc["P"], "P", "must be a square matrix")
    n = len(doc["P"])
    p = np.array(_parse_grid(doc["P"], n, "P"), dtype=float)
    key = "h" if "h" in doc else "nu"
    _require(_is_numbers(doc[key], n), key, f"must be a list of {n} numbers")
    _require(isinstance(doc["rhos"], dict) and doc["rhos"], "rhos",
             "must be a nonempty object keyed by delay")
    rhos = _delay_keyed(doc["rhos"], "rhos", _parse_rho)
    construct = {"h": spec_mod.construct_shared_family,
                 "nu": spec_mod.construct_shared_family_reversed}[key]
    family = construct(p, np.array(doc[key], dtype=float), rhos)

    types = doc.get("types", [f"t{i}" for i in range(n)])
    _require(isinstance(types, list) and len(types) == n
             and all(isinstance(t, str) for t in types), "types",
             f"must be a list of {n} names, one per row of P")
    lifetime = _parse_lifetime(doc.get("lifetime", {"pmf": [0.0, 1.0]}))
    # raw means are inflated so that death censoring lands on the target family
    means = {}
    for d in family.delays:
        keep = 1.0 - death_prob_by_age(lifetime, d)
        _require(keep > 0, f"rhos.{d}",
                 "death censoring removes all reproduction at this delay")
        means[d] = family.matrix(d) / keep
    model = ModelSpec(type_names=tuple(types), delay_family=DelayFamily(family.delays),
                      offspring=OffspringLaw(kind="poisson", means=means),
                      lifetime=lifetime, initial=_parse_initial(doc.get("initial", 0)))
    text = emit_json(model_to_config(model))
    parse_config(text)  # what is written must load
    _write(text, args.out)
    return 0


def _at_least(low, cast=int, strict=False):
    """argparse ``type=`` for an option with a fixed lower bound (exit 2 below it)."""
    def parse(text):
        value = cast(text)
        if not (value > low if strict else value >= low):  # NaN fails too
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {low}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse names the type in "invalid int value"
    return parse


@functools.cache  # argparse keeps no state between parses, so one parser serves every call
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
    p.add_argument("--tol", type=_at_least(0.0, float, strict=True), default=1e-12)

    p = add("malthusian", _cmd_malthusian, help="growth rate and step distribution")
    p.add_argument("--config", required=True)

    p = add("evolve", _cmd_evolve, help="mean trajectories as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=_at_least(0), required=True)

    p = add("limits", _cmd_limits, help="closed-form limits of the weighted means")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=_at_least(0), default=400)

    p = add("paths", _cmd_paths, help="path classes, run fractions, kernel estimates")
    p.add_argument("--config", required=True)
    p.add_argument("--s", type=_at_least(0), required=True)
    p.add_argument("--r", type=_at_least(0), default=None)
    p.add_argument("--kappa", type=_at_least(2), default=None)
    p.add_argument("--upsilon", type=_at_least(1), default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--samples", type=_at_least(1), default=None)
    p.add_argument("--seed", type=_at_least(0), default=None)

    p = add("simulate", _cmd_simulate, help="Monte Carlo ensemble as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=_at_least(0), required=True)
    p.add_argument("--replicas", type=_at_least(1), required=True)
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument("--pop-cap", type=_at_least(1), default=sim_mod.DEFAULT_POP_CAP)
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
        try:
            return args.fn(args)
        except MemoryError as exc:
            raise OutOfMemoryError(str(exc) or "out of memory") from None
    except (DelayedBPError, ValueError, OSError) as exc:
        sys.stderr.write(f"error:{type(exc).__name__}: {exc}\n")
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
