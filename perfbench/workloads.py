"""Seeded inputs and op lists for the three benchmark workloads.

Everything here is plain numpy and JSON: the program under test only ever
sees the config files written by ``build`` and the argv of each op.

A workload is one fixed batch of ops.  The batch is replayed until the run's
time budget is spent, so every op appears many times and the batch wall time,
the op median and the op tail are all medians or order statistics over
repeats.  Config parameters are drawn from the seed inside narrow ranges so
that the cost of a batch depends little on which seed drew it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("exact", "ensemble", "oracles")

# Known defect kept in the ensemble batch on purpose: with pop_cap 1000 the
# ensemble silently drops the replicas that hit the cap and averages the ones
# that died out, so mean_x[30] comes out far below E[X(30)] = 1,346,269.
TRUNCATION_DEFECT = ("known defect: ensemble() drops replicas that hit pop_cap "
                     "and averages the extinct ones, so mean_x[30] misses "
                     "E[X(30)] = 1346269 (ROADMAP open item 5)")


@dataclass
class Op:
    """One public call.

    ``kind`` is ``"cli"`` for ``delayedbp.cli.dispatch(argv)`` or the name of
    a library oracle.  ``check`` names the reference check run on the result;
    ``params`` carries what the check needs.  ``expected_failure`` holds the
    reason when the op is known to fail its check at the seed commit.
    """

    name: str
    kind: str
    config: str
    check: str
    argv: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    expected_failure: str | None = None


# ---------------------------------------------------------------------------
# model configs


def fibonacci_config() -> dict:
    """One type, Poisson(1) offspring at ages 1 and 2, ill for 3 steps."""
    return {"types": ["a"], "delays": [1, 2],
            "offspring": {"kind": "poisson", "means": {"1": [[1.0]], "2": [[1.0]]}},
            "lifetime": {"pmf": [0.0, 0.0, 0.0, 1.0]}, "initial": 0}


def _lifetime(rng, death: bool) -> dict:
    """Asymptomatic mass at L = 0, an explicit part on 1..3 and a geometric
    tail beyond; optional constant death probability."""
    p0 = float(rng.uniform(0.1, 0.3))
    body = rng.uniform(0.5, 1.0, size=3)
    tail_mass = float(rng.uniform(0.15, 0.3))
    body = body / body.sum() * (1.0 - p0 - tail_mass)
    doc = {"pmf": [p0] + [float(x) for x in body],
           "tail_ratio": float(rng.uniform(0.3, 0.5))}
    if death:
        doc["death_prob"] = float(rng.uniform(0.05, 0.2))
    return doc


def _death_by_age(lt: dict, d: int) -> float:
    """P(L <= d, death) for a lifetime doc as written by ``_lifetime``."""
    pmf, q = lt["pmf"], lt.get("tail_ratio")
    dp = lt.get("death_prob", 0.0)
    tail = 1.0 - sum(pmf)
    total = 0.0
    for l in range(1, d + 1):
        if l < len(pmf):
            p = pmf[l]
        elif q is None:
            p = 0.0
        else:
            p = tail * (1.0 - q) * q ** (l - len(pmf))
        total += p * dp
    return total


def shared_config(rng, n: int, delays: tuple[int, ...], mix: float) -> dict:
    """Slow-mixing family sharing P-F eigenvectors, with deaths,
    asymptomatics and a geometric lifetime tail.

    Censored means are M_d = rho_d * diag(h) P diag(h)^-1 with
    P = (1 - mix) I + mix 1 pi', whose second eigenvalue is exactly 1 - mix:
    the spectral gap, which sets the cost of P-F power iteration, is then
    fixed by ``mix`` while pi, h and the rho_d are seeded.  Raw means are
    inflated by the death censoring so that the censored family is exactly
    that.
    """
    pi = rng.uniform(0.5, 1.0, size=n)
    p = (1.0 - mix) * np.eye(n) + mix * (pi / pi.sum())[None, :]
    h = rng.uniform(0.5, 2.0, size=n)
    w = rng.uniform(0.8, 1.0, size=len(delays))
    rhos = w / w.sum() * rng.uniform(0.9, 1.2)
    lt = _lifetime(rng, death=True)
    base = p * h[:, None] / h[None, :]
    means = {str(d): (r * base / (1.0 - _death_by_age(lt, d))).tolist()
             for d, r in zip(delays, rhos)}
    return {"types": [f"t{i}" for i in range(n)], "delays": list(delays),
            "offspring": {"kind": "poisson", "means": means},
            "lifetime": lt, "initial": int(rng.integers(n))}


def dense_config(rng, n: int, delays: tuple[int, ...]) -> dict:
    """Fast-mixing dense family with independent matrices per delay (so the
    P-F eigenvectors are not shared), scaled so rho_hat stays near 1."""
    w = rng.uniform(0.5, 1.0, size=len(delays))
    w = w / w.sum() * rng.uniform(0.9, 1.1)
    lt = {"pmf": [0.0, 0.5, 0.5], "death_prob": float(rng.uniform(0.0, 0.1))}
    means = {}
    for d, wd in zip(delays, w):
        m = rng.uniform(0.2, 1.0, size=(n, n))
        m *= wd / m.sum(axis=1).mean()
        means[str(d)] = (m / (1.0 - _death_by_age(lt, d))).tolist()
    return {"types": [f"t{i}" for i in range(n)], "delays": list(delays),
            "offspring": {"kind": "poisson", "means": means},
            "lifetime": lt, "initial": 0}


def poisson_config(means: dict, lifetime: dict, n: int, initial=0) -> dict:
    return {"types": [f"t{i}" for i in range(n)],
            "delays": sorted(int(d) for d in means),
            "offspring": {"kind": "poisson",
                          "means": {str(d): m for d, m in means.items()}},
            "lifetime": lifetime, "initial": initial}


# ---------------------------------------------------------------------------
# op batches


def _cli(name, config, check, argv, outputs, params=None, expected_failure=None):
    return Op(name=name, kind="cli", config=config, check=check, argv=argv,
              outputs=outputs, params=params or {},
              expected_failure=expected_failure)


def exact_batch(rng, out) -> tuple[dict, list[Op]]:
    """validate / spectral / malthusian / evolve / limits on the Fibonacci
    model, slow-mixing shared families and fast-mixing dense families."""
    configs = {"fib": fibonacci_config()}
    # sizes and mixing are fixed per slot and only the entries are seeded, so
    # the P-F work (which follows the spectral gap) is nearly seed-independent
    for k, (delays, n, mix) in enumerate((((1, 2), 2, 0.15), ((1, 2, 3), 5, 0.3),
                                          ((1, 2, 3, 4), 8, 0.5))):
        configs[f"shared{k}"] = shared_config(rng, n, delays, mix)
    for k, (delays, n) in enumerate((((1, 2), 20), ((1, 2, 3), 100))):
        configs[f"dense{k}"] = dense_config(rng, n, delays)
    ops = []
    for name in configs:
        cfg = f"{name}.json"
        shared = not name.startswith("dense")
        for sub, extra, check in (("validate", [], "validate"),
                                  ("spectral", [], "spectral"),
                                  ("malthusian", [], "malthusian"),
                                  ("evolve", ["--horizon", "400"], "evolve"),
                                  ("limits", ["--horizon", "400"], "limits")):
            if sub == "limits" and not shared:
                continue
            o = out(f"{name}.{sub}")
            ops.append(_cli(f"{sub}:{name}", cfg, check,
                            [sub, "--config", cfg, *extra, "--out", o], [o],
                            {"shared": shared, "golden": name == "fib",
                             "horizon": 400}))
    # the spectral ops on the shared families and on dense1 (40-90 ms) run
    # twice, so that the batch median falls inside that cluster of like ops
    # and not in the gap above it, where one slow op would move it
    for name in ("shared0", "shared1", "shared2", "dense1"):
        ops.append(next(op for op in ops if op.name == f"spectral:{name}"))
    return configs, ops


def ensemble_batch(rng, out) -> tuple[dict, list[Op]]:
    """simulate (some with --dump), replica batches checked for pathwise
    extinction ordering, and the pop_cap truncation ops."""
    fib_poisson = fibonacci_config()
    three = rng.uniform(0.2, 1.0, size=(3, 3))
    three *= float(rng.uniform(0.58, 0.62)) / three.sum(axis=1).mean()
    three_type = poisson_config(
        {1: three.tolist(), 2: (0.9 * three).tolist(), 3: (0.6 * three).tolist()},
        {"pmf": [0.2, 0.3, 0.3, 0.2], "death_prob": 0.1}, 3, initial=[20, 20, 20])
    pmf_means = {}
    for d in (1, 2):
        grid = []
        for _ in range(2):
            row = []
            for _ in range(2):
                w = np.concatenate(([rng.uniform(4.0, 5.0)],
                                    rng.uniform(0.2, 0.6, size=3)))
                row.append([float(x) for x in w / w.sum()])
            grid.append(row)
        pmf_means[str(d)] = grid
    pmf_kind = {"types": ["u", "v"], "delays": [1, 2],
                "offspring": {"kind": "pmf", "pmfs": pmf_means},
                "lifetime": {"pmf": [0.1, 0.4, 0.5], "death_prob": 0.05},
                "initial": [4, 4]}
    sub_mean = float(rng.uniform(0.3, 0.4))
    subcritical = poisson_config({1: [[sub_mean]], 2: [[sub_mean]]},
                                 {"pmf": [0.0, 0.5, 0.5]}, 1)
    asym_mean = float(rng.uniform(0.28, 0.32))
    asymptomatic = poisson_config({1: [[asym_mean]], 2: [[asym_mean]]},
                                  {"pmf": [0.5, 0.25, 0.25]}, 1)
    configs = {"fibp": fib_poisson, "three": three_type, "pmf": pmf_kind,
               "sub": subcritical, "asym": asymptomatic}

    ops = []

    def simulate(cfg, horizon, replicas, seed, dump=False, pop_cap=None,
                 expected_failure=None):
        tag = f"{cfg}.h{horizon}.s{seed}"
        o = out(f"{tag}.sim")
        argv = ["simulate", "--config", f"{cfg}.json", "--horizon", str(horizon),
                "--replicas", str(replicas), "--seed", str(seed), "--out", o]
        outputs = [o]
        if pop_cap is not None:
            argv += ["--pop-cap", str(pop_cap)]
        if dump:
            argv += ["--dump", out(f"{tag}.dump")]
            outputs.append(argv[-1])
        ops.append(_cli(f"simulate{'+dump' if dump else ''}:{cfg}", f"{cfg}.json",
                        "simulate", argv, outputs,
                        {"horizon": horizon, "replicas": replicas,
                         "dump": dump}, expected_failure))

    seeds = rng.integers(1, 2 ** 31, size=16).tolist()
    # Late cells of one ensemble move together, so a skewed ensemble would
    # trip the 4-SE check on correct output for some seeds: the 3-type and
    # pmf models start from several individuals (nearly Gaussian replicas),
    # and the 11-cell Fibonacci check, which allows no cell outside 4 SE,
    # gets a large ensemble.
    simulate("fibp", 10, 1000, seeds[0])
    # the slowest op runs three times per batch, with three seeds, so that
    # the tail percentile (10 ops beyond it) falls among its repeats
    for k in (2, 12, 13):
        simulate("three", 30, 200, seeds[k])
    simulate("pmf", 12, 100, seeds[3])
    simulate("pmf", 12, 100, seeds[4], dump=True)
    simulate("sub", 200, 200, seeds[5])
    simulate("sub", 200, 100, seeds[6], dump=True)
    for k in range(2):
        ops.append(Op(name="replicas+consistency:asym", kind="replica_batch",
                      config="asym.json", check="consistency",
                      params={"horizon": 60, "replicas": 200,
                              "seed": seeds[7 + k]}))
    for k in range(2):
        simulate("fibp", 30, 200, seeds[9 + k], pop_cap=1000,
                 expected_failure=TRUNCATION_DEFECT)
    return configs, ops


def oracles_batch(rng, out) -> tuple[dict, list[Op]]:
    """paths with --kappa, --upsilon/--alpha/--delta and --samples, plus the
    library enumeration kernel against xi_kernel."""
    configs = {"fib": fibonacci_config()}
    specs = (("d12n1", (1, 2), 1), ("d123n2", (1, 2, 3), 2),
             ("d25n3", (2, 5), 3), ("d12n4", (1, 2), 4))
    for name, delays, n in specs:
        if n == 1:
            rho = rng.uniform(0.5, 1.0, size=len(delays))
            rho = rho / rho.sum() * float(rng.uniform(0.9, 1.1))
            configs[name] = poisson_config(
                {d: [[float(r)]] for d, r in zip(delays, rho)},
                {"pmf": [0.0, 1.0]}, 1)
        else:
            # fast mixing keeps the P-F work of --samples light next to the paths work
            cfg = shared_config(rng, n, delays, 0.9)
            configs[name] = cfg
    ops = []

    def paths(cfg, s, extra, check, params):
        o = out(f"{cfg}.s{s}.{check}")
        ops.append(_cli(f"paths-{check}:{cfg}", f"{cfg}.json", check,
                        ["paths", "--config", f"{cfg}.json", "--s", str(s),
                         *extra, "--out", o], [o], {"s": s, **params}))

    paths("d12n1", 14, ["--kappa", "3"], "run_fraction", {"kappa": 3})
    paths("d123n2", 9, ["--kappa", "2"], "run_fraction", {"kappa": 2})
    paths("d25n3", 24, ["--kappa", "2"], "run_fraction", {"kappa": 2})
    paths("d12n4", 13, ["--upsilon", "1", "--alpha", "0.3", "--delta", "0.25"],
          "block_run", {"upsilon": 1, "alpha": 0.3, "delta": 0.25})
    paths("d123n2", 10, ["--upsilon", "2", "--alpha", "0.2", "--delta", "0.25"],
          "block_run", {"upsilon": 2, "alpha": 0.2, "delta": 0.25})
    seeds = rng.integers(1, 2 ** 31, size=8).tolist()
    paths("fib", 10, ["--samples", "100000", "--seed", str(seeds[0])],
          "sampling", {})
    paths("d12n1", 12, ["--samples", "100000", "--seed", str(seeds[1])],
          "sampling", {})
    paths("d12n4", 8, ["--samples", "20000", "--seed", str(seeds[2])],
          "sampling", {})
    paths("d25n3", 12, ["--samples", "20000", "--seed", str(seeds[3])],
          "sampling", {})
    for name, s in (("d12n1", 12), ("d123n2", 10), ("d25n3", 12), ("d12n4", 11)):
        ops.append(Op(name=f"xi_enumeration:{name}", kind="xi_enumeration",
                      config=f"{name}.json", check="xi_enumeration",
                      params={"s": s}))
    return configs, ops


BATCHES = {"exact": exact_batch, "ensemble": ensemble_batch,
           "oracles": oracles_batch}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's configs into ``workdir`` and return its batch.

    Paths in argv are relative to ``workdir``, which is the working
    directory of every op.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    configs, ops = BATCHES[workload](rng, lambda tag: f"out/{tag}")
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    for name, doc in configs.items():
        (workdir / f"{name}.json").write_text(json.dumps(doc))
    return ops
