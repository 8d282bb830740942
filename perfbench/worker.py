"""One workload process: set up, replay the batch for the time budget, check.

Started by run.py, which times the set-up from process start to the
``ready`` line.  With ``--setup-only`` the process exits right after that
line; otherwise it replays the workload's batch in a closed loop (one caller,
each op starts when the previous one returned) until ``--seconds`` have
passed, checks every op's output outside the timed region, and prints one
``result`` line of JSON.  With ``--trace 1`` untraced and traced batches
alternate, and the per-layer figures come from the traced ones.  The checks
run in a forked child process, so that ``peak_rss_mb`` holds the program's
peak and not the checker's.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from reference import MonteCarloMiss  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TAIL_BEYOND = 10  # the tail percentile is the highest with this many ops beyond it


def import_package():
    import delayedbp
    import delayedbp.cli  # noqa: F401  (submodules are read by attribute below)

    where = Path(delayedbp.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"delayedbp imported from {where}, not from this checkout")
    return delayedbp


def run_op(dbp, op):
    """Run one op; returns (exit code, library result).  Module attributes
    are looked up at call time so that the tracer's wrappers are seen."""
    if op.kind == "cli":
        return dbp.cli.dispatch(op.argv), None
    model = dbp.cli.parse_config(Path(op.config).read_text())
    p = op.params
    if op.kind == "replica_batch":
        records = [dbp.simulate.simulate_replica(model, p["horizon"], (p["seed"], k))
                   for k in range(p["replicas"])]
        return 0, (records, dbp.simulate.extinction_consistency(records))
    if op.kind == "xi_enumeration":
        family = dbp.model.censored_mean_matrices(model)
        total, per_r = dbp.paths.xi_by_enumeration(family, p["s"])
        return 0, (total, per_r, dbp.recursion.xi_kernel(family, p["s"]))
    raise ValueError(f"unknown op kind {op.kind!r}")


class CheckerProcess:
    """Runs ``checker.check`` in a forked child, one op at a time.

    Parsing the large outputs into Python lists takes tens of MB; in the
    child it stays out of this process's ``ru_maxrss``.  The child is forked
    after set-up, answers each (op, exit code, result) with the check's
    reason, and exits when ``close`` shuts its input.
    """

    def __init__(self, checker):
        op_r, op_w = os.pipe()
        why_r, why_w = os.pipe()
        sys.stdout.flush()
        self.pid = os.fork()
        if self.pid == 0:  # the child
            code = 1
            try:
                os.close(op_w)
                os.close(why_r)
                with os.fdopen(op_r, "rb") as ops_in, os.fdopen(why_w, "wb") as whys:
                    while True:
                        try:
                            op, rc, result = pickle.load(ops_in)
                        except EOFError:
                            break
                        try:
                            why = checker.check(op, rc, result)
                        except Exception as exc:  # a check that raises fails its op
                            why = f"check raised {type(exc).__name__}: {exc}"
                        pickle.dump(why, whys)
                        whys.flush()
                code = 0
            finally:
                os._exit(code)
        os.close(op_r)
        os.close(why_w)
        self._ops = os.fdopen(op_w, "wb")
        self._whys = os.fdopen(why_r, "rb")

    def check(self, op, rc, result) -> str | None:
        pickle.dump((op, rc, result), self._ops)
        self._ops.flush()
        try:
            return pickle.load(self._whys)
        except EOFError:
            raise RuntimeError("the checker process ended early") from None

    def close(self) -> None:
        if self.pid is None:
            return
        self._ops.close()
        self._whys.close()
        os.waitpid(self.pid, 0)
        self.pid = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Runner:
    """Replays the batch and keeps latencies, failures and batch wall times."""

    def __init__(self, dbp, ops, checker):
        self.dbp, self.ops, self.checker = dbp, ops, checker
        self.latencies: list[list[float]] = []  # one list per batch
        self.failures: list[str] = []
        self.known: list[str] = []
        self.passed_known: set[str] = set()
        self.attempted = 0
        self.out_bytes = 0

    def batch(self, tracer=None) -> float:
        wall = 0.0
        self.latencies.append([])
        for op in self.ops:
            if tracer is not None:
                tracer.op = self.attempted
            start = perf_counter()
            try:
                if tracer is None:
                    rc, result = run_op(self.dbp, op)
                else:
                    with tracer.span("bench.op"):
                        rc, result = run_op(self.dbp, op)
            except Exception:  # an op that raises is a failed op, not a crash
                rc, result = "raised:\n" + traceback.format_exc(), None
            elapsed = perf_counter() - start
            wall += elapsed
            self.latencies[-1].append(elapsed)
            self.attempted += 1
            if tracer is not None:
                self.out_bytes += sum(Path(o).stat().st_size for o in op.outputs
                                      if Path(o).exists())
            why = self.checker.check(op, rc, result)
            if op.expected_failure is not None and why is None:
                self.passed_known.add(op.name)
            elif op.expected_failure is not None and isinstance(why, MonteCarloMiss):
                self.known.append(f"{op.name}: {why}")
            elif why is not None:  # a known-defect op that fails otherwise fails
                self.failures.append(f"{op.name}: {why}")
        return wall

    def loop(self, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
        """Replay the batch while another one still fits in ``seconds``.

        Returns the untraced and the traced batch times.  With a tracer the
        batches alternate untraced and traced, so that both see the same
        spells of host load and their ratio is the tracing overhead.
        """
        walls: tuple[list[float], list[float]] = ([], [])
        spans = []
        end = perf_counter() + seconds
        while (not spans or perf_counter() + statistics.median(spans) <= end
               or (tracer is not None and not walls[1])):
            traced = tracer is not None and len(spans) % 2 == 1
            start = perf_counter()
            if traced:
                tracer.install()
            try:
                walls[traced].append(self.batch(tracer if traced else None))
            finally:
                if traced:
                    tracer.uninstall()
            spans.append(perf_counter() - start)
        return walls


def usual_latencies(batches: list[list[float]]) -> list[float]:
    """Each op's latency at the host's usual speed: the upper quartile of its
    repeats over the batches (its one latency when the run has one batch).

    On a shared host the same op runs up to ~30% faster in spells of low
    load from other tenants.  Order statistics over all op executions
    follow those spells; the upper quartile of one op's repeats keeps
    reading the usual speed unless a spell covers most of the run.
    """
    return [statistics.quantiles(reps, n=4)[2] if len(reps) > 1 else reps[0]
            for reps in zip(*batches)]


def end_to_end(runner) -> tuple[dict, dict]:
    usual = usual_latencies(runner.latencies)
    repeats = len(runner.latencies)
    # every execution read at its op's usual latency
    lat = sorted(t for t in usual for _ in range(repeats))
    n = len(lat)
    rank = max(n - TAIL_BEYOND, 1)  # 1-based rank with TAIL_BEYOND ops beyond it
    metrics = {
        "wall_s": sum(usual),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * lat[rank - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"batches": repeats, "ops": n, "tail_percentile": 100.0 * rank / n,
            "ops_beyond_tail": n - rank}
    return metrics, info


def per_layer(tracer, walls_traced, walls_plain) -> dict:
    """Per-batch layer figures from the traced half of the run."""
    from reference import renewal_hit_ratio

    batches = len(walls_traced)
    names = tracer.by_name()

    def get(name, field):
        return names.get(name, {}).get(field, 0.0) / batches

    out = {}
    for name in ("cli.dispatch", "cli.parse_config", "cli.emit_json",
                 "model.censored_mean_matrices", "model.validate",
                 "spectral.pf_decompose", "spectral.is_irreducible",
                 "spectral.shared_pf_check", "spectral.commute_check",
                 "malthusian.solve_malthusian", "malthusian.build_companion",
                 "recursion.evolve_means", "recursion.theorem_limits",
                 "recursion.xi_kernel", "recursion.stationary_check",
                 "simulate.ensemble", "simulate.simulate_replica",
                 "simulate.extinction_consistency", "paths.xi_by_enumeration",
                 "paths.run_fraction", "paths.xi_by_sampling"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    for module in ("cli", "model", "spectral", "malthusian", "recursion",
                   "paths", "simulate", "bench"):
        out[f"{module}.self_s"] = sum(v["self_s"] for k, v in names.items()
                                      if k.split(".")[0] == module) / batches
    solves = names.get("malthusian.solve_malthusian", {}).get("calls", 0)
    nested = tracer.nested_calls("spectral.pf_decompose", "malthusian.solve_malthusian")
    out["malthusian.pf_per_solve"] = nested / solves if solves else 0.0
    counts = tracer.counts
    out["recursion.steps"] = counts["recursion.steps"] / batches
    out["cli.out_bytes"] = counts["cli.out_bytes"] / batches
    out["paths.words"] = counts["paths.words"] / batches
    out["paths.samples"] = counts["paths.samples"] / batches
    total = sum(n for _, _, n in tracer.sampling)
    out["paths.hit_ratio"] = (sum(renewal_hit_ratio(beta, s) * n
                                  for beta, s, n in tracer.sampling) / total
                              if total else 0.0)
    out["simulate.replicas"] = counts["simulate.replicas"] / batches
    out["simulate.useful_ratio"] = (counts["simulate.used_replicas"]
                                    / counts["simulate.replicas"]
                                    if counts["simulate.replicas"] else 0.0)
    out["trace.wall_s"] = statistics.median(walls_traced)
    out["trace.overhead_frac"] = out["trace.wall_s"] / statistics.median(walls_plain) - 1.0
    return out


def environment(dbp) -> dict:
    import numpy as np

    cpu = {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("model name", "cache size") and key.strip() not in cpu:
                cpu[key.strip()] = value.strip()
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "delayedbp": dbp.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name", "unknown"),
        "cache": caches or cpu.get("cache size", "unknown"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "uncontrolled": "page cache and CPU frequency are not controlled",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    args = ap.parse_args(argv)

    dbp = import_package()
    import workloads
    from reference import Checker

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        os.chdir(workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        warnings.simplefilter("ignore")
        with CheckerProcess(Checker(workdir)) as checker:
            runner = Runner(dbp, ops, checker)
            if not args.trace:
                runner.loop(args.seconds)
                metrics, info = end_to_end(runner)
            else:
                from tracer import Tracer

                tracer = Tracer()
                walls_plain, walls = runner.loop(args.seconds, tracer)
                tracer.counts["cli.out_bytes"] = runner.out_bytes
                metrics = per_layer(tracer, walls, walls_plain)
                info = {"batches": len(walls), "untraced_batches": len(walls_plain),
                        "ops": runner.attempted, "spans": len(tracer.spans)}
                if args.spans:
                    tracer.write(args.spans)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "metrics": metrics, "info": info, "env": environment(dbp),
        "attempted": runner.attempted, "failures": runner.failures,
        "known_failures": runner.known,
        "known_reasons": sorted({op.expected_failure for op in ops if op.expected_failure}),
        "known_passed": sorted(runner.passed_known),
    }
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
