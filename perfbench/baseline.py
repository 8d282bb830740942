"""Repeat the benchmark over seeds and record medians, quartiles and spreads.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload in BENCHMARK.json this runs ``run.py`` once for each of
SEEDS with tracing off (seed-major, so a slow spell of the machine hits every
workload alike), then once with tracing on at TRACE_SEED.  For each end-to-end metric it reports the
median, the quartiles and the spread (q3 - q1) / median next to the metric's
bound, and it checks the layer split the traced runs should show.  Exits
non-zero when a run fails, a spread reaches its bound (``setup_s`` included),
or a split check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPREAD_TARGET = 1.0 / 3.0  # spreads should stay under this share of the bound
SEEDS = tuple(range(1, 11))
TRACE_SEED = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def split_checks(layers: dict[str, dict]) -> dict[str, bool]:
    """The workload split the traced runs must show at the seed commit."""
    def v(workload, name):
        return layers[workload][name]["value"]

    modules = ("cli", "model", "spectral", "malthusian", "recursion", "paths",
               "simulate", "bench")
    sim_calls = ("simulate.ensemble.calls", "simulate.simulate_replica.calls",
                 "simulate.extinction_consistency.calls")
    return {
        "exact: spectral + malthusian >= 1/2 of traced wall":
            v("exact", "spectral.self_s") + v("exact", "malthusian.self_s")
            >= 0.5 * v("exact", "trace.wall_s"),
        "ensemble: simulate >= 0.9 of traced wall":
            v("ensemble", "simulate.self_s") >= 0.9 * v("ensemble", "trace.wall_s"),
        "oracles: paths is the largest layer":
            max(modules, key=lambda m: v("oracles", f"{m}.self_s")) == "paths",
        "exact, oracles: no simulate calls":
            all(v(w, c) == 0 for w in ("exact", "oracles") for c in sim_calls),
        "ensemble: no pf_decompose calls":
            v("ensemble", "spectral.pf_decompose.calls") == 0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    env = None
    for seed in SEEDS:
        for w in workloads:
            res, text = run(w, seed, spec["run_seconds"], 0)
            env = json.loads(text[0][len("env "):])
            runs[w].append({"seed": seed, **res})
            print(f"{w} seed {seed}: correct {res['correct']} "
                  f"failed {res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
                  flush=True)

    ok = True
    summary = {}
    for w in workloads:
        summary[w] = {}
        ok &= all(r["correct"] for r in runs[w])
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = spread < SPREAD_TARGET * m["bound"]
            ok &= spread < m["bound"]
            summary[w][m["name"]] = {"unit": m["unit"], "median": med, "q1": q1,
                                     "q3": q3, "spread": spread, "bound": m["bound"],
                                     "steady": steady, "values": values}
            print(f"{w:9s} {m['name']:12s} median {med:10.5g} {m['unit']:3s} "
                  f"q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:6.3f} "
                  f"bound {m['bound']:.2f} {'steady' if steady else 'NOT STEADY'}")

    out = {"env": env, "seeds": list(SEEDS), "run_seconds": spec["run_seconds"],
           "end_to_end": summary,
           "runs": {w: [{"seed": r["seed"], "attempted": r["attempted"],
                         "failed": r["failed"]} for r in runs[w]] for w in workloads}}
    layers = {}
    for w in workloads:
        res, text = run(w, TRACE_SEED, spec["run_seconds"], 1)
        layers[w] = res["metrics"]
        print("\n".join(text[1:]))
    out["per_layer"] = {w: {k: m["value"] for k, m in layers[w].items()}
                        for w in workloads}
    checks = split_checks(layers)
    out["split_checks"] = checks
    for name, passed in checks.items():
        print(f"{'ok ' if passed else 'FAIL'} {name}")
    ok &= all(checks.values())
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
