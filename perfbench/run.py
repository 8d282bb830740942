"""delayedbp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout; nothing is installed.  Workloads and metrics are declared in
BENCHMARK.json; ``perfbench/README.md`` says what each one measures.

The run starts ``SETUPS_EACH_SIDE`` set-up-only worker processes, the
measuring worker, and ``SETUPS_EACH_SIDE`` more set-up-only workers, each
with BLAS/OpenMP threads pinned to 1.  ``setup_s`` is the median, over all of
them, of the time from process start to the first timed op; taking set-ups
on both sides of the measurement keeps one spell of host load from setting
it.  The last line of standard output is the result as one JSON object.
A run with unexpected failures still prints it, with ``correct`` false, and
exits 1; a run that cannot produce a result exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS_EACH_SIDE = 4
SETUP_TIMEOUT_S = 60
RUN_SLACK_S = 100  # past --seconds: checks, the last batch, reference set-up


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, extra) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process
    and its set-up time in seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup


def finish(proc, timeout) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker ran past {timeout} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", default=None,
                    help="with --trace 1, write the spans here as JSON lines")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "delayedbp" / "__init__.py").is_file():
        print("error: no src/delayedbp in this checkout", file=sys.stderr)
        return 2

    def setup_only():
        proc, setup = start_worker(args, ["--setup-only"])
        finish(proc, SETUP_TIMEOUT_S)
        return setup

    setups = [setup_only() for _ in range(SETUPS_EACH_SIDE)]
    extra = ["--spans", str(Path(args.spans).resolve())] if args.spans else []
    proc, setup = start_worker(args, extra)
    setups.append(setup)
    out = finish(proc, args.seconds + RUN_SLACK_S)
    setups += [setup_only() for _ in range(SETUPS_EACH_SIDE)]
    lines = [ln for ln in out.splitlines() if ln.startswith("result ")]
    if not lines:
        raise RuntimeError("worker printed no result")
    res = json.loads(lines[-1][len("result "):])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = dict(res["metrics"], setup_s=statistics.median(setups))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    known = res["known_failures"]
    failed = len(res["failures"])
    print("env " + json.dumps(res["env"]))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in res["info"].items()))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  setup_s samples: {[round(s, 4) for s in setups]}")
    print(f"  fail_frac {(failed + len(known)) / res['attempted']:.4f}: "
          f"{failed} unexpected + {len(known)} known-defect failures "
          f"of {res['attempted']} ops")
    for reason in res["known_reasons"]:
        print(f"  known defect ({len(known)} ops): {reason}")
    for name in res["known_passed"]:
        print(f"  note: {name} passed its check although marked as a known defect")
    for why in res["failures"][:20]:
        print(f"  FAILED {why}")

    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
