"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

1. The tracer wraps every binding of a public function with one wrapper and
   restores every attribute it patched.
2. On one traced batch, the self times of all spans (the package's layers
   plus the benchmark's own ``bench.op`` spans) add up to the batch wall
   time within ACCOUNTING_TOL.
3. A deliberately corrupted reference makes checks fail, so the correctness
   gate can trip; the intact reference passes the same batch.
4. The known-defect ops are excused only for missing the exact means: one
   whose output cannot be read counts as an unexpected failure.

Exits 0 when all pass.
"""

from __future__ import annotations

import os
import shutil
import sys

import worker  # sets up sys.path for the package and the benchmark modules

ACCOUNTING_TOL = 0.02
SEED = 7


def bindings() -> dict[tuple[str, str], object]:
    return {(name, attr): obj
            for name, mod in sys.modules.items()
            if mod is not None and (name == "delayedbp" or name.startswith("delayedbp."))
            for attr, obj in vars(mod).items()}


def test_restore(dbp) -> None:
    from tracer import Tracer

    before = bindings()
    original = dbp.spectral.pf_decompose
    tracer = Tracer()
    tracer.install()
    try:
        assert dbp.spectral.pf_decompose is not original, "pf_decompose not wrapped"
        assert dbp.malthusian.pf_decompose is dbp.spectral.pf_decompose, \
            "the two bindings of pf_decompose got different wrappers"
        assert dbp.pf_decompose is dbp.spectral.pf_decompose
        assert len(tracer.patched) > len(tracer.targets()), "some bindings missed"
    finally:
        tracer.uninstall()
    after = bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed and before.keys() == after.keys(), f"not restored: {changed}"
    print(f"ok  tracer restored all {len(before)} attributes "
          f"({len(tracer.targets())} functions were wrapped)")


def one_batch(dbp, workload, traced=False, pick=None):
    import workloads
    from reference import Checker
    from tracer import Tracer

    workdir = worker.ROOT / ".perfbench_work" / f"selftest-{workload}-{os.getpid()}"
    try:
        ops = workloads.build(workload, SEED, workdir)
        if pick is not None:
            ops = pick(ops)
        os.chdir(workdir)
        tracer = Tracer() if traced else None
        with worker.CheckerProcess(Checker(workdir)) as checker:
            runner = worker.Runner(dbp, ops, checker)
            if traced:
                tracer.install()
            try:
                wall = runner.batch(tracer)
            finally:
                if traced:
                    tracer.uninstall()
        return runner, wall, tracer
    finally:
        os.chdir(worker.ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def test_accounting(dbp) -> None:
    runner, wall, tracer = one_batch(dbp, "oracles", traced=True)
    total_self = sum(tracer.self_times())
    layers = sum(t for span, t in zip(tracer.spans, tracer.self_times())
                 if span[0] != "bench.op")
    gap = abs(wall - total_self) / wall
    assert gap <= ACCOUNTING_TOL, f"self times {total_self} vs wall {wall}"
    print(f"ok  layer self times {layers:.4f} s + benchmark {total_self - layers:.4f} s "
          f"= {total_self:.4f} s vs batch wall {wall:.4f} s (off by {gap:.2%}, "
          f"allowed {ACCOUNTING_TOL:.0%})")


def test_gate_trips(dbp) -> None:
    import reference

    runner, _, _ = one_batch(dbp, "oracles")
    assert not runner.failures, runner.failures
    intact = reference.renewal

    def corrupted(mats, delays, source):
        return intact(mats, delays, source) * (1.0 + 1e-6)

    reference.renewal = corrupted
    try:
        runner, _, _ = one_batch(dbp, "oracles")
    finally:
        reference.renewal = intact
    frac = len(runner.failures) / runner.attempted
    assert frac > 0, "a corrupted reference went unnoticed"
    print(f"ok  corrupted reference: fail_frac {frac:.3f} "
          f"({len(runner.failures)} of {runner.attempted} ops), e.g. {runner.failures[0]}")


def test_known_defect_scope(dbp) -> None:
    def known(ops):
        return [op for op in ops if op.expected_failure]

    def known_unreadable(ops):
        ops = known(ops)
        ops[0].outputs = ["missing.csv"]
        return ops

    runner, _, _ = one_batch(dbp, "ensemble", pick=known)
    assert runner.known and not runner.failures, (runner.known, runner.failures)
    runner, _, _ = one_batch(dbp, "ensemble", pick=known_unreadable)
    assert len(runner.failures) == 1 and len(runner.known) == 1, runner.failures
    print(f"ok  known-defect ops excused only for the Monte Carlo miss; "
          f"otherwise: {runner.failures[0]}")


def main() -> int:
    dbp = worker.import_package()
    for test in (test_restore, test_accounting, test_gate_trips, test_known_defect_scope):
        test(dbp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
