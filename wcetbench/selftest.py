"""Self-test of the benchmark's correctness checks.

Usage (from the repository root)::

    python3 wcetbench/selftest.py

1. A short run (one round) of every workload must count no failure, and the
   default seed's bounds and oracle maxima must match ``expected.json``.
2. A doctored ``callchain_cold`` report with one bound lowered below the
   function's oracle maximum must be counted as failed, for that reason.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

import run


def short_runs() -> bool:
    from workloads import WORKLOADS

    ok = True
    for name, cls in WORKLOADS.items():
        result = run.measure(cls(run.OUT / "work"), run.DEFAULT_SEED, seconds=0.1)
        verdict = result["verdict"]
        run.check_pins(name, run.DEFAULT_SEED, verdict, pin=False)
        failed = sum(verdict.failed) + verdict.extra_failures
        attempted = len(verdict.failed) + verdict.extra_failures
        print(f"{name}: failed_share {failed}/{attempted}")
        for reason in verdict.reasons:
            print(f"  {reason}")
        ok = ok and attempted > 0 and failed == 0
    return ok


def doctored_report_is_caught() -> bool:
    from workloads import CallchainCold

    workload = CallchainCold(run.OUT / "work")
    state = workload.setup(run.DEFAULT_SEED)
    try:
        _, report = workload.run_unit(state, None, None)
        doctored = copy.deepcopy(report)
        victim = doctored.functions[0]
        oracle = state.oracles.project_function(
            state.sources, victim.unit, victim.function
        )
        victim.wcet_bound_cycles = oracle.max_cycles - 1
        verdict = workload.verify(state, [report, doctored])
    finally:
        state.close()
    caught = verdict.failed == [False, True] and any(
        "< oracle" in reason for reason in verdict.reasons
    )
    print(f"doctored bound {victim.wcet_bound_cycles} < oracle {oracle.max_cycles}: "
          f"{'counted as failed' if caught else 'NOT caught'}")
    return caught


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    ok = short_runs()
    ok = doctored_report_is_caught() and ok
    print(f"self-test: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
