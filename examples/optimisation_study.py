"""State-space optimisation study (the paper's Section 3.2 / Table 2).

Run with::

    python examples/optimisation_study.py

Builds the Table 2 evaluation program, applies every optimisation
configuration of the paper (none, all, each one alone), model-checks the same
reachability goal against each model and prints time / memory / counterexample
steps / state-vector width -- the reproduction of Table 2.
"""

from __future__ import annotations

import time

from repro.mc import EngineKind, ModelChecker, QueryEngineOptions
from repro.optim import TABLE2_CONFIGURATIONS, build_optimized_model
from repro.workloads.optimisation_eval import (
    EVAL_FUNCTION_NAME,
    OPTIMISATION_EVAL_SOURCE,
    TABLE2_TARGET_CALL,
    find_target_block,
    optimisation_eval_program,
    source_line_count,
)


def main() -> None:
    print(f"evaluation program ({source_line_count()} source lines, "
          "4 boolean + 13 byte variables):")
    print()
    print("\n".join(OPTIMISATION_EVAL_SOURCE.splitlines()[:40]))
    print("    ...")
    print()
    print(f"reachability goal: execute the call to {TABLE2_TARGET_CALL}()")
    print()

    analyzed = optimisation_eval_program()
    print(f"{'optimisation technique':<28} {'time [ms]':>10} {'memory [KiB]':>13} "
          f"{'steps':>6} {'state bits':>11} {'vars':>5} {'trans':>6}")
    for name, config in TABLE2_CONFIGURATIONS:
        model = build_optimized_model(analyzed, EVAL_FUNCTION_NAME, config)
        target = find_target_block(model.translation.cfg)
        checker = ModelChecker(
            model.translation,
            QueryEngineOptions(engine=EngineKind.SYMBOLIC, slicing=False),
        )
        started = time.perf_counter()
        result = checker.find_test_data_for_block(target)
        elapsed = (time.perf_counter() - started) * 1000
        stats = result.statistics
        print(f"{name:<28} {elapsed:>10.1f} {stats.memory_bytes / 1024:>13.1f} "
              f"{stats.steps:>6} {model.state_bits:>11} "
              f"{len(model.system.variables):>5} {len(model.system.transitions):>6}")
        if name == "all optimisations used":
            print(f"{'':28}   witness test data: {result.counterexample.inputs}")
    print()
    print("paper (SAL, 2004 hardware): unoptimised 283.4 s / 229 MB / 28 steps,")
    print("all optimisations 2.2 s / 26 MB / 13 steps -- same ordering, same shape.")


if __name__ == "__main__":
    main()
