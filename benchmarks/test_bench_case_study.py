"""Section 4 case study: the wiper-control application.

The paper's case study runs the complete method on an automotive wiper
controller (9-state Stateflow chart, ~70 Simulink blocks, generated by
TargetLink, measured on a Motorola HCS12):

* the application is partitioned "so that each case block equals one PS";
* exhaustive end-to-end measurement over the small input space gives a true
  WCET of 250 cycles;
* the partitioned measurements combined with a simple timing schema give a
  WCET bound of 274 cycles (a ~10 % overestimation), without any semantic
  refinement.

The reproduction runs the full pipeline (partition → hybrid test data →
instrumented measurement → timing schema) on the regenerated wiper code and
asserts the same relationships: the bound is safe, the overestimation is
modest, and the heuristic generators cover the overwhelming majority of the
segment paths (the paper expects > 90 %).
"""

from __future__ import annotations

from repro.pipeline import AnalyzerConfig, WcetAnalyzer
from repro.testgen import HybridOptions
from repro.workloads.wiper import (
    PAPER_EXHAUSTIVE_WCET_CYCLES,
    PAPER_PARTITIONED_BOUND_CYCLES,
    WIPER_FUNCTION_NAME,
    wiper_chart,
)

from conftest import write_result


def _analyze(wiper_code):
    config = AnalyzerConfig(
        path_bound=2,
        hybrid=HybridOptions(plateau_patterns=40, max_random_vectors=200, seed=42),
        extra_random_vectors=40,
    )
    return WcetAnalyzer(wiper_code.analyzed, WIPER_FUNCTION_NAME, config).analyze()


def test_bench_case_study_wiper_control(benchmark, wiper_code, results_dir):
    chart = wiper_chart()
    assert len(chart.states) == 9

    report = benchmark.pedantic(_analyze, args=(wiper_code,), rounds=1, iterations=1)

    measured = report.measured_wcet_cycles
    bound = report.wcet_bound_cycles
    ratio = report.overestimation_ratio
    paper_ratio = PAPER_PARTITIONED_BOUND_CYCLES / PAPER_EXHAUSTIVE_WCET_CYCLES

    # the bound must be safe and the overestimation modest (paper: ~1.10x)
    assert measured is not None and bound >= measured
    assert 1.0 <= ratio <= 1.5
    # heuristics cover (nearly) everything; model checking handles the rest.
    # The 108-vector input space runs once each in the random phase, so no
    # genetic search is needed
    stats = report.generator_statistics
    assert stats["heuristic_share_percent"] >= 90
    assert stats["random_vectors_used"] <= 108 and stats["genetic_evaluations"] == 0

    lines = [
        "Case study reproduction: wiper-control application (paper Section 4)",
        f"  Stateflow chart            : {len(chart.states)} states, "
        f"~{chart.block_count()} model blocks (paper: 9 states, ~70 blocks)",
        f"  generated function         : {WIPER_FUNCTION_NAME} "
        "(nested switch/if structure, one case block per state)",
        f"  program segments           : {len(report.partition.segments)} "
        f"(path bound b = {report.path_bound})",
        f"  instrumentation points ip  : {report.partition.instrumentation_points}",
        f"  required measurements m    : {report.partition.measurements}",
        f"  infeasible segment paths   : {report.infeasible_paths}",
        f"  heuristic coverage share   : {stats['heuristic_share_percent']}% "
        f"(paper expects > 90%), from {stats['random_vectors_used']} random vectors "
        f"and {stats['genetic_evaluations']} genetic evaluations",
        "",
        f"  exhaustive end-to-end WCET : {measured} cycles "
        f"(paper: {PAPER_EXHAUSTIVE_WCET_CYCLES} cycles on the HCS12)",
        f"  partitioned WCET bound     : {bound} cycles "
        f"(paper: {PAPER_PARTITIONED_BOUND_CYCLES} cycles)",
        f"  overestimation             : {ratio:.3f}x (paper: {paper_ratio:.3f}x)",
        f"  bound is safe              : {report.is_safe()}",
        "",
        "absolute cycle counts differ (simulated cost model, smaller generated",
        "step function); the relationship bound >= exhaustive WCET with a",
        "modest overestimation reproduces the paper's result.",
    ]
    write_result(results_dir, "case_study.txt", lines)
