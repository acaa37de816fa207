"""Hybrid test-data generation: heuristics first, model checking for the rest.

Run with::

    python examples/test_data_generation.py

The example uses a program with a "needle in the haystack" condition
(``key == 4711``) that random testing essentially never hits, plus an
infeasible branch.  It shows the three phases of the paper's Section 3:

1. random test data: a small input space runs whole, once per vector in
   a seeded order; a larger one is sampled until the coverage plateau,
2. genetic-algorithm search guided by branch distances,
3. model checking for whatever remains -- producing either a witness vector
   or an infeasibility proof.
"""

from __future__ import annotations

from repro.cfg import build_cfg
from repro.hw import EvaluationBoard
from repro.minic import parse_and_analyze
from repro.partition import partition_function
from repro.optim import OptimizationConfig, build_optimized_model
from repro.testgen import (
    CoverageSource,
    GeneticOptions,
    HybridOptions,
    HybridTestDataGenerator,
)

SOURCE = """
#pragma input key
#pragma input level
#pragma input mode
#pragma range key 0 60000
#pragma range level 0 100
#pragma range mode 0 3
UInt16 key; int level; int mode;
int out;

void unlock(void);
void partial_unlock(void);
void reject(void);
void impossible(void);

void authorize(void) {
    out = 0;
    if (key == 4711) {
        if (level > 90) {
            unlock();
            out = 2;
        } else {
            partial_unlock();
            out = 1;
        }
    } else {
        reject();
    }
    if (mode > 1 && mode < 2) {
        impossible();
    }
}
"""


def main() -> None:
    analyzed = parse_and_analyze(SOURCE)
    function = analyzed.program.function("authorize")
    cfg = build_cfg(function)
    partition = partition_function(function, 1, cfg)
    board = EvaluationBoard(analyzed)

    print(f"program segments: {len(partition.segments)}, "
          f"required measurements: {partition.measurements}")
    print()

    options = HybridOptions(
        plateau_patterns=60,
        max_random_vectors=300,
        genetic=GeneticOptions(population_size=30, max_generations=40, seed=11),
        seed=11,
    )
    generator = HybridTestDataGenerator(
        analyzed, "authorize", board, partition, cfg, options
    )
    suite = generator.generate()

    print("per-target provenance:")
    for report in suite.reports:
        vector = f" vector={report.vector}" if report.vector else ""
        print(f"  {report.target.describe():<38} -> {report.source.value}{vector}")
    print()
    print("summary:", suite.summary())
    print(f"heuristic share: {suite.heuristic_share:.0%} (paper expects > 90%)")
    print()

    print("the model checker's view of the program (optimised transition system):")
    model = build_optimized_model(analyzed, "authorize", OptimizationConfig.all())
    for note in model.notes:
        print("  -", note)
    print(f"  state vector: {model.state_bits} bits "
          f"(unoptimised: {model.unoptimized_state_bits} bits)")


if __name__ == "__main__":
    main()
