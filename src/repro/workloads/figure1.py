"""The example program of the paper's Figure 1.

The listing is reproduced verbatim (modulo the ``#pragma input`` annotation
that tells the analysis which variable is free -- in the paper the variable
``i`` is uninitialised, which is exactly the same thing).  Table 1 of the
paper reports the instrumentation-point / measurement trade-off for this
program, which ``benchmarks/test_bench_table1.py`` regenerates.

The program has

* 11 measurable basic blocks (each ``printfN()`` call terminates its block),
* 6 end-to-end paths: the outer ``if`` contributes 3 (skip, then+inner-then,
  then+inner-else), the second ``if`` contributes 2.
"""

from __future__ import annotations

from ..minic import AnalyzedProgram, parse_and_analyze

#: Source text of the paper's Figure 1 example (line numbers in the paper
#: refer to the listing as printed there; the structure is identical).
FIGURE1_SOURCE = """\
#pragma input i
#pragma range i 0 1

int i;

int main() {
    printf1();
    printf2();
    if (i == 0)
    {
        printf3();
        if (i == 0) {
            printf4();
        } else {
            printf5();
        }
    }
    if (i == 0)
    {
        printf6();
        printf7();
    }
    printf8();
}
"""

#: Expected Table 1 rows: path bound b -> (instrumentation points, measurements).
TABLE1_EXPECTED: dict[int, tuple[int, int]] = {
    1: (22, 11),
    2: (16, 9),
    3: (16, 9),
    4: (16, 9),
    5: (16, 9),
    6: (2, 6),
    7: (2, 6),
}

#: Number of measurable (non-virtual) basic blocks in the example CFG.
EXPECTED_BASIC_BLOCKS = 11

#: Number of end-to-end paths through ``main``.
EXPECTED_TOTAL_PATHS = 6


def figure1_analyzed() -> AnalyzedProgram:
    """Parse and semantically analyse the Figure 1 example."""
    return parse_and_analyze(FIGURE1_SOURCE, filename="figure1.c")
