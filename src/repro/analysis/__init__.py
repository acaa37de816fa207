"""Dataflow analyses shared by the state-space optimisations and the pipeline.

Liveness and reaching definitions run on the indexed-bitset engine
(:mod:`repro.analysis.bitset`); :mod:`repro.analysis.reference` keeps their
frozenset originals, solved by a textbook worklist, as the test oracle.  The
interval analysis that sizes model-checker state variables is not here: it is
the sound fixpoint of :mod:`repro.sa.feasibility`.
"""

from __future__ import annotations

from .bitset import (
    BitsetLiveness,
    BitsetReaching,
    CfgBitsetIndex,
    DefinitionIndex,
    VariableInterner,
    bitset_block_liveness,
    bitset_reaching_definitions,
    cfg_bitset_index,
    cfg_definition_index,
    iter_bits,
)
from .liveness import (
    LivenessResult,
    block_liveness,
    live_range_conflicts,
    statement_liveness,
    unused_variables,
)
from .reaching import Definition, ReachingResult, reaching_definitions
from .relevance import (
    RelevanceResult,
    analyze_relevance,
    control_relevant_variables,
    irrelevant_statements,
)
from .reference import (
    DataflowProblem,
    DataflowResult,
    Direction,
    block_liveness_reference,
    reaching_definitions_reference,
    set_union,
    solve_reference,
)
from .usedef import (
    CfgUseDefs,
    UseDef,
    block_condition_uses,
    block_use_def,
    cfg_use_defs,
    statement_use_def,
)

__all__ = [
    "BitsetLiveness",
    "BitsetReaching",
    "CfgBitsetIndex",
    "CfgUseDefs",
    "DefinitionIndex",
    "VariableInterner",
    "bitset_block_liveness",
    "bitset_reaching_definitions",
    "block_liveness_reference",
    "cfg_bitset_index",
    "cfg_definition_index",
    "cfg_use_defs",
    "iter_bits",
    "reaching_definitions_reference",
    "solve_reference",
    "DataflowProblem",
    "DataflowResult",
    "Direction",
    "set_union",
    "LivenessResult",
    "block_liveness",
    "live_range_conflicts",
    "statement_liveness",
    "unused_variables",
    "Definition",
    "ReachingResult",
    "reaching_definitions",
    "RelevanceResult",
    "analyze_relevance",
    "control_relevant_variables",
    "irrelevant_statements",
    "UseDef",
    "block_condition_uses",
    "block_use_def",
    "statement_use_def",
]
