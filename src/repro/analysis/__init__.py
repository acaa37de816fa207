"""Dataflow analyses shared by the state-space optimisations and the pipeline.

Liveness and reaching definitions run on the indexed-bitset engine
(:mod:`repro.analysis.bitset`); ``tests/dataflow_reference.py`` keeps their
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
    "cfg_bitset_index",
    "cfg_definition_index",
    "cfg_use_defs",
    "iter_bits",
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
