"""Reaching-definitions analysis and def-use chains.

Used by the reverse-CSE optimisation (Section 3.2.1): a temporary variable can
be substituted by its defining expression when

* it has exactly one definition,
* that definition reaches every use, and
* none of the variables the defining expression reads is redefined between
  the definition and the use.

The analysis works at statement granularity; definition sites are identified
by ``(block id, statement index)``.

Definition sites are interned to bit positions once per CFG and the fixpoint
runs as integer bitmask operations (:mod:`repro.analysis.bitset`, the only
solver used outside the tests); the def-use chain walk also stays in mask
space until the final conversion to the public frozenset-of-:class:`Definition`
result.  The frozenset reference implementation, solved by
``solve_reference``, lives in ``tests/dataflow_reference.py`` for
cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cfg.graph import ControlFlowGraph
from .bitset import DefinitionIndex, bitset_reaching_definitions, iter_bits
from .usedef import cfg_use_defs


@dataclass(frozen=True, order=True)
class Definition:
    """A definition site of a variable."""

    variable: str
    block_id: int
    statement_index: int


@dataclass
class ReachingResult:
    """Reaching definitions before/after every block plus def-use chains."""

    reach_in: dict[int, frozenset[Definition]]
    reach_out: dict[int, frozenset[Definition]]
    definitions: list[Definition]
    #: definition -> (block id, statement index) pairs of statements using it;
    #: a use site with statement index ``-1`` denotes the block's terminator
    #: condition.
    uses: dict[Definition, set[tuple[int, int]]]

    def definitions_of(self, variable: str) -> list[Definition]:
        return [d for d in self.definitions if d.variable == variable]


def _def_use_chains(
    cfg: ControlFlowGraph,
    reach_in_masks: dict[int, int],
    index: DefinitionIndex,
) -> dict[Definition, set[tuple[int, int]]]:
    """Walk every block with its reach-in mask and record definition uses."""
    use_defs = cfg_use_defs(cfg)
    definitions = index.definitions
    variable_defs = index.variable_defs
    bit_of = index.bit_of
    uses: dict[Definition, set[tuple[int, int]]] = {d: set() for d in definitions}
    for block in cfg.blocks():
        block_id = block.block_id
        #: per-variable mask of the definitions currently reaching this point
        current: dict[str, int] = {}
        reach_mask = reach_in_masks[block_id]
        if reach_mask:
            for variable, defs_mask in variable_defs.items():
                reaching = reach_mask & defs_mask
                if reaching:
                    current[variable] = reaching
        for stmt_index, use_def in enumerate(use_defs.statements(block_id)):
            for variable in use_def.uses:
                for bit in iter_bits(current.get(variable, 0)):
                    uses[definitions[bit]].add((block_id, stmt_index))
            for variable in use_def.defs:
                current[variable] = 1 << bit_of[
                    Definition(variable, block_id, stmt_index)
                ]
        for variable in use_defs.condition_uses(block_id):
            for bit in iter_bits(current.get(variable, 0)):
                uses[definitions[bit]].add((block_id, -1))
    return uses


def reaching_definitions(cfg: ControlFlowGraph) -> ReachingResult:
    """Compute reaching definitions and def-use chains for *cfg*."""
    solved = bitset_reaching_definitions(cfg)
    index = solved.index
    definitions_of = index.definitions_of
    reach_in = {
        block_id: definitions_of(mask) for block_id, mask in solved.reach_in.items()
    }
    reach_out = {
        block_id: definitions_of(mask) for block_id, mask in solved.reach_out.items()
    }
    uses = _def_use_chains(cfg, solved.reach_in, index)
    return ReachingResult(
        reach_in=reach_in,
        reach_out=reach_out,
        definitions=list(index.definitions),
        uses=uses,
    )
