"""Frozenset reference implementations of the hot dataflow analyses.

These are verbatim preservations of the original (pre-bitset) algorithms:
a small generic dataflow framework (:class:`DataflowProblem`) solved by a
textbook list worklist with ``pop(0)`` and linear membership scans, facts as
frozensets of names / :class:`Definition` sites, and use/def sets recomputed
per call.  They exist as **ground truth**: the property tests cross-check the
bitset engine (``tests/test_perf_bitset.py``) against these implementations
bit-for-bit.

They live with the tests, not in the package; production uses
:mod:`repro.analysis.liveness` / :mod:`repro.analysis.reaching`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterable, TypeVar

from repro.analysis.liveness import LivenessResult
from repro.analysis.reaching import Definition, ReachingResult
from repro.analysis.usedef import block_condition_uses, block_use_def, statement_use_def
from repro.cfg.graph import ControlFlowGraph

NodeT = TypeVar("NodeT", bound=Hashable)
FactT = TypeVar("FactT")


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass
class DataflowProblem(Generic[NodeT, FactT]):
    """Description of one dataflow analysis instance.

    Attributes
    ----------
    nodes:
        All graph nodes.
    successors:
        Forward successor function (the solver inverts it for backward
        problems).
    direction:
        Forward or backward.
    boundary:
        Fact at the entry (forward) or exit (backward) node(s).
    initial:
        Initial fact of every other node.
    join:
        Combine the facts flowing into a node.
    transfer:
        Per-node transfer function: ``transfer(node, in_fact) -> out_fact``.
    equals:
        Fact equality (defaults to ``==``).
    """

    nodes: list[NodeT]
    successors: Callable[[NodeT], Iterable[NodeT]]
    direction: Direction
    boundary_nodes: list[NodeT]
    boundary: FactT
    initial: FactT
    join: Callable[[list[FactT]], FactT]
    transfer: Callable[[NodeT, FactT], FactT]
    equals: Callable[[FactT, FactT], bool] = lambda a, b: a == b
    max_iterations: int = 10_000


@dataclass
class DataflowResult(Generic[NodeT, FactT]):
    """Fixed-point facts: value *entering* and *leaving* each node.

    For backward problems ``in_facts`` is the fact at node entry in program
    order (i.e. the analysis result usually reported as ``live-in``).
    """

    in_facts: dict[NodeT, FactT]
    out_facts: dict[NodeT, FactT]
    iterations: int


def set_union(facts: list[frozenset]) -> frozenset:
    """Join for may-analyses over sets."""
    result: frozenset = frozenset()
    for fact in facts:
        result |= fact
    return result


def solve_reference(problem: DataflowProblem) -> DataflowResult:
    """The original textbook worklist solver (list ``pop(0)``, double init).

    Kept byte-for-byte equivalent to the seed implementation so the
    property tests compare against the original algorithm.
    """
    nodes = list(problem.nodes)
    if problem.direction is Direction.FORWARD:
        flow_pred: dict = {n: [] for n in nodes}
        for node in nodes:
            for succ in problem.successors(node):
                flow_pred.setdefault(succ, []).append(node)
        flow_succ = {n: list(problem.successors(n)) for n in nodes}
    else:
        flow_pred = {n: list(problem.successors(n)) for n in nodes}
        flow_succ = {n: [] for n in nodes}
        for node in nodes:
            for succ in problem.successors(node):
                flow_succ.setdefault(succ, []).append(node)

    in_facts: dict = {}
    out_facts: dict = {}
    boundary = set(problem.boundary_nodes)
    for node in nodes:
        in_facts[node] = problem.boundary if node in boundary else problem.initial
        out_facts[node] = problem.transfer(node, in_facts[node])

    worklist = list(nodes)
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > problem.max_iterations:
            raise RuntimeError(
                f"dataflow analysis did not converge after {problem.max_iterations} steps"
            )
        node = worklist.pop(0)
        incoming = [out_facts[p] for p in flow_pred.get(node, ()) if p in out_facts]
        if node in boundary:
            new_in = problem.boundary if not incoming else problem.join(
                incoming + [problem.boundary]
            )
        elif incoming:
            new_in = problem.join(incoming)
        else:
            new_in = problem.initial
        new_out = problem.transfer(node, new_in)
        changed = not problem.equals(new_out, out_facts[node]) or not problem.equals(
            new_in, in_facts[node]
        )
        in_facts[node] = new_in
        out_facts[node] = new_out
        if changed:
            for succ in flow_succ.get(node, ()):
                if succ not in worklist:
                    worklist.append(succ)
    return DataflowResult(in_facts=in_facts, out_facts=out_facts, iterations=iterations)


def liveness_problem(cfg: ControlFlowGraph) -> DataflowProblem:
    """The liveness instance as a generic frozenset dataflow problem."""
    use_defs = {block.block_id: block_use_def(block) for block in cfg.blocks()}
    successor_map = cfg.successor_map()

    def successors(block_id: int) -> tuple[int, ...]:
        return successor_map[block_id]

    def transfer(block_id: int, live_out: frozenset[str]) -> frozenset[str]:
        use_def = use_defs[block_id]
        return use_def.uses | (live_out - use_def.defs)

    return DataflowProblem(
        nodes=[block.block_id for block in cfg.blocks()],
        successors=successors,
        direction=Direction.BACKWARD,
        boundary_nodes=[cfg.exit.block_id],
        boundary=frozenset(),
        initial=frozenset(),
        join=set_union,
        transfer=transfer,
    )


def block_liveness_reference(cfg: ControlFlowGraph) -> LivenessResult:
    """Seed implementation of :func:`repro.analysis.liveness.block_liveness`."""
    result = solve_reference(liveness_problem(cfg))
    # for a backward problem: in_facts = fact flowing into the node in flow
    # order = live-out; out_facts = transfer result = live-in
    live_out = {node: result.in_facts[node] for node in result.in_facts}
    live_in = {node: result.out_facts[node] for node in result.out_facts}
    return LivenessResult(live_in=live_in, live_out=live_out)


def reaching_problem(cfg: ControlFlowGraph) -> tuple[DataflowProblem, list[Definition]]:
    """The reaching-definitions instance as a generic frozenset problem."""
    definitions: list[Definition] = []
    defs_in_block: dict[int, list[Definition]] = {}
    for block in cfg.blocks():
        for index, stmt in enumerate(block.statements):
            for variable in statement_use_def(stmt).defs:
                definition = Definition(variable, block.block_id, index)
                definitions.append(definition)
                defs_in_block.setdefault(block.block_id, []).append(definition)

    defs_by_variable: dict[str, set[Definition]] = {}
    for definition in definitions:
        defs_by_variable.setdefault(definition.variable, set()).add(definition)

    gen_kill: dict[int, tuple[frozenset[Definition], frozenset[Definition]]] = {}
    for block in cfg.blocks():
        gen: dict[str, Definition] = {}
        kill: set[Definition] = set()
        for definition in defs_in_block.get(block.block_id, ()):  # in statement order
            kill |= defs_by_variable[definition.variable]
            gen[definition.variable] = definition  # later defs shadow earlier ones
        gen_kill[block.block_id] = (frozenset(gen.values()), frozenset(kill))

    successor_map = cfg.successor_map()

    def successors(block_id: int) -> tuple[int, ...]:
        return successor_map[block_id]

    def transfer(block_id: int, reach_in: frozenset[Definition]) -> frozenset[Definition]:
        gen, kill = gen_kill[block_id]
        return gen | (reach_in - kill)

    problem = DataflowProblem(
        nodes=[block.block_id for block in cfg.blocks()],
        successors=successors,
        direction=Direction.FORWARD,
        boundary_nodes=[cfg.entry.block_id],
        boundary=frozenset(),
        initial=frozenset(),
        join=set_union,
        transfer=transfer,
    )
    return problem, definitions


def reaching_definitions_reference(cfg: ControlFlowGraph) -> ReachingResult:
    """Seed implementation of :func:`repro.analysis.reaching.reaching_definitions`."""
    problem, definitions = reaching_problem(cfg)
    result = solve_reference(problem)
    reach_in = dict(result.in_facts)
    reach_out = dict(result.out_facts)

    # def-use chains by walking each block with its reach-in set
    uses: dict[Definition, set[tuple[int, int]]] = {d: set() for d in definitions}
    for block in cfg.blocks():
        current: dict[str, set[Definition]] = {}
        for definition in reach_in[block.block_id]:
            current.setdefault(definition.variable, set()).add(definition)
        for index, stmt in enumerate(block.statements):
            use_def = statement_use_def(stmt)
            for variable in use_def.uses:
                for definition in current.get(variable, ()):
                    uses[definition].add((block.block_id, index))
            for variable in use_def.defs:
                current[variable] = {Definition(variable, block.block_id, index)}
        for variable in block_condition_uses(block):
            for definition in current.get(variable, ()):
                uses[definition].add((block.block_id, -1))

    return ReachingResult(
        reach_in=reach_in, reach_out=reach_out, definitions=definitions, uses=uses
    )
