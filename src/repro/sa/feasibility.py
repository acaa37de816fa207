"""Sound interval analysis over mini-C CFGs: branch feasibility and state ranges.

The model checker answers reachability questions exactly but at solver cost.
This module settles a useful subset of those questions *statically*: a forward
interval propagation with branch-condition refinement proves edges and blocks
unreachable, and the :class:`StaticPrefilter` turns those proofs into
``UNREACHABLE`` verdicts in front of :mod:`repro.mc.query` — with no solver
call and, by construction, verdicts identical to what the model checker would
return (the differential suite in ``tests/test_sa.py`` enforces this).

The same fixpoint is the paper's variable range analysis (Section 3.2.4): its
final pass collects the hull of every value stored into each variable, and
:attr:`FeasibilityResult.state_ranges` sizes the model checker's state
variables from it.

Soundness is the contract.  Expressions are evaluated by
:class:`~repro.minic.intervals.SoundEvaluator`, the one interval domain of
the reproduction (the solver filters constraints with it too), which widens
every result that may wrap to its type range, as the board wraps each
subexpression.  Side-effecting conditions are never used for refinement, and
widening bails to the type range after a bounded number of updates — so an
edge reported infeasible is infeasible for *every* concrete execution the
interpreter or the transition system could produce.

Function entry and calls follow the board, which runs the analysed function
as its entry point:

* a call to a function the unit defines havocs every global (callees share
  globals; the verification board runs the body of a stubbed callee too);
  a call to a function the unit does not define writes nothing, as on the
  board and in the model checker, and every call's value keeps its type
  range;
* with ``initialised`` entry a non-input global starts at its
  :func:`~repro.minic.folding.initial_value`, as the board resets it before
  every run and the variable-initialisation model (Section 3.2.5) starts
  it; inputs keep their declared or type range and parameters their type
  range.  Models that leave variables uninitialised let a global start at
  any value, so their state ranges come from the any-value entry
  (``initialised=False``).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from collections.abc import Iterable

from .. import perf
from ..analysis.liveness import block_liveness
from ..cfg.graph import (
    BasicBlock,
    ControlFlowGraph,
    Edge,
    EdgeKind,
    TerminatorKind,
)
from ..minic.ast_nodes import (
    AssignExpr,
    BoolLiteral,
    CallExpr,
    DeclStmt,
    Expr,
    ExprStmt,
    Identifier,
    IntLiteral,
    Program,
    ReturnStmt,
    Stmt,
)
from ..minic.folding import assigned_variables, has_calls, initial_value
from ..minic.intervals import (
    FALSE_RANGE,
    TRUE_RANGE,
    EvalEvent,
    RangeEnvironment,
    SoundEvaluator,
    _line_of,
)
from ..minic.symbols import FunctionSymbolTable, SymbolKind
from ..minic.types import IntRange

#: interval updates of one variable at one block before widening to type range
_WIDENING_THRESHOLD = 3

#: largest selector interval enumerated to prove a switch default dead
_DEFAULT_ENUM_LIMIT = 4096


def defined_functions(program: Program) -> frozenset[str]:
    """Names of the functions *program* defines (their calls run a body)."""
    return frozenset(function.name for function in program.functions)


def _calls_defined(expr: Expr, defined: frozenset[str]) -> bool:
    """True when *expr* calls one of the *defined* functions."""
    if isinstance(expr, CallExpr) and expr.name in defined:
        return True
    return any(
        _calls_defined(child, defined)
        for child in expr.children()
        if isinstance(child, Expr)
    )


def variable_defaults(table: FunctionSymbolTable) -> dict[str, IntRange]:
    """Default interval of every variable: declared (pragma) range or type range."""
    defaults: dict[str, IntRange] = {}
    for name, symbol in table.variables.items():
        declared = symbol.declared_range
        defaults[name] = declared if declared is not None else symbol.ctype.value_range()
    return defaults



@dataclass(frozen=True)
class ConstantBranch:
    """A branch whose condition has a statically known truth value."""

    block_id: int
    line: int | None
    value: bool


@dataclass
class FeasibilityResult:
    """Outcome of the feasibility fixpoint for one function CFG."""

    #: block ids provably executable (entry environment exists)
    reachable: frozenset[int]
    #: real block ids that can never execute
    unreachable_blocks: frozenset[int]
    #: ``(source, target, kind.value)`` of provably infeasible edges
    infeasible_edges: frozenset[tuple[int, int, str]]
    #: sound interval environment at the entry of every reachable block
    block_entry: dict[int, RangeEnvironment]
    #: domain of every variable as a model-checker state variable
    state_ranges: dict[str, IntRange]
    constant_branches: tuple[ConstantBranch, ...] = ()
    events: tuple[EvalEvent, ...] = ()



class FeasibilityAnalyzer:
    """Forward interval propagation along *feasible* edges only.

    *defined* names the functions whose calls run a body (and so may write
    any global); *initialised* starts non-input globals at their static
    initialisers instead of any value (see the module docstring).
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        table: FunctionSymbolTable,
        defined: frozenset[str],
        initialised: bool,
    ):
        self._cfg = cfg
        self._table = table
        self._defined = defined
        self._initialised = initialised
        #: declared (pragma) range or type range; the any-value entry
        self._defaults = variable_defaults(table)
        #: widening / havoc target: always the full type range (assignments
        #: and callee writes may leave a declared input range)
        self._type_ranges = {
            name: symbol.ctype.value_range()
            for name, symbol in table.variables.items()
            if not symbol.ctype.is_void
        }
        self._globals = tuple(
            name
            for name, symbol in table.variables.items()
            if symbol.kind is SymbolKind.GLOBAL and not symbol.ctype.is_void
        )
        self._evaluator = SoundEvaluator(self._type_ranges)
        self._events: list[EvalEvent] = []
        self._seen_events: set[tuple[str, int]] = set()
        self._constant_branches: list[ConstantBranch] = []
        #: hull of every value stored into each variable; collected by the
        #: final pass only (``None`` while iterating)
        self._stored: dict[str, IntRange] | None = None

    # ------------------------------------------------------------------ #
    def run(self) -> FeasibilityResult:
        entry_env: dict[int, RangeEnvironment] = {
            self._cfg.entry.block_id: self._entry_environment()
        }
        names = set(self._defaults)
        update_counts: dict[tuple[int, str], int] = {}
        worklist = deque([self._cfg.entry.block_id])
        pending = {self._cfg.entry.block_id}
        out_env: dict[int, RangeEnvironment] = {}
        iterations = 0
        while worklist:
            iterations += 1
            if iterations > 50 * max(1, len(self._cfg)):
                break  # widening guarantees this is unreachable, but be safe
            block_id = worklist.popleft()
            pending.discard(block_id)
            env_in = entry_env.get(block_id)
            if env_in is None:
                continue
            block = self._cfg.block(block_id)
            env_out = self._transfer(block, env_in.copy())
            if block_id in out_env and out_env[block_id] == env_out:
                continue
            out_env[block_id] = env_out
            for edge, env_edge in self._edge_envs(block, env_out):
                if env_edge is None:
                    continue
                successor = edge.target
                if successor in entry_env:
                    joined = entry_env[successor].join(env_edge, names, self._defaults)
                    joined = self._widen(
                        successor, entry_env[successor], joined, update_counts
                    )
                    if joined == entry_env[successor]:
                        continue
                    entry_env[successor] = joined
                else:
                    entry_env[successor] = env_edge.copy()
                if successor not in pending:
                    pending.add(successor)
                    worklist.append(successor)

        # final sound pass: environments are at their largest now, so any edge
        # still contradictory is contradictory for every execution; this pass
        # also records the diagnostic events (div-by-zero, overflow, constant
        # branches) and the stored-value hulls against the *final*
        # environments only.
        self._evaluator.recorder = self._note_event
        self._stored = {}
        infeasible: set[tuple[int, int, str]] = set()
        for block_id, env_in in entry_env.items():
            block = self._cfg.block(block_id)
            env_out = self._transfer(block, env_in.copy(), recording=True)
            for edge, env_edge in self._edge_envs(block, env_out, recording=True):
                if env_edge is None:
                    infeasible.add((edge.source, edge.target, edge.kind.value))
        self._evaluator.recorder = None
        state_ranges = self._state_ranges(self._stored)
        self._stored = None

        reachable = frozenset(entry_env)
        unreachable = frozenset(
            block.block_id
            for block in self._cfg.real_blocks()
            if block.block_id not in reachable
        )
        return FeasibilityResult(
            reachable=reachable,
            unreachable_blocks=unreachable,
            infeasible_edges=frozenset(infeasible),
            block_entry=entry_env,
            state_ranges=state_ranges,
            constant_branches=tuple(self._constant_branches),
            events=tuple(self._events),
        )

    def _entry_environment(self) -> RangeEnvironment:
        ranges = dict(self._defaults)
        if self._initialised:
            for name in self._globals:
                if self._table.variables[name].is_input:
                    continue
                # the frontend rejects a global whose initialiser does not fold
                value = initial_value(self._table.variables[name].decl)
                ranges[name] = IntRange(value, value)
        return RangeEnvironment(ranges=ranges)

    # ------------------------------------------------------------------ #
    def _state_ranges(self, stored: dict[str, IntRange]) -> dict[str, IntRange]:
        """Per-variable domain used to size the model's state variables.

        * analysis inputs keep their declared (pragma) range or type range;
        * variables that may be read before being written (live at function
          entry) keep their default range too -- their uninitialised value is
          part of the state space;
        * every other variable gets the hull of the values it is stored (plus
          its initial value), which is exactly the information the
          paper's variable range analysis feeds back into the model.
        """
        entry_successors = self._cfg.successors(self._cfg.entry)
        live_at_entry: frozenset[str] = frozenset()
        if entry_successors:
            live_at_entry = block_liveness(self._cfg).live_in.get(
                entry_successors[0].block_id, frozenset()
            )

        ranges: dict[str, IntRange] = {}
        for name, default in self._defaults.items():
            if self._table.variables[name].is_input or name in live_at_entry:
                ranges[name] = default
                continue
            hull = stored.get(name)
            value = initial_value(self._table.variables[name].decl)
            if value is not None:
                initial = IntRange(value, value)
                hull = initial if hull is None else hull.union(initial)
            if hull is None:
                # never stored and never read before written: one value is
                # enough to represent it
                hull = IntRange(0, 0)
            clamped = hull.intersect(default)
            ranges[name] = clamped if clamped is not None else default
        return ranges

    def _note_event(self, event: EvalEvent) -> None:
        key = (event.kind, event.node_id)
        if key in self._seen_events:
            return
        self._seen_events.add(key)
        self._events.append(event)

    def _widen(
        self,
        block_id: int,
        old: RangeEnvironment,
        new: RangeEnvironment,
        counts: dict[tuple[int, str], int],
    ) -> RangeEnvironment:
        widened = dict(new.ranges)
        for name, new_range in new.ranges.items():
            old_range = old.ranges.get(name, self._defaults.get(name, new_range))
            if new_range != old_range:
                key = (block_id, name)
                counts[key] = counts.get(key, 0) + 1
                if counts[key] > _WIDENING_THRESHOLD:
                    widened[name] = self._type_ranges.get(name, new_range)
        return RangeEnvironment(ranges=widened)

    # ------------------------------------------------------------------ #
    # transfer functions
    # ------------------------------------------------------------------ #
    def _transfer(
        self, block: BasicBlock, env: RangeEnvironment, recording: bool = False
    ) -> RangeEnvironment:
        for stmt in block.statements:
            self._transfer_stmt(stmt, env, recording)
        return env

    def _transfer_stmt(
        self, stmt: Stmt, env: RangeEnvironment, recording: bool
    ) -> None:
        if isinstance(stmt, DeclStmt):
            if stmt.init is None:
                # uninitialised declaration: junk value, full type range
                fallback = self._type_ranges.get(stmt.name)
                if fallback is not None:
                    env.ranges[stmt.name] = fallback
                return
            calls = _calls_defined(stmt.init, self._defined)
            if calls:
                self._havoc_globals(env)
            value = self._evaluator.evaluate(stmt.init, env)
            env.ranges[stmt.name] = self._store(stmt.name, value)
            if calls:
                self._havoc_globals(env)
            return
        if isinstance(stmt, ExprStmt):
            calls = _calls_defined(stmt.expr, self._defined)
            if calls:
                self._havoc_globals(env)
            self._transfer_expr(stmt.expr, env)
            if calls:
                self._havoc_globals(env)
            return
        if isinstance(stmt, ReturnStmt) and stmt.value is not None:
            calls = _calls_defined(stmt.value, self._defined)
            if calls:
                self._havoc_globals(env)
            if recording:
                self._evaluator.evaluate(stmt.value, env)
            if calls:
                self._havoc_globals(env)

    def _transfer_expr(self, expr: Expr, env: RangeEnvironment) -> None:
        if isinstance(expr, AssignExpr):
            self._transfer_expr(expr.value, env)
            value = self._evaluator.evaluate(expr.value, env)
            env.ranges[expr.target.name] = self._store(expr.target.name, value)
            return
        for child in expr.children():
            if isinstance(child, Expr):
                self._transfer_expr(child, env)
        if not isinstance(expr, (Identifier, IntLiteral, BoolLiteral)):
            # evaluate non-trivial reads so the recorder (final pass) sees
            # division/overflow sites outside assignment values too
            if self._evaluator.recorder is not None:
                self._evaluator.evaluate(expr, env)

    def _store(self, name: str, value: IntRange) -> IntRange:
        """Value interval after storing into *name* (wraps at its type)."""
        limit = self._type_ranges.get(name)
        if limit is not None and not (limit.lo <= value.lo and value.hi <= limit.hi):
            value = limit
        if self._stored is not None:
            known = self._stored.get(name)
            self._stored[name] = value if known is None else known.union(value)
        return value

    def _havoc_globals(self, env: RangeEnvironment) -> None:
        """A defined callee may write any global: widen them all to their
        type range."""
        for name in self._globals:
            env.ranges[name] = self._store(name, self._type_ranges[name])

    # ------------------------------------------------------------------ #
    # edge feasibility
    # ------------------------------------------------------------------ #
    def _edge_envs(
        self, block: BasicBlock, env_out: RangeEnvironment, recording: bool = False
    ) -> list[tuple[Edge, RangeEnvironment | None]]:
        edges = self._cfg.out_edges(block)
        terminator = block.terminator
        condition = terminator.condition
        if condition is None or terminator.kind not in (
            TerminatorKind.BRANCH,
            TerminatorKind.SWITCH,
        ):
            return [(edge, env_out.copy()) for edge in edges]

        if has_calls(condition) or assigned_variables(condition):
            # side-effecting condition: no refinement, havoc its effects
            havoced = env_out.copy()
            for name in assigned_variables(condition):
                fallback = self._type_ranges.get(name)
                if fallback is not None:
                    havoced.ranges[name] = self._store(name, fallback)
            if _calls_defined(condition, self._defined):
                self._havoc_globals(havoced)
            return [(edge, havoced.copy()) for edge in edges]

        if recording:
            self._evaluator.evaluate(condition, env_out)

        if terminator.kind is TerminatorKind.BRANCH:
            truth = self._evaluator.condition_truth(condition, env_out)
            if recording and truth in (TRUE_RANGE, FALSE_RANGE):
                self._constant_branches.append(
                    ConstantBranch(
                        block_id=block.block_id,
                        line=_line_of(condition),
                        value=truth == TRUE_RANGE,
                    )
                )
            result: list[tuple[Edge, RangeEnvironment | None]] = []
            for edge in edges:
                if edge.kind is EdgeKind.TRUE:
                    if truth == FALSE_RANGE:
                        result.append((edge, None))
                    else:
                        result.append(
                            (edge, self._evaluator.refine(condition, True, env_out))
                        )
                elif edge.kind is EdgeKind.FALSE:
                    if truth == TRUE_RANGE:
                        result.append((edge, None))
                    else:
                        result.append(
                            (edge, self._evaluator.refine(condition, False, env_out))
                        )
                else:
                    result.append((edge, env_out.copy()))
            return result

        # SWITCH
        selector = self._evaluator.evaluate(condition, env_out)
        all_case_values: set[int] = set()
        for edge in edges:
            if edge.kind is EdgeKind.CASE:
                all_case_values.update(edge.case_values)
        result = []
        for edge in edges:
            if edge.kind is EdgeKind.CASE:
                surviving = [v for v in edge.case_values if v in selector]
                if not surviving:
                    result.append((edge, None))
                    continue
                refined = env_out.copy()
                if isinstance(condition, Identifier):
                    refined.ranges[condition.name] = IntRange(
                        min(surviving), max(surviving)
                    )
                result.append((edge, refined))
            elif edge.kind is EdgeKind.DEFAULT:
                if selector.size() <= _DEFAULT_ENUM_LIMIT and all(
                    value in all_case_values
                    for value in range(selector.lo, selector.hi + 1)
                ):
                    result.append((edge, None))
                else:
                    result.append((edge, env_out.copy()))
            else:
                result.append((edge, env_out.copy()))
        return result


def analyze_feasibility(
    cfg: ControlFlowGraph,
    table: FunctionSymbolTable,
    defined: frozenset[str],
    *,
    initialised: bool,
) -> FeasibilityResult:
    """Run the sound feasibility analysis on *cfg*.

    *defined* is :func:`defined_functions` of the unit; *initialised* picks
    the entry rule (initialisers for the prefilter and initialised models,
    any value for models that leave variables uninitialised).
    """
    perf.add("sa.fixpoints")
    return FeasibilityAnalyzer(cfg, table, defined, initialised).run()


class StaticPrefilter:
    """Answers "is this goal statically unreachable?" for the query engine.

    Plugged into :class:`repro.mc.query.QueryEngineOptions` (duck-typed — the
    mc layer never imports sa; ``tests/test_layering.py`` checks it).  A ``True`` answer is a *proof*: the target
    blocks can never execute or a required edge can never be taken when the
    board runs the function from its initialised globals, so the model
    checker on an initialised model would necessarily report
    ``UNREACHABLE``.  Build it from the initialised entry
    (``initialised=True``).
    """

    def __init__(self, feasibility: FeasibilityResult):
        #: the fixpoint the answers come from; the cfg-preserving model
        #: reads its state ranges instead of running it again
        self.feasibility = feasibility
        self._unreachable = set(feasibility.unreachable_blocks)
        self._infeasible_edges = set(feasibility.infeasible_edges)

    @property
    def unreachable_blocks(self) -> frozenset[int]:
        return frozenset(self._unreachable)

    @property
    def infeasible_edges(self) -> frozenset[tuple[int, int, str]]:
        return frozenset(self._infeasible_edges)

    def path_is_infeasible(
        self,
        blocks: Iterable[int],
        edges: Iterable[tuple[int, int, str]],
    ) -> bool:
        """True when no execution can follow a path through *blocks* and *edges*.

        The path is proved infeasible when one of its blocks is unreachable,
        or one of its edges is infeasible or has an unreachable endpoint.
        Edges are ``(source, target, kind value)`` triples as in
        :class:`repro.testgen.targets.PathTarget`.
        """
        unreachable = self._unreachable
        if any(block in unreachable for block in blocks):
            return True
        return any(
            edge in self._infeasible_edges
            or edge[0] in unreachable
            or edge[1] in unreachable
            for edge in edges
        )

    def goal_is_unreachable(self, goal, location_block) -> bool:
        from ..mc.slicing import parse_label

        # ordered labels: every one must be takeable for the goal to hold
        blocks: list[int] = []
        edges: list[tuple[int, int, str]] = []
        for label in goal.ordered_labels:
            parsed = parse_label(label)
            if parsed is None:
                continue
            if parsed[0] == "block":
                blocks.append(parsed[1])
            else:
                edges.append(parsed[1:])
        if self.path_is_infeasible(blocks, edges):
            return True

        # target disjuncts: *all* of them must be provably unreachable
        disjuncts: list[bool] = []
        provable = True
        for label in goal.target_labels:
            parsed = parse_label(label)
            if parsed is None:
                provable = False
                break
            if parsed[0] == "block":
                disjuncts.append(parsed[1] in self._unreachable)
            else:
                _, source, target, kind = parsed
                disjuncts.append(
                    (source, target, kind) in self._infeasible_edges
                    or source in self._unreachable
                    or target in self._unreachable
                )
        if provable:
            for location in goal.target_locations:
                block_id = location_block.get(location)
                if block_id is None:
                    provable = False
                    break
                disjuncts.append(block_id in self._unreachable)
        if provable and disjuncts and all(disjuncts):
            return True
        return False
