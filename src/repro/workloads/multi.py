"""Synthetic multi-function workload for the project orchestration driver.

The TargetLink generator (:mod:`repro.workloads.targetlink`) produces *one*
industrial-size function; this module produces a small *project* -- several
translation units, each defining several independent controller tasks -- to
exercise :mod:`repro.project`: parallel scheduling, per-function cache keys
and project-level aggregation.  Every task reads the unit's shared sensor
inputs (deliberately tiny ranges, so the per-function input space stays
exhaustively measurable), mixes if/else ladders, saturations and a
``switch`` over a selector input, and calls external runnable stubs --
the same ingredients as the single-function generator, shrunk to
batch-test size.

Two generators are provided: :func:`generate_multi_function_workload`
produces independent tasks (one scheduling wave, the PR 2 shape), and
:func:`generate_call_chain_workload` produces the interprocedural shape --
a three-deep call chain, a diamond that reconverges on a shared leaf and
cross-unit calls -- exercising :mod:`repro.callgraph` scheduling, callee
summary reuse and transitive cache invalidation.

Everything is seeded: the same ``seed`` always yields byte-identical
sources, which the project cache tests rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

#: ranges of the shared sensor inputs (kept tiny: 4**3 = 64 input vectors per
#: unit keeps exhaustive end-to-end measurement of every task cheap)
INPUT_RANGE_HI = 3
INPUTS_PER_UNIT = 3


@dataclass
class MultiFunctionWorkload:
    """A generated multi-unit, multi-function project."""

    #: unit name -> mini-C source text
    sources: dict[str, str]
    #: (unit name, function name) of every generated task
    functions: list[tuple[str, str]]
    seed: int

    @property
    def function_names(self) -> list[str]:
        return [name for _, name in self.functions]

    def write_to(self, directory: str | Path) -> list[Path]:
        """Write every unit into *directory*; return the file paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths: list[Path] = []
        for name in sorted(self.sources):
            path = directory / name
            path.write_text(self.sources[name], encoding="utf-8")
            paths.append(path)
        return paths


class _TaskGenerator:
    """Seeded generator of one unit's task functions."""

    def __init__(self, rng: random.Random, unit_index: int):
        self._rng = rng
        self._unit = unit_index
        self._inputs = [f"in{index}" for index in range(INPUTS_PER_UNIT)]
        self._stubs: list[str] = []

    # ------------------------------------------------------------------ #
    def render_unit(self, task_names: list[str]) -> str:
        bodies = [self._task(name) for name in task_names]
        lines = [f"/* synthetic multi-function workload, unit {self._unit} */"]
        for name in self._inputs:
            lines.append(f"#pragma input {name}")
        for name in self._inputs:
            lines.append(f"#pragma range {name} 0 {INPUT_RANGE_HI}")
        lines.append("")
        for name in self._inputs:
            lines.append(f"UInt8 {name};")
        for name in task_names:
            lines.append(f"Int16 out_{name} = 0;")
        lines.append("")
        for name in sorted(set(self._stubs)):
            lines.append(f"void {name}(void);")
        lines.append("")
        lines.extend(bodies)
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------ #
    def _task(self, name: str) -> str:
        rng = self._rng
        sel = rng.choice(self._inputs)
        lines = [f"void {name}(void) {{", "    Int16 acc = 0;"]
        lines.append(
            f"    acc = {self._input()} * {rng.randint(2, 9)} + {self._input()};"
        )
        lines.extend(self._saturation())
        lines.extend(self._ladder(depth=rng.randint(1, 2)))
        lines.extend(self._selector_switch(sel))
        if rng.random() < 0.7:
            stub = self._fresh_stub()
            lines.append(f"    if ((acc > {rng.randint(3, 12)}) && "
                         f"({self._input()} != 0)) {{")
            lines.append(f"        {stub}();")
            lines.append("    }")
        lines.append(f"    out_{name} = acc;")
        lines.append("}")
        lines.append("")
        return "\n".join(lines)

    def _input(self) -> str:
        return self._rng.choice(self._inputs)

    def _fresh_stub(self) -> str:
        name = f"runnable_{self._unit}_{len(self._stubs)}"
        self._stubs.append(name)
        return name

    def _saturation(self) -> list[str]:
        upper = self._rng.randint(10, 25)
        return [
            f"    if (acc > {upper}) {{",
            f"        acc = {upper};",
            "    }",
        ]

    def _ladder(self, depth: int) -> list[str]:
        rng = self._rng
        lines: list[str] = []
        pad = "    "
        for level in range(depth):
            operator = rng.choice(["<", "<=", ">", ">=", "==", "!="])
            lines.append(
                f"{pad}if ({self._input()} {operator} {rng.randint(0, INPUT_RANGE_HI)}) {{"
            )
            lines.append(f"{pad}    acc = acc + {rng.randint(1, 5)};")
            pad += "    "
        for level in range(depth):
            pad = pad[:-4]
            lines.append(f"{pad}}} else {{")
            lines.append(f"{pad}    acc = acc - {rng.randint(1, 3)};")
            lines.append(f"{pad}}}")
        return lines

    def _selector_switch(self, selector: str) -> list[str]:
        rng = self._rng
        lines = [f"    switch ({selector}) {{"]
        for value in range(rng.randint(2, INPUT_RANGE_HI)):
            lines.append(f"    case {value}:")
            lines.append(f"        acc = acc + {rng.randint(1, 6)};")
            lines.append("        break;")
        lines.append("    default:")
        lines.append(f"        acc = acc - {rng.randint(1, 4)};")
        lines.append("        break;")
        lines.append("    }")
        return lines


class _CallChainUnit:
    """Seeded generator of one unit of the call-chain workload.

    Every function is ``void f(void)``: it reads only the unit's pragma
    inputs, mixes a saturation and an if/else split (so each function has
    real path variance for the WCET pipeline), calls the requested callees
    as plain statements and writes its own ``out_<name>`` global.  Callees
    never read a caller-written global, which keeps the compositional
    summary charge sound: a callee's worst case over the pragma inputs
    covers every call site.
    """

    def __init__(self, rng: random.Random, unit_index: int):
        self._rng = rng
        self._unit = unit_index
        self._inputs = [f"in{index}" for index in range(INPUTS_PER_UNIT)]
        self._bodies: list[str] = []
        self._stubs: list[str] = []
        self.names: list[str] = []

    # ------------------------------------------------------------------ #
    def add_function(
        self,
        name: str,
        calls: tuple[str, ...] = (),
        with_external_stub: bool = False,
    ) -> None:
        """Add one task/helper; ``calls`` are emitted as call statements.

        Callee names may live in another unit (the project call graph
        resolves them); undeclared names are external stubs.
        """
        rng = self._rng
        lines = [f"void {name}(void) {{", "    Int16 acc = 0;"]
        lines.append(
            f"    acc = {rng.choice(self._inputs)} * {rng.randint(2, 9)} "
            f"+ {rng.choice(self._inputs)};"
        )
        upper = rng.randint(10, 25)
        lines += [f"    if (acc > {upper}) {{", f"        acc = {upper};", "    }"]
        operator = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        lines += [
            f"    if ({rng.choice(self._inputs)} {operator} "
            f"{rng.randint(0, INPUT_RANGE_HI)}) {{",
            f"        acc = acc + {rng.randint(1, 5)};",
            "    } else {",
            f"        acc = acc - {rng.randint(1, 3)};",
            "    }",
        ]
        for callee in calls:
            lines.append(f"    {callee}();")
        if with_external_stub:
            stub = f"runnable_{self._unit}_{len(self._stubs)}"
            self._stubs.append(stub)
            lines += [
                f"    if (acc > {rng.randint(3, 12)}) {{",
                f"        {stub}();",
                "    }",
            ]
        lines += [f"    out_{name} = acc;", "}", ""]
        self.names.append(name)
        self._bodies.append("\n".join(lines))

    def render(self) -> str:
        lines = [f"/* synthetic call-chain workload, unit {self._unit} */"]
        for name in self._inputs:
            lines.append(f"#pragma input {name}")
        for name in self._inputs:
            lines.append(f"#pragma range {name} 0 {INPUT_RANGE_HI}")
        lines.append("")
        for name in self._inputs:
            lines.append(f"UInt8 {name};")
        for name in self.names:
            lines.append(f"Int16 out_{name} = 0;")
        lines.append("")
        for name in sorted(set(self._stubs)):
            lines.append(f"void {name}(void);")
        lines.append("")
        lines.extend(self._bodies)
        return "\n".join(lines) + "\n"


def generate_call_chain_workload(
    seed: int = 2005, units: int = 2
) -> MultiFunctionWorkload:
    """Generate the interprocedural workload: deep chain + diamond + cross-unit.

    The call topology exercises every scheduling shape of the call-graph
    subsystem:

    * a three-deep call chain ``task_0 -> chain_top -> chain_mid ->
      chain_leaf`` (so editing ``chain_leaf`` must invalidate four cached
      results and nothing else),
    * a diamond ``task_0 -> {diamond_left, diamond_right} -> chain_leaf``
      (shared leaf summary reused by several callers on one wave), and
    * with ``units >= 2`` cross-unit calls: ``unit_1.c`` defines
      ``local_helper -> chain_top`` and ``task_1 -> {local_helper,
      chain_leaf}``, resolved project-wide rather than per translation
      unit, plus the call-free ``solo_task`` -- the control that must stay
      cache-warm when any other function is edited.

    Everything is seeded and byte-identical for equal ``seed`` values.
    """
    if units not in (1, 2):
        raise ValueError("the call-chain workload supports 1 or 2 units")
    sources: dict[str, str] = {}
    names: list[tuple[str, str]] = []

    unit_0 = _CallChainUnit(random.Random(f"{seed}/chain/0"), 0)
    unit_0.add_function("chain_leaf")
    unit_0.add_function("chain_mid", calls=("chain_leaf",))
    unit_0.add_function("chain_top", calls=("chain_mid",))
    unit_0.add_function("diamond_left", calls=("chain_leaf",))
    unit_0.add_function("diamond_right", calls=("chain_leaf",))
    unit_0.add_function(
        "task_0",
        calls=("chain_top", "diamond_left", "diamond_right"),
        with_external_stub=True,
    )
    sources["unit_0.c"] = unit_0.render()
    names.extend(("unit_0.c", name) for name in unit_0.names)

    if units == 2:
        unit_1 = _CallChainUnit(random.Random(f"{seed}/chain/1"), 1)
        unit_1.add_function("local_helper", calls=("chain_top",))
        unit_1.add_function(
            "task_1", calls=("local_helper", "chain_leaf"), with_external_stub=True
        )
        unit_1.add_function("solo_task", with_external_stub=True)
        sources["unit_1.c"] = unit_1.render()
        names.extend(("unit_1.c", name) for name in unit_1.names)

    return MultiFunctionWorkload(
        sources=sources, functions=sorted(names), seed=seed
    )


def edit_call_chain_function(
    sources: dict[str, str], function: str = "diamond_left"
) -> dict[str, str]:
    """Apply a semantic edit local to one call-chain workload function.

    Incremental-invalidation scenarios (service sessions, cache-frontier
    tests, the benchmark's edit workload) need "the same
    project with exactly one function changed".  Every rendered function
    ends with its unique output assignment ``out_<name> = acc;`` (the
    declaration is ``= 0;``, so the assignment cannot collide), which makes
    a minimal semantic edit textual: bump the assigned value.  The edit
    changes only *function*'s content fingerprint, so the expected
    invalidation frontier is that function plus its transitive callers.
    """
    marker = f"out_{function} = acc;"
    edited = dict(sources)
    for unit, source in sources.items():
        if marker in source:
            edited[unit] = source.replace(marker, f"out_{function} = acc + 1;")
            return edited
    raise ValueError(f"no function {function!r} in the given workload sources")


def generate_multi_function_workload(
    seed: int = 2005, functions: int = 4, units: int = 2
) -> MultiFunctionWorkload:
    """Generate *functions* tasks spread round-robin over *units* source files."""
    if functions < 1:
        raise ValueError("need at least one function")
    units = max(1, min(units, functions))
    per_unit: dict[int, list[str]] = {index: [] for index in range(units)}
    for index in range(functions):
        per_unit[index % units].append(f"task_{index}")

    sources: dict[str, str] = {}
    names: list[tuple[str, str]] = []
    for unit_index in range(units):
        unit_name = f"unit_{unit_index}.c"
        rng = random.Random(f"{seed}/{unit_index}")
        generator = _TaskGenerator(rng, unit_index)
        sources[unit_name] = generator.render_unit(per_unit[unit_index])
        names.extend((unit_name, task) for task in per_unit[unit_index])
    return MultiFunctionWorkload(
        sources=sources, functions=sorted(names), seed=seed
    )
