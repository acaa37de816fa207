"""Synthetic TargetLink-scale application generator.

The industrial code the paper evaluates in Section 2.3 cannot be published
("due to intellectual property issues"), so this module generates programs
with the same published characteristics:

    "The source files of this application, with all include files resolved,
    have an average size of approximately 5000 lines of code, the analyzed
    functions have around 800 basic blocks and about 300 conditional
    branches."

and, for Figure 2, ``ip(b=1) = 857 * 2 = 1714`` -- i.e. 857 basic blocks.

:func:`generate_synthetic_application` produces a deterministic (seeded)
mini-C function built from the ingredients TargetLink emits -- nested
``if``/``else`` ladders, ``switch`` statements over mode variables, saturation
arithmetic, calls to runnable subsystem stubs -- and *calibrates itself*
against the real parser and CFG builder: it keeps appending generated leaf
sections until the block and branch counts hit the requested targets (within
a tolerance).  Calibration adds up block counts instead of parsing every
candidate: the first candidate is parsed once to find the leaf-free
hierarchy's blocks, each leaf is counted once in a fixed case body, and only
the program returned is analysed (and checked against the calibrated count).
Figures 2 and 3 are regenerated on this program.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from ..cfg.builder import build_cfg
from ..cfg.graph import ControlFlowGraph
from ..minic import AnalyzedProgram, parse_and_analyze, parse_program

#: published size of the paper's industrial function
PAPER_BASIC_BLOCKS = 857
PAPER_CONDITIONAL_BRANCHES = 300
PAPER_SOURCE_LINES = 5000


@dataclass
class SyntheticApplication:
    """A generated industrial-scale application."""

    source: str
    analyzed: AnalyzedProgram
    cfg: ControlFlowGraph
    function_name: str
    seed: int

    @property
    def basic_blocks(self) -> int:
        return len(self.cfg.real_blocks())

    @property
    def conditional_branches(self) -> int:
        return self.cfg.summary()["conditional_branches"]

    @property
    def source_lines(self) -> int:
        return sum(1 for line in self.source.splitlines() if line.strip())


class _Leaf(NamedTuple):
    """One generated leaf section and the blocks it adds to the function."""

    source: str
    blocks: int


def _function_blocks(source: str, function_name: str) -> int:
    """Real blocks of *function_name*'s CFG (parsed, not analysed)."""
    program = parse_program(source, "synthetic_targetlink_probe.c")
    return len(build_cfg(program.function(function_name)).real_blocks())


def _case_body_blocks(leaf: str) -> int:
    """Blocks of a one-case switch whose body is *leaf*, a stub call and
    ``break`` -- the layout of every sub-mode case of the render."""
    lines = ["void probe(void) {", "    switch (u1) {", "    case 0:"]
    lines.extend("        " + line for line in leaf.splitlines())
    lines += ["            probe_stub();", "            break;", "    }", "}"]
    return _function_blocks("\n".join(lines) + "\n", "probe")


@functools.cache
def _empty_case_body_blocks() -> int:
    return _case_body_blocks("")


def _leaf_blocks(leaf: str) -> int:
    """Blocks *leaf* adds to the case body it is rendered into."""
    return _case_body_blocks(leaf) - _empty_case_body_blocks()


@dataclass
class _GeneratorState:
    rng: random.Random
    input_names: list[str] = field(default_factory=list)
    local_names: list[str] = field(default_factory=list)
    stub_names: list[str] = field(default_factory=list)
    next_stub: int = 0


class SyntheticCodeGenerator:
    """Seeded generator of TargetLink-flavoured control code.

    The generated function is *hierarchical*, like real TargetLink output: a
    top-level ``switch`` over an operating-mode input, a nested ``switch``
    over a sub-mode input inside every mode, and a list of leaf sections
    (if/else ladders, saturations, subsystem calls) inside every sub-mode.
    The hierarchy is what gives Figure 2 its shape: raising the path bound
    first collapses leaf sections, then whole sub-modes, then whole modes,
    and finally the entire function (ip = 2).
    """

    def __init__(
        self,
        seed: int = 2005,
        inputs: int = 24,
        locals_: int = 16,
        modes: int = 6,
        submodes: int = 4,
    ):
        self._seed = seed
        self._state = _GeneratorState(rng=random.Random(seed))
        for index in range(inputs):
            self._state.input_names.append(f"u{index}")
        for index in range(locals_):
            self._state.local_names.append(f"aux{index}")
        self._modes = modes
        self._submodes = submodes
        #: leaf sections per (mode, submode)
        self._leaves: dict[tuple[int, int], list[_Leaf]] = {
            (mode, submode): []
            for mode in range(modes)
            for submode in range(submodes)
        }

    # ------------------------------------------------------------------ #
    def generate(
        self,
        target_blocks: int = PAPER_BASIC_BLOCKS,
        target_branches: int = PAPER_CONDITIONAL_BRANCHES,
        tolerance: float = 0.05,
        function_name: str = "controller_step",
        max_leaves: int = 4000,
    ) -> SyntheticApplication:
        """Generate a function whose CFG matches the requested size.

        Leaf sections are appended (round-robin over the mode/sub-mode
        hierarchy) until the block count reaches ``target_blocks`` within
        ``tolerance``; the branch count follows because the leaf templates
        mirror the paper's branch/block ratio.  Every candidate is rendered
        (rendering draws from the generator's RNG), but only the first is
        parsed: later block counts are the hierarchy's plus each leaf's, and
        only the final render is analysed.  Raises :class:`RuntimeError` if
        the final block count is not the calibrated one, which checks every
        leaf added after the first candidate.
        """
        del target_branches  # the leaf templates fix the branch/block ratio
        lower = int(target_blocks * (1.0 - tolerance))
        upper = int(target_blocks * (1.0 + tolerance))
        rng = self._state.rng
        keys = sorted(self._leaves)

        # seed every sub-mode with one leaf so the hierarchy is complete
        for key in keys:
            self._leaves[key].append(self._new_leaf())

        source = self._render(function_name)
        blocks = _function_blocks(source, function_name)
        # the leaf-free hierarchy's blocks (the stub names a render draws do
        # not change them); later candidates add up leaf blocks instead
        hierarchy = blocks - self._leaf_total()
        leaves = len(keys)
        batch = max(1, target_blocks // 80)
        while blocks < lower and leaves < max_leaves:
            for _ in range(batch):
                key = keys[rng.randrange(len(keys))]
                self._leaves[key].append(self._new_leaf())
                leaves += 1
            source = self._render(function_name)
            blocks = hierarchy + self._leaf_total()
        while blocks > upper and leaves > len(keys):
            # drop a leaf from the fullest sub-mode
            key = max(keys, key=lambda k: len(self._leaves[k]))
            if len(self._leaves[key]) > 1:
                self._leaves[key].pop()
                leaves -= 1
            else:
                break
            source = self._render(function_name)
            blocks = hierarchy + self._leaf_total()
        application = self._analyze(source, function_name)
        if application.basic_blocks != blocks:
            raise RuntimeError(
                f"calibration counted {blocks} blocks, the generated "
                f"function has {application.basic_blocks}"
            )
        return application

    # ------------------------------------------------------------------ #
    def _analyze(self, source: str, function_name: str) -> SyntheticApplication:
        analyzed = parse_and_analyze(source, filename="synthetic_targetlink.c")
        cfg = build_cfg(analyzed.program.function(function_name))
        return SyntheticApplication(
            source=source,
            analyzed=analyzed,
            cfg=cfg,
            function_name=function_name,
            seed=self._seed,
        )

    def _new_leaf(self) -> _Leaf:
        source = self._leaf_section()
        return _Leaf(source, _leaf_blocks(source))

    def _leaf_total(self) -> int:
        """Blocks the current leaves add to the function."""
        return sum(leaf.blocks for leaves in self._leaves.values() for leaf in leaves)

    def _render(self, function_name: str) -> str:
        """One calibration candidate: the function with the current leaves;
        draws stubs and assignments from the generator state."""
        state = self._state
        lines: list[str] = ["/* synthetic TargetLink-style application */"]
        for name in state.input_names:
            lines.append(f"#pragma input {name}")
        for name in state.input_names:
            # u0/u1 are the operating-mode selectors (the Simulink model would
            # declare them as small enumerations); every other input is a raw
            # 8-bit sensor value
            if name == "u0":
                lines.append(f"#pragma range {name} 0 {self._modes - 1}")
            elif name == "u1":
                lines.append(f"#pragma range {name} 0 {self._submodes - 1}")
            else:
                lines.append(f"#pragma range {name} 0 255")
        lines.append("")
        for name in state.input_names:
            lines.append(f"UInt8 {name};")
        for name in state.local_names:
            lines.append(f"Int16 {name} = 0;")
        lines.append("")
        for name in sorted(set(state.stub_names)):
            lines.append(f"void {name}(void);")
        lines.append("")
        lines.append(f"void {function_name}(void) {{")
        lines.append("    switch (u0) {")
        for mode in range(self._modes):
            lines.append(f"    case {mode}:")
            lines.append("        switch (u1) {")
            for submode in range(self._submodes):
                lines.append(f"        case {submode}:")
                for leaf in self._leaves[(mode, submode)]:
                    lines.extend("        " + line for line in leaf.source.splitlines())
                lines.append(f"            {self._fresh_stub()}();")
                lines.append("            break;")
            lines.append("        default:")
            lines.append(self._assignment().replace("        ", "            "))
            lines.append("            break;")
            lines.append("        }")
            lines.append("        break;")
        lines.append("    default:")
        lines.append(self._assignment().replace("        ", "        "))
        lines.append("        break;")
        lines.append("    }")
        lines.append("}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------ #
    # leaf-section templates
    # ------------------------------------------------------------------ #
    def _leaf_section(self) -> str:
        rng = self._state.rng
        choice = rng.random()
        if choice < 0.55:
            return self._if_ladder(depth=rng.randint(1, 3))
        if choice < 0.80:
            return self._switch_section(cases=rng.randint(3, 4))
        if choice < 0.95:
            return self._saturation_section()
        return self._subsystem_calls(count=rng.randint(1, 2))

    def _fresh_stub(self) -> str:
        name = f"subsystem_{self._state.next_stub}"
        self._state.next_stub += 1
        self._state.stub_names.append(name)
        return name

    def _input(self) -> str:
        return self._state.rng.choice(self._state.input_names)

    def _local(self) -> str:
        return self._state.rng.choice(self._state.local_names)

    def _condition(self) -> str:
        rng = self._state.rng
        variable = self._input() if rng.random() < 0.7 else self._local()
        operator = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        constant = rng.randint(0, 200)
        if rng.random() < 0.25:
            other = self._input()
            return f"({variable} {operator} {constant}) && ({other} != 0)"
        return f"{variable} {operator} {constant}"

    def _assignment(self) -> str:
        rng = self._state.rng
        target = self._local()
        source = self._input()
        constant = rng.randint(1, 50)
        operator = rng.choice(["+", "-", "*"])
        return f"        {target} = {source} {operator} {constant};"

    def _if_ladder(self, depth: int) -> str:
        lines = [f"    if ({self._condition()}) {{"]
        lines.append(self._assignment())
        if self._state.rng.random() < 0.5:
            lines.append(f"        {self._fresh_stub()}();")
        if depth > 1:
            inner = self._if_ladder(depth - 1)
            lines.extend("    " + line for line in inner.splitlines())
        lines.append("    } else {")
        lines.append(self._assignment())
        lines.append("    }")
        return "\n".join(lines)

    def _switch_section(self, cases: int) -> str:
        selector = self._input()
        lines = [f"    switch ({selector}) {{"]
        for value in range(cases):
            lines.append(f"    case {value}:")
            lines.append("    " + self._assignment())
            if self._state.rng.random() < 0.5:
                lines.append(f"        if ({self._condition()}) {{")
                lines.append("    " + self._assignment())
                lines.append("        }")
            lines.append("        break;")
        lines.append("    default:")
        lines.append("    " + self._assignment())
        lines.append("        break;")
        lines.append("    }")
        return "\n".join(lines)

    def _saturation_section(self) -> str:
        target = self._local()
        source = self._input()
        upper = self._state.rng.randint(100, 250)
        lower = self._state.rng.randint(0, 60)
        lines = [
            f"    {target} = {source} + {self._state.rng.randint(1, 30)};",
            f"    if ({target} > {upper}) {{",
            f"        {target} = {upper};",
            "    } else {",
            f"        if ({target} < {lower}) {{",
            f"            {target} = {lower};",
            "        }",
            "    }",
        ]
        return "\n".join(lines)

    def _subsystem_calls(self, count: int) -> str:
        lines = []
        for _ in range(count):
            lines.append(f"    {self._fresh_stub()}();")
            lines.append(self._assignment().replace("        ", "    "))
        return "\n".join(lines)


def generate_synthetic_application(
    seed: int = 2005,
    target_blocks: int = PAPER_BASIC_BLOCKS,
    target_branches: int = PAPER_CONDITIONAL_BRANCHES,
    tolerance: float = 0.05,
) -> SyntheticApplication:
    """Generate the industrial-size application used for Figures 2 and 3."""
    generator = SyntheticCodeGenerator(seed=seed)
    return generator.generate(
        target_blocks=target_blocks,
        target_branches=target_branches,
        tolerance=tolerance,
    )


def generate_small_application(seed: int = 7, target_blocks: int = 120) -> SyntheticApplication:
    """A smaller synthetic program for tests (same structure, faster to build)."""
    generator = SyntheticCodeGenerator(seed=seed, inputs=10, locals_=6, modes=3, submodes=2)
    return generator.generate(
        target_blocks=target_blocks, target_branches=target_blocks // 3, tolerance=0.15
    )
