"""Input-space model for test-data generation.

The analysis inputs are the variables annotated with ``#pragma input`` (plus
the parameters of the analysed function).  Their value ranges come from
``#pragma range`` annotations when present ("the code generator will have this
information from the MatLab/Simulink model in most of the cases",
Section 3.2.4) and fall back to the declared C type's range otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..minic.semantic import AnalyzedProgram
from ..minic.types import IntRange


@dataclass(frozen=True)
class InputVariable:
    """One analysis input."""

    name: str
    value_range: IntRange


def draw_below(getrandbits, n: int) -> int:
    """A uniform integer in ``[0, n)``, drawn as ``random.Random`` draws it.

    This is CPython's ``Random._randbelow``, which ``randrange``,
    ``randint``, ``choice`` and ``sample`` call: ``getrandbits`` of
    ``n.bit_length()`` bits until the value is below ``n``.  Calling it with
    ``rng.getrandbits`` consumes the same stream as those wrappers.
    """
    bits = n.bit_length()
    value = getrandbits(bits)
    while value >= n:
        value = getrandbits(bits)
    return value


#: the +/- 1..4 nudges of :meth:`InputSpace.mutate`, in draw order
_NUDGES = (-4, -3, -2, -1, 1, 2, 3, 4)


@dataclass
class InputSpace:
    """The set of input variables and their ranges.

    :meth:`random_vector`, :meth:`mutate` and :meth:`crossover` draw with
    ``rng.random()`` and :func:`draw_below` only, and consume exactly the
    values their ``randint``/``choice`` formulation consumed, so a seed
    gives the same vectors (``tests/test_testgen.py::TestStreamIdentity``).
    """

    variables: list[InputVariable] = field(default_factory=list)

    def __post_init__(self) -> None:
        #: per variable: (name, lo, hi, values in [lo, hi], largest jump)
        self._genes: list[tuple[str, int, int, int, int]] = []
        for variable in self.variables:
            lo, hi = variable.value_range.lo, variable.value_range.hi
            size = hi - lo + 1
            self._genes.append((variable.name, lo, hi, size, max(1, size // 16)))

    # ------------------------------------------------------------------ #
    @classmethod
    def from_program(cls, analyzed: AnalyzedProgram, function_name: str) -> "InputSpace":
        table = analyzed.table(function_name)
        variables: list[InputVariable] = []
        for name in table.inputs:
            symbol = table.variables[name]
            value_range = (
                symbol.declared_range
                if symbol.declared_range is not None
                else symbol.ctype.value_range()
            )
            variables.append(InputVariable(name=name, value_range=value_range))
        return cls(variables=variables)

    # ------------------------------------------------------------------ #
    @property
    def names(self) -> list[str]:
        return [variable.name for variable in self.variables]

    def ranges(self) -> dict[str, IntRange]:
        return {variable.name: variable.value_range for variable in self.variables}

    def size(self) -> int:
        """Number of distinct input vectors (saturating at 2**63)."""
        total = 1
        for variable in self.variables:
            total *= variable.value_range.size()
            if total > 2**63:
                return 2**63
        return total

    def random_vector(self, rng: random.Random) -> dict[str, int]:
        """One uniform value per variable (``rng.randint(lo, hi)`` each)."""
        getrandbits = rng.getrandbits
        return {
            name: lo + draw_below(getrandbits, size)
            for name, lo, _, size, _ in self._genes
        }

    def clamp(self, vector: dict[str, int]) -> dict[str, int]:
        return {
            name: min(hi, max(lo, vector.get(name, lo)))
            for name, lo, hi, _, _ in self._genes
        }

    def mutate(
        self, vector: dict[str, int], rng: random.Random, mutation_rate: float = 0.3
    ) -> dict[str, int]:
        """Return a mutated copy of *vector*.

        Three mutation flavours, chosen uniformly per mutated gene: a full
        random reset (exploration), a proportional jump (coarse search) and a
        +/- 1..4 nudge (the local search that lets the branch-distance
        gradient close the final gap to an equality condition).
        """
        mutated = dict(vector)
        uniform, getrandbits = rng.random, rng.getrandbits
        for name, lo, hi, size, span in self._genes:
            if uniform() >= mutation_rate:
                continue
            flavour = uniform()
            if flavour < 1.0 / 3.0:
                mutated[name] = lo + draw_below(getrandbits, size)
                continue
            if flavour < 2.0 / 3.0:
                delta = draw_below(getrandbits, 2 * span + 1) - span
            else:
                delta = _NUDGES[draw_below(getrandbits, 8)]
            value = mutated[name] + delta
            mutated[name] = hi if value > hi else lo if value < lo else value
        return mutated

    def crossover(
        self, left: dict[str, int], right: dict[str, int], rng: random.Random
    ) -> dict[str, int]:
        """Uniform crossover of two vectors."""
        uniform = rng.random
        return {
            name: (left if uniform() < 0.5 else right).get(name, lo)
            for name, lo, _, _, _ in self._genes
        }
