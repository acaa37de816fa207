"""Input-space model for test-data generation.

The analysis inputs are the variables annotated with ``#pragma input`` (plus
the parameters of the analysed function).  Their value ranges come from
``#pragma range`` annotations when present ("the code generator will have this
information from the MatLab/Simulink model in most of the cases",
Section 3.2.4) and fall back to the declared C type's range otherwise.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from ..minic.semantic import AnalyzedProgram
from ..minic.types import IntRange


class InputSpaceTooLarge(Exception):
    """Raised when enumerating an input space would need too many vectors."""


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


class Gene(NamedTuple):
    """One input variable's range, as the genetic operators read it."""

    lo: int
    hi: int
    #: values in [lo, hi]
    size: int
    #: the largest proportional jump of a mutation
    span: int


@dataclass
class InputSpace:
    """The set of input variables and their ranges.

    A *genome* is an input vector as a tuple of values in variable order;
    the genetic search breeds genomes and the board runs their vectors
    (:meth:`vector`).  :meth:`random_vector` and :meth:`random_genome` draw
    with :func:`draw_below` only and consume exactly what one
    ``rng.randint(lo, hi)`` per variable consumes, so a seed gives the same
    vectors (``tests/test_testgen.py::TestStreamIdentity``).
    """

    variables: list[InputVariable] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._names = tuple(variable.name for variable in self.variables)
        genes: list[Gene] = []
        for variable in self.variables:
            lo, hi = variable.value_range.lo, variable.value_range.hi
            size = hi - lo + 1
            genes.append(Gene(lo, hi, size, max(1, size // 16)))
        #: per variable, in order: its :class:`Gene`
        self.genes: tuple[Gene, ...] = tuple(genes)

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
        return list(self._names)

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

    def genomes(self, limit: int = 1_000_000) -> list[tuple[int, ...]]:
        """Every genome of the space in product order (the last variable
        varies fastest); raises :class:`InputSpaceTooLarge` above *limit*."""
        if self.size() > limit:
            raise InputSpaceTooLarge(
                f"input space has more than {limit} combinations; "
                "end-to-end measurement is computationally intractable here "
                "(which is exactly the paper's motivation for partitioning)"
            )
        return list(itertools.product(*(range(lo, hi + 1) for lo, hi, _, _ in self.genes)))

    def random_genome(self, rng: random.Random) -> tuple[int, ...]:
        """One uniform value per variable (``rng.randint(lo, hi)`` each)."""
        getrandbits = rng.getrandbits
        return tuple(lo + draw_below(getrandbits, size) for lo, _, size, _ in self.genes)

    def random_vector(self, rng: random.Random) -> dict[str, int]:
        """:meth:`random_genome` as a vector."""
        return dict(zip(self._names, self.random_genome(rng)))

    def genome(self, vector: dict[str, int]) -> tuple[int, ...]:
        """*vector* clamped into range, in variable order; a missing
        variable reads as its lower bound."""
        return tuple(
            min(hi, max(lo, vector.get(name, lo)))
            for name, (lo, hi, _, _) in zip(self._names, self.genes)
        )

    def vector(self, genome: tuple[int, ...]) -> dict[str, int]:
        """The input vector of *genome*."""
        return dict(zip(self._names, genome))

    def clamp(self, vector: dict[str, int]) -> dict[str, int]:
        return self.vector(self.genome(vector))
