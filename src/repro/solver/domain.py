"""Finite domains for the constraint solver.

A :class:`Domain` is the set of values a solver variable may still take:
an inclusive integer interval with an optional set of excluded values
("holes").  Domains are immutable; narrowing operations return new domains so
the backtracking search can simply keep the previous ones on its stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..minic.types import IntRange


class EmptyDomainError(Exception):
    """Raised when an operation would produce an empty domain."""


@dataclass(frozen=True)
class Domain:
    """An integer domain ``{v : lo <= v <= hi} \\ excluded``."""

    lo: int
    hi: int
    excluded: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise EmptyDomainError(f"empty domain [{self.lo}, {self.hi}]")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_range(cls, rng: IntRange) -> "Domain":
        return cls(rng.lo, rng.hi)

    @classmethod
    def singleton(cls, value: int) -> "Domain":
        return cls(value, value)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi and value not in self.excluded

    def size(self) -> int:
        holes = sum(1 for value in self.excluded if self.lo <= value <= self.hi)
        return self.hi - self.lo + 1 - holes

    def is_singleton(self) -> bool:
        return self.size() == 1

    def single_value(self) -> int:
        if not self.is_singleton():
            raise ValueError("domain is not a singleton")
        for value in self.iter_values():
            return value
        raise EmptyDomainError("empty domain")  # pragma: no cover - guarded by size

    def to_range(self) -> IntRange:
        return IntRange(self.lo, self.hi)

    def bits(self) -> int:
        """Bits needed to encode a value of the interval (as :meth:`IntRange.bits`)."""
        return max(1, (self.hi - self.lo).bit_length())

    def iter_values(self) -> Iterator[int]:
        """Iterate the remaining values in ascending order."""
        for value in range(self.lo, self.hi + 1):
            if value not in self.excluded:
                yield value

    # ------------------------------------------------------------------ #
    # narrowing (all return new domains, raise EmptyDomainError when empty)
    # ------------------------------------------------------------------ #
    def restrict_bounds(self, lo: int | None = None, hi: int | None = None) -> "Domain":
        new_lo = self.lo if lo is None else max(self.lo, lo)
        new_hi = self.hi if hi is None else min(self.hi, hi)
        if new_lo > new_hi:
            raise EmptyDomainError(f"restriction to [{new_lo}, {new_hi}] is empty")
        domain = Domain(new_lo, new_hi, self._trim_excluded(new_lo, new_hi))
        if domain.size() <= 0:
            raise EmptyDomainError("restriction removed all values")
        return domain

    def remove_value(self, value: int) -> "Domain":
        if value not in self:
            return self
        if self.is_singleton():
            raise EmptyDomainError(f"removing {value} empties the domain")
        if value == self.lo:
            return Domain(self.lo + 1, self.hi, self._trim_excluded(self.lo + 1, self.hi))
        if value == self.hi:
            return Domain(self.lo, self.hi - 1, self._trim_excluded(self.lo, self.hi - 1))
        return Domain(self.lo, self.hi, self.excluded | {value})

    def assign(self, value: int) -> "Domain":
        if value not in self:
            raise EmptyDomainError(f"value {value} not in domain")
        return Domain.singleton(value)

    def split(self) -> tuple["Domain", "Domain"]:
        """Bisect the domain (used for branching on large domains)."""
        if self.is_singleton():
            raise ValueError("cannot split a singleton domain")
        middle = (self.lo + self.hi) // 2
        left = Domain(self.lo, middle, self._trim_excluded(self.lo, middle))
        right = Domain(middle + 1, self.hi, self._trim_excluded(middle + 1, self.hi))
        return left, right

    def _trim_excluded(self, lo: int, hi: int) -> frozenset[int]:
        return frozenset(v for v in self.excluded if lo <= v <= hi)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_singleton():
            return f"{{{self.lo}}}"
        holes = f" \\ {sorted(self.excluded)}" if self.excluded else ""
        return f"[{self.lo}..{self.hi}]{holes}"
