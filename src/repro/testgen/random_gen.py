"""Random test-data generation.

The cheapest heuristic: uniform sampling of the input space.  The hybrid
driver runs it first because for well-conditioned generated code a large share
of segment paths is hit by random data alone; the genetic algorithm then works
on what is left, and model checking finishes the job.
"""

from __future__ import annotations

import random

from .inputs import InputSpace


class RandomTestDataGenerator:
    """Seeded uniform random vector generator."""

    def __init__(self, input_space: InputSpace, seed: int = 0):
        self._space = input_space
        self._rng = random.Random(seed)

    def generate(self, count: int) -> list[dict[str, int]]:
        """Generate *count* random input vectors."""
        return [self._space.random_vector(self._rng) for _ in range(count)]
