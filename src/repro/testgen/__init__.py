"""Test-data generation: random, genetic, model-checking and the hybrid driver."""

from __future__ import annotations

from .genetic import (
    GeneticOptions,
    GeneticOutcome,
    GeneticStatistics,
    GeneticTestDataGenerator,
)
from .hybrid import (
    CoverageSource,
    HybridOptions,
    HybridTestDataGenerator,
    TargetReport,
    TestSuite,
)
from .inputs import InputSpace, InputVariable
from .modelcheck_gen import (
    ModelCheckGeneratorStatistics,
    ModelCheckOutcome,
    ModelCheckingTestDataGenerator,
    TargetStatus,
)
from .random_gen import RandomTestDataGenerator
from .targets import CoverageTracker, PathTarget, build_targets

__all__ = [
    "GeneticOptions",
    "GeneticOutcome",
    "GeneticStatistics",
    "GeneticTestDataGenerator",
    "CoverageSource",
    "HybridOptions",
    "HybridTestDataGenerator",
    "TargetReport",
    "TestSuite",
    "InputSpace",
    "InputVariable",
    "ModelCheckGeneratorStatistics",
    "ModelCheckOutcome",
    "ModelCheckingTestDataGenerator",
    "TargetStatus",
    "RandomTestDataGenerator",
    "CoverageTracker",
    "PathTarget",
    "build_targets",
]
