"""Resilience layer: deterministic fault injection, retries, deadlines.

This package hardens the whole-project pipeline for the ROADMAP's
service/distributed directions: every failure mode the scheduler, cache and
analyzer must survive can be injected deterministically (``--inject-fault``),
and the recovery machinery (bounded retries with seeded backoff, cooperative
per-job deadlines, quarantine) is shared between the serial and pooled
execution paths.
"""

from __future__ import annotations

from .faults import (
    JOB_SITES,
    SITES,
    Deadline,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedFault,
    JobTimeout,
    ResilienceContext,
    activate,
    current,
    injector_armed,
    maybe_fault,
    poll_deadline,
)
from .retry import (
    PERMANENT_ERRORS,
    TRANSIENT_ERRORS,
    RetryPolicy,
    classify_error,
    execute_with_retry,
)

__all__ = [
    "JOB_SITES",
    "SITES",
    "Deadline",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InjectedFault",
    "JobTimeout",
    "ResilienceContext",
    "activate",
    "current",
    "injector_armed",
    "maybe_fault",
    "poll_deadline",
    "PERMANENT_ERRORS",
    "TRANSIENT_ERRORS",
    "RetryPolicy",
    "classify_error",
    "execute_with_retry",
]
