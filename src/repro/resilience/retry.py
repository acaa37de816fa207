"""Bounded retries with deterministic exponential backoff.

The scheduler retries *transient* job failures (a crashed worker, an I/O
hiccup, an injected fault) a bounded number of times before quarantining the
job.  Backoff delays are fully deterministic: the jitter is a pure hash of
``(seed, key, attempt)``, so a chaos test under a fixed :class:`FaultPlan`
seed sleeps the exact same schedule every run.
"""

from __future__ import annotations

import hashlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pickle import PicklingError

from .faults import InjectedFault, JobTimeout


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently a failing job is retried."""

    max_attempts: int = 3
    base_delay_ms: int = 10
    max_delay_ms: int = 1000
    backoff_factor: float = 2.0
    #: +/- fraction of the capped delay added as deterministic jitter
    jitter: float = 0.1
    #: seed the jitter hash is keyed on (the fault plan's seed in chaos runs)
    seed: int = 0

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Backoff delay in seconds before retry *attempt* (1-based)."""
        if attempt < 1:
            return 0.0
        delay = self.base_delay_ms * (self.backoff_factor ** (attempt - 1))
        delay = min(delay, float(self.max_delay_ms))
        if self.jitter:
            digest = hashlib.sha256(
                f"{self.seed}|{key}|{attempt}".encode("utf-8")
            ).digest()
            draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
            delay *= 1.0 + self.jitter * (2.0 * draw - 1.0)
        return delay / 1000.0


#: exception types treated as transient (worth retrying)
TRANSIENT_ERRORS = (InjectedFault, OSError, BrokenProcessPool, ConnectionError)

#: exception types that are permanent by construction -- a deterministic
#: computation will time out or fail to pickle again, so retrying wastes
#: the wall-clock budget
PERMANENT_ERRORS = (JobTimeout, PicklingError)


def classify_error(error: BaseException) -> str:
    """``"transient"`` (retry) or ``"permanent"`` (quarantine/fail now)."""
    if isinstance(error, PERMANENT_ERRORS):
        return "permanent"
    if isinstance(error, TRANSIENT_ERRORS):
        return "transient"
    return "permanent"

