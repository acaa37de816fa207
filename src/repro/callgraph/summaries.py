"""Callee WCET summary store for interprocedural bound composition.

Once a callee has been analysed (or its result recalled from the persistent
cache), its WCET bound becomes a :class:`CalleeSummary`.  The scheduler
collects them wave by wave in a :class:`CalleeSummaryStore` and hands each
caller the plain ``{call name -> bound cycles}`` mapping its analysis needs:
the simulated board then charges every call site ``call_overhead + bound``
instead of inlining the callee or guessing a library cost.

Calls that cannot be summarised -- recursion cycles, failed callees -- are
charged :data:`DEFAULT_UNKNOWN_CALL_CYCLES`, a deliberately pessimistic
constant: the interprocedural bound must only ever get *tighter* than the
calls-unknown fallback, never unsafely smaller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

#: pessimistic per-call charge for a project-defined callee without a usable
#: summary (recursion cycle, ambiguous name, no stored summary);
#: deliberately far above any leaf bound of the bundled workloads so the
#: summary-based bound is strictly tighter than this fallback
DEFAULT_UNKNOWN_CALL_CYCLES = 4096


@dataclass(frozen=True)
class CalleeSummary:
    """The WCET bound of one analysed callee, ready for reuse by callers."""

    #: qualified name (``unit:function``) of the callee
    qualified_name: str
    #: plain function name callers use at the call site
    call_name: str
    wcet_bound_cycles: int
    #: transitive fingerprint the bound was computed for
    transitive_fingerprint: str = ""
    #: True when the bound came from the persistent result cache
    from_cache: bool = False


class CalleeSummaryStore:
    """Bounds of completed callees, keyed by qualified name."""

    def __init__(self) -> None:
        self._summaries: dict[str, CalleeSummary] = {}

    def __len__(self) -> int:
        return len(self._summaries)

    def __contains__(self, qualified_name: str) -> bool:
        return qualified_name in self._summaries

    def add(self, summary: CalleeSummary) -> None:
        self._summaries[summary.qualified_name] = summary

    def get(self, qualified_name: str) -> CalleeSummary | None:
        return self._summaries.get(qualified_name)

    def bounds_for(
        self,
        resolved: Mapping[str, str],
        cyclic_names: tuple[str, ...] = (),
        unknown_call_cycles: int = DEFAULT_UNKNOWN_CALL_CYCLES,
    ) -> dict[str, int]:
        """Per-call-name charge map for one caller.

        ``resolved`` maps the caller's call names to qualified callee names
        (see :class:`~repro.callgraph.graph.CallGraphNode`); names listed in
        ``cyclic_names`` (calls into the caller's own recursion cycle) and
        resolved callees without a stored summary are charged
        ``unknown_call_cycles``.
        """
        bounds: dict[str, int] = {}
        for call_name in sorted(resolved):
            if call_name in cyclic_names:
                bounds[call_name] = unknown_call_cycles
                continue
            summary = self._summaries.get(resolved[call_name])
            if summary is None:
                bounds[call_name] = unknown_call_cycles
            else:
                bounds[call_name] = summary.wcet_bound_cycles
        return bounds
