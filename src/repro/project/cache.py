"""Persistent on-disk cache of per-function analysis results.

Results are keyed by a SHA-256 over three components:

* the cache schema version (bumping :data:`CACHE_SCHEMA` invalidates
  everything after an incompatible format change),
* the function's *transitive* fingerprint -- its content fingerprint
  (file-scope environment + pretty-printed body, see
  :func:`repro.project.model.function_fingerprint`) closed over the content
  of every resolved callee (see
  :meth:`repro.callgraph.graph.CallGraph.transitive_fingerprints`), so
  editing a leaf callee invalidates exactly the leaf plus its transitive
  callers -- and
* the fingerprint of the :class:`~repro.pipeline.analyzer.AnalyzerConfig`.

Each entry is one small JSON file ``<root>/<key[:2]>/<key>.json`` holding a
:class:`~repro.project.report.FunctionSummary` payload; the two-character
shard keeps directories small for big projects.

Crash safety
------------
Writes are atomic (temp file + ``os.replace``) and serialised against other
writers of the same cache directory by an advisory ``flock`` on
``<root>/.lock``, so parallel runs sharing a cache never observe torn
entries.  Entries that are nevertheless unreadable -- a torn write from a
killed process, bit rot, a hostile edit -- are *quarantined*: moved to the
``corrupt/`` sibling directory next to a ``*.diag.json`` note, and counted
(``project.cache.quarantined``), so a bad entry can never poison a run twice
and the evidence survives for inspection.  Schema-mismatched entries are a
plain miss and are left in place (they belong to another code version).

Write failures are never silent: they are swallowed (the cache is an
optimization; an unwritable directory must not discard results), but counted
per instance (:attr:`ResultCache.write_failures`) and globally
(``project.cache.write_failures``), and the first failure records a
warn-once diagnostic the scheduler copies onto the project report.  No
``.tmp`` file is left behind on any failure path.  :meth:`ResultCache.verify`
sweeps the whole store on demand (CLI ``cache-verify``).
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import tempfile
from pathlib import Path

from .. import obs, perf
from ..pipeline.analyzer import AnalyzerConfig
from ..resilience import FaultInjector, FaultKind, InjectedFault
from .model import config_fingerprint
from .report import FunctionSummary

try:  # advisory locking is POSIX-only; the cache degrades to lockless
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: schema tag stored in (and required of) every cache entry; /2 added the
#: interprocedural summary fields and switched keys to transitive
#: fingerprints; /3 added budget-exhaustion counts to generator statistics;
#: /4 added the resilience fields (degraded/quarantined/retries) to
#: :class:`FunctionSummary` payloads; /5 added the ``kind`` discriminator
#: and the model-checking query namespace (persisted per-(slice, goal)
#: verdicts + witnesses, see :mod:`repro.mc.store`); /6 added the
#: static-analysis fields (sa_diagnostics/sa_edges_pruned/
#: sa_loop_bounds_inferred) to :class:`FunctionSummary` payloads; /7
#: starts every global at :func:`~repro.minic.folding.initial_value` (a
#: result keyed on an unchanged source may hold a bound from the old rule);
#: /8 evaluates model expressions with the board's wrap and sa's interval
#: domain (a bound or UNREACHABLE verdict from the old semantics has the
#: same key as one from the new)
CACHE_SCHEMA = "repro-project-cache/8"

#: sibling directory quarantined (corrupt) entries are moved into
CORRUPT_DIR = "corrupt"

#: entry kind -> the payload field holding its body
_BODY_FIELD = {"function": "summary", "query": "entry"}


class ResultCache:
    """Content-addressed store of :class:`FunctionSummary` results."""

    def __init__(self, root: str | Path | None):
        self._root = Path(root) if root is not None else None
        self.hits = 0
        self.misses = 0
        #: query-namespace lookups (kept apart from the function-level
        #: ``hits``/``misses``, which feed the project report's cache stats)
        self.query_hits = 0
        self.query_misses = 0
        self.write_failures = 0
        self.read_failures = 0
        self.quarantined = 0
        #: entries skipped because they carry another code version's schema
        #: (a plain miss, counted separately from corruption for operators)
        self.schema_mismatches = 0
        #: warn-once diagnostics (first write failure, quarantines, ...)
        self.diagnostics: list[str] = []
        self._warned_write_failure = False
        #: injector for the ``cache.read`` / ``cache.write`` fault sites
        #: (attached by the scheduler or CLI in chaos runs)
        self.fault_injector: FaultInjector | None = None

    # ------------------------------------------------------------------ #
    @classmethod
    def disabled(cls) -> "ResultCache":
        return cls(root=None)

    @property
    def root(self) -> Path | None:
        return self._root

    @property
    def enabled(self) -> bool:
        """A cache without a root directory stores and finds nothing."""
        return self._root is not None

    # ------------------------------------------------------------------ #
    def key_for(self, function_fingerprint: str, config: AnalyzerConfig) -> str:
        """Cache key of one (function content, analyzer config) pair."""
        digest = hashlib.sha256(
            "\n".join(
                [CACHE_SCHEMA, function_fingerprint, config_fingerprint(config)]
            ).encode("utf-8")
        )
        return digest.hexdigest()

    def query_key_for(self, slice_fingerprint: str, goal_fingerprint: str) -> str:
        """Cache key of one (sliced system, goal) model-checking query.

        The ``"query"`` component namespaces these keys away from the
        function-level ones, so both kinds share one directory, lock and
        quarantine machinery without ever colliding.
        """
        digest = hashlib.sha256(
            "\n".join(
                [CACHE_SCHEMA, "query", slice_fingerprint, goal_fingerprint]
            ).encode("utf-8")
        )
        return digest.hexdigest()

    def path_for(self, key: str) -> Path:
        if self._root is None:
            raise ValueError("cache has no root directory")
        return self._root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------ #
    def _lock(self):
        """Advisory exclusive lock on ``<root>/.lock`` (context manager)."""
        return _CacheLock(self._root)

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> FunctionSummary | None:
        """Load the summary stored under *key*, or ``None`` on a miss.

        Unreadable I/O (real or injected) counts ``read_failures`` and reads
        as a miss; a corrupt entry is quarantined and reads as a miss.
        """
        if self._root is None:
            return None
        summary = self._lookup(key, "function")
        if summary is None:
            self.misses += 1
            perf.add("project.cache.misses")
            return None
        self.hits += 1
        perf.add("project.cache.hits")
        summary.from_cache = True
        return summary

    def get_query(self, key: str) -> dict | None:
        """Load the raw query-store entry under *key*, or ``None`` on a miss.

        The entry object comes back as stored: *semantic* validation --
        checksum, fingerprint echo, witness replay -- belongs to
        :class:`repro.mc.store.QueryStore`, which treats anything invalid
        as a miss and quarantines it via :meth:`quarantine_query`.
        """
        if self._root is None:
            return None
        entry = self._lookup(key, "query")
        if entry is None:
            self.query_misses += 1
            perf.add("project.cache.query_misses")
            return None
        self.query_hits += 1
        perf.add("project.cache.query_hits")
        return entry

    def _lookup(self, key: str, kind: str) -> FunctionSummary | dict | None:
        """The body of the *kind* entry under *key*, or ``None``.

        The one lookup path of both kinds: the ``cache.read`` fault site,
        the ``project.cache.lookup`` region and :meth:`_read`.  An entry of
        the other kind reads as another version's (cannot happen by
        construction: the two kinds' keys never collide).
        """
        try:
            spec = None
            if self.fault_injector is not None:
                spec = self.fault_injector.check("cache.read", key)
            with obs.region("project.cache.lookup", key=key[:12]):
                found, body = self._read(
                    key,
                    corrupt=spec is not None and spec.kind is FaultKind.CORRUPT,
                )
        except InjectedFault as fault:
            self._read_failed(key, fault)
            return None
        if body is not None and found != kind:
            self._schema_mismatch()
            return None
        return body

    def _read(self, key: str, corrupt: bool = False) -> tuple[str | None, object]:
        """Parse the entry under *key* into ``(kind, body)``.

        ``body`` is a :class:`FunctionSummary` for a ``"function"`` entry and
        the raw entry object for a ``"query"`` one, or ``None`` when the
        entry is missing, unreadable (counted), another schema's (counted,
        left in place) or corrupt (quarantined).  ``kind`` is ``None`` when
        the file does not parse to a JSON object.  ``corrupt`` simulates a
        torn entry discovered at read time (a ``cache.read`` CORRUPT fault)
        by garbling the bytes just read.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None, None
        except OSError as error:
            self._read_failed(key, error)
            return None, None
        if corrupt:
            text = text[: max(1, len(text) // 2)]
        try:
            payload = json.loads(text)
        except ValueError as error:
            self._quarantine(path, key, f"unparsable JSON: {error}")
            return None, None
        if not isinstance(payload, dict):
            self._quarantine(path, key, "payload is not a JSON object")
            return None, None
        kind = payload.get("kind", "function")
        if not isinstance(kind, str):
            kind = None
        if payload.get("schema") != CACHE_SCHEMA or kind not in _BODY_FIELD:
            # a different (older/newer) code version's entry: miss, not corrupt
            self._schema_mismatch()
            return kind, None
        field = _BODY_FIELD[kind]
        body = payload.get(field)
        if not isinstance(body, dict):
            self._quarantine(path, key, f"{kind} entry has no {field} object")
            return kind, None
        if kind == "query":
            return kind, body
        try:
            return kind, FunctionSummary.from_dict(body)
        except TypeError as error:
            self._quarantine(path, key, f"summary payload malformed: {error}")
            return kind, None

    def _read_failed(self, key: str, error: Exception) -> None:
        self.read_failures += 1
        perf.add("project.cache.read_failures")
        self.diagnostics.append(f"cache read failed for {key[:12]}…: {error}")

    def _schema_mismatch(self) -> None:
        self.schema_mismatches += 1
        perf.add("project.cache.schema_mismatches")

    # ------------------------------------------------------------------ #
    def put(self, key: str, summary: FunctionSummary) -> None:
        """Store *summary* under *key* (atomic; no-op when disabled)."""
        if self._root is not None:
            self._save(key, "function", summary.result_payload())

    def put_query(self, key: str, entry: dict) -> bool:
        """Store one query-store entry (atomic; ``False`` when not stored)."""
        return self._root is not None and self._save(key, "query", entry)

    def _save(self, key: str, kind: str, body: dict) -> bool:
        """Atomically persist one entry of either kind; ``True`` when stored.

        The cache is an optimization: an unwritable directory must not
        discard the analysis results it was asked to remember, so storage
        failures are swallowed -- but counted (``write_failures`` /
        ``project.cache.write_failures``) and surfaced once as a diagnostic,
        and no temp file survives the failure.
        """
        payload = {"schema": CACHE_SCHEMA, "key": key, "kind": kind}
        payload[_BODY_FIELD[kind]] = body
        text = json.dumps(payload, indent=2)
        path = self.path_for(key)
        try:
            with obs.region("project.cache.store", key=key[:12]), \
                    self._lock():
                path.parent.mkdir(parents=True, exist_ok=True)
                handle = tempfile.NamedTemporaryFile(
                    "w",
                    dir=path.parent,
                    prefix=f".{key[:8]}-",
                    suffix=".tmp",
                    delete=False,
                    encoding="utf-8",
                )
                try:
                    spec = None
                    if self.fault_injector is not None:
                        spec = self.fault_injector.check("cache.write", key)
                    if spec is not None and spec.kind is FaultKind.CORRUPT:
                        # simulate a torn write: persist a truncated entry
                        text = text[: max(1, len(text) // 2)]
                    with handle:
                        handle.write(text)
                        handle.write("\n")
                    os.replace(handle.name, path)
                except BaseException:
                    os.unlink(handle.name)
                    raise
        except (OSError, InjectedFault) as error:
            self.write_failures += 1
            perf.add("project.cache.write_failures")
            if not self._warned_write_failure:
                self._warned_write_failure = True
                self.diagnostics.append(
                    f"cache writes are failing (first: {key[:12]}…: {error}); "
                    "results are kept in memory but will not be reused"
                )
            return False
        perf.add("project.cache.stores")
        return True

    def quarantine_query(self, key: str, reason: str) -> None:
        """Quarantine the query entry under *key* (e.g. failed witness replay)."""
        if self._root is None:
            return
        path = self.path_for(key)
        if path.is_file():
            self._quarantine(path, key, reason)

    # ------------------------------------------------------------------ #
    def etag(self, key: str) -> str | None:
        """The HTTP entity tag of the entry stored under *key*, if any.

        The store is content-addressed -- the key already commits to the
        schema version, the function's transitive fingerprint and the
        analyzer config -- so the key *is* the strong validator: an entry
        can never change behind an unchanged key, only appear or vanish.
        Returns ``None`` when no entry exists (or caching is disabled).
        """
        if self._root is None:
            return None
        return key if self.path_for(key).is_file() else None

    def stats(self) -> dict[str, object]:
        """Operational snapshot: store size on disk plus per-instance counts.

        ``entries``/``bytes`` walk the shard directories (cheap for the
        store sizes one daemon accumulates) and count regular files only:
        a directory named like an entry is no entry (:meth:`verify` reports
        it as unreadable); the remaining fields are the
        counters this instance accumulated since it was opened, with
        schema-mismatched reads reported distinctly from corrupt ones.
        """
        entries = 0
        total_bytes = 0
        for path in self._entry_paths():
            try:
                status = path.stat()
            except OSError:
                continue
            if stat.S_ISREG(status.st_mode):
                entries += 1
                total_bytes += status.st_size
        return {
            "enabled": self.enabled,
            "directory": str(self._root) if self._root else None,
            "entries": entries,
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "query_hits": self.query_hits,
            "query_misses": self.query_misses,
            "write_failures": self.write_failures,
            "read_failures": self.read_failures,
            "schema_mismatches": self.schema_mismatches,
            "quarantined": self.quarantined,
        }

    def _entry_paths(self) -> list[Path]:
        """Every live entry file, shard by shard (quarantine excluded)."""
        if self._root is None or not self._root.is_dir():
            return []
        return [
            path
            for shard in sorted(self._root.iterdir())
            if shard.is_dir() and shard.name != CORRUPT_DIR
            for path in sorted(shard.glob("*.json"))
        ]

    # ------------------------------------------------------------------ #
    def _quarantine(self, path: Path, key: str, reason: str) -> None:
        """Move a corrupt entry to ``corrupt/`` with a diagnostic note."""
        assert self._root is not None
        target_dir = self._root / CORRUPT_DIR
        try:
            with self._lock():
                target_dir.mkdir(parents=True, exist_ok=True)
                target = target_dir / path.name
                os.replace(path, target)
                diag = target_dir / f"{path.stem}.diag.json"
                diag.write_text(
                    json.dumps({"key": key, "reason": reason}, indent=2) + "\n",
                    encoding="utf-8",
                )
        except OSError:
            # quarantine is best-effort; the entry still reads as a miss
            pass
        self.quarantined += 1
        perf.add("project.cache.quarantined")
        self.diagnostics.append(
            f"quarantined corrupt cache entry {key[:12]}…: {reason}"
        )

    def verify(self) -> dict[str, object]:
        """Sweep every entry of both kinds, quarantining corrupt ones.

        Every entry goes through the lookup parser (:meth:`_read`); query
        entries then get the offline structural validation of
        :mod:`repro.mc.store` (checksum over the canonical entry,
        verdict/witness shape, trace chaining) -- witness *replay* needs
        the sliced system and happens on the load path instead.  Entries
        that cannot be read at all (I/O errors) are ``unreadable``.
        Returns ``{"checked": n, "ok": n, "quarantined": n,
        "unreadable": n, "schema_mismatch": n, "query_checked": n,
        "query_ok": n, "query_quarantined": n, "entries": [...]}``.
        """
        from ..mc.store import structural_error

        counts = dict.fromkeys(
            (
                "checked", "ok", "quarantined", "unreadable", "schema_mismatch",
                "query_checked", "query_ok", "query_quarantined",
            ),
            0,
        )
        notes: list[str] = []
        for path in self._entry_paths():
            key = path.stem
            counts["checked"] += 1
            quarantined_before = self.quarantined
            read_failures_before = self.read_failures
            kind, body = self._read(key)
            is_query = kind == "query"
            if is_query:
                counts["query_checked"] += 1
                reason = structural_error(body) if body is not None else None
                if reason is not None:
                    self._quarantine(path, key, f"query entry invalid: {reason}")
                    body = None
                elif body is not None:
                    counts["query_ok"] += 1
            if body is not None:
                counts["ok"] += 1
            elif self.quarantined > quarantined_before:
                counts["quarantined"] += 1
                if is_query:
                    counts["query_quarantined"] += 1
                notes.append(self.diagnostics[-1])
            elif self.read_failures > read_failures_before:
                counts["unreadable"] += 1
                notes.append(self.diagnostics[-1])
            else:
                counts["schema_mismatch"] += 1
                notes.append(f"schema mismatch (stale version): {key[:12]}…")
        perf.add("project.cache.verified_entries", counts["checked"])
        return {**counts, "entries": notes}


class _CacheLock:
    """Advisory exclusive ``flock`` on ``<root>/.lock`` (best-effort)."""

    def __init__(self, root: Path | None):
        self._root = root
        self._handle = None

    def __enter__(self):
        if fcntl is None or self._root is None:
            return self
        try:
            self._root.mkdir(parents=True, exist_ok=True)
            self._handle = open(self._root / ".lock", "a+")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        except OSError:
            # lockless operation beats failing the write outright
            if self._handle is not None:
                self._handle.close()
                self._handle = None
        return self

    def __exit__(self, *exc_info):
        if self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - unlock cannot really fail
                pass
            self._handle.close()
            self._handle = None
        return False
