"""Codebase self-lint: AST checks for the repo's own invariants.

A small rule engine over the Python AST of ``src/repro`` (instrumentation
names are checked against ``perf/NAMES.md`` by ``tests/test_perf_names.py``):

========  ============================================================
rule      invariant
========  ============================================================
SL001     no wall-clock (``time.time``) inside ``service/`` — the
          service is pinned to monotonic clocks (PR 8)
SL002     every literal fault-site name passed to ``maybe_fault`` /
          ``*_injector.check`` is registered in
          :data:`repro.resilience.faults.SITES`
SL004     a module-level ``ContextVar`` that is ever ``.set(...)`` is
          also ``.reset(...)`` somewhere in the same module (token
          discipline; leaking sets break per-request isolation)
========  ============================================================

Run by ``tests/test_selflint.py`` in the default tier-1 suite.  Intentional
exceptions go into ``tests/selflint_waivers.txt`` as ``RULE path`` lines
(paths relative to the scan root, ``#`` comments allowed).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from ..resilience.faults import SITES

RULES = ("SL001", "SL002", "SL004")

@dataclass(frozen=True)
class LintFinding:
    """One violation of a self-lint rule."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def load_waivers(path: Path) -> frozenset[tuple[str, str]]:
    """``RULE path`` pairs from a waiver file (missing file = no waivers)."""
    if not path.exists():
        return frozenset()
    waivers: set[tuple[str, str]] = set()
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) == 2:
            waivers.add((parts[0], parts[1].strip()))
    return frozenset(waivers)


def run_selflint(
    root: Path, waivers: frozenset[tuple[str, str]] = frozenset()
) -> list[LintFinding]:
    """Lint every Python module under *root*; waived findings are dropped."""
    root = Path(root)
    findings: list[LintFinding] = []
    for source in sorted(root.rglob("*.py")):
        relative = source.relative_to(root).as_posix()
        try:
            tree = ast.parse(source.read_text(encoding="utf-8"))
        except SyntaxError as exc:  # pragma: no cover - tree is expected valid
            findings.append(
                LintFinding(
                    rule="SL000",
                    path=relative,
                    line=exc.lineno or 0,
                    message=f"unparseable module: {exc.msg}",
                )
            )
            continue
        findings.extend(_lint_module(tree, relative))
    findings = [f for f in findings if (f.rule, f.path) not in waivers]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _lint_module(tree: ast.Module, relative: str) -> list[LintFinding]:
    findings: list[LintFinding] = []
    in_service = relative.startswith("service/")

    # SL004 bookkeeping: module-level ContextVar names and their set/reset use
    contextvars: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if _is_contextvar_call(value):
            for target in targets:
                if isinstance(target, ast.Name):
                    contextvars.add(target.id)
    set_sites: dict[str, int] = {}
    reset_names: set[str] = set()

    for node in ast.walk(tree):
        if in_service and _is_wall_clock(node):
            findings.append(
                LintFinding(
                    rule="SL001",
                    path=relative,
                    line=getattr(node, "lineno", 0),
                    message="wall-clock time.time in service code "
                    "(use time.monotonic)",
                )
            )
        if isinstance(node, ast.Call):
            findings.extend(_lint_call(node, relative))
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                owner = func.value.id
                if owner in contextvars:
                    if func.attr == "set":
                        set_sites.setdefault(owner, node.lineno)
                    elif func.attr == "reset":
                        reset_names.add(owner)

    for owner, line in sorted(set_sites.items()):
        if owner not in reset_names:
            findings.append(
                LintFinding(
                    rule="SL004",
                    path=relative,
                    line=line,
                    message=f"ContextVar {owner!r} is set but never reset "
                    "in this module",
                )
            )
    return findings


def _is_contextvar_call(value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Name):
        return func.id == "ContextVar"
    if isinstance(func, ast.Attribute):
        return func.attr == "ContextVar"
    return False


def _is_wall_clock(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return (
            node.attr == "time"
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
        )
    if isinstance(node, ast.ImportFrom):
        return node.module == "time" and any(
            alias.name == "time" for alias in node.names
        )
    return False


def _literal_first_arg(node: ast.Call) -> str | None:
    if node.args and isinstance(node.args[0], ast.Constant):
        value = node.args[0].value
        if isinstance(value, str):
            return value
    return None


def _lint_call(node: ast.Call, relative: str) -> list[LintFinding]:
    findings: list[LintFinding] = []
    func = node.func

    # SL002: literal fault-site names must be registered
    is_fault_call = False
    if isinstance(func, ast.Name) and func.id in ("maybe_fault", "_maybe_fault"):
        is_fault_call = True
    elif isinstance(func, ast.Attribute) and func.attr in ("maybe_fault", "check"):
        owner = func.value
        owner_name = ""
        if isinstance(owner, ast.Name):
            owner_name = owner.id
        elif isinstance(owner, ast.Attribute):
            owner_name = owner.attr
        if "injector" in owner_name:
            is_fault_call = True
    if is_fault_call:
        site = _literal_first_arg(node)
        if site is not None and site not in SITES:
            findings.append(
                LintFinding(
                    rule="SL002",
                    path=relative,
                    line=node.lineno,
                    message=f"fault site {site!r} is not in "
                    "repro.resilience.faults.SITES",
                )
            )

    return findings
