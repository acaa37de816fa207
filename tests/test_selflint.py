"""Codebase self-lint: the repo's own invariants, enforced in tier 1.

``repro.sa.selflint`` walks the Python AST of ``src/repro`` and checks
the cross-cutting rules that earlier PRs established by convention:
monotonic clocks in the service, registered fault sites, ContextVar
reset discipline.  The synthetic-module
tests keep the rules honest -- each one must actually fire.
"""

from __future__ import annotations

from pathlib import Path

from repro.sa.selflint import (
    RULES,
    LintFinding,
    load_waivers,
    run_selflint,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
WAIVERS = Path(__file__).resolve().parent / "selflint_waivers.txt"


class TestRepoIsClean:
    def test_source_tree_passes_selflint(self):
        findings = run_selflint(REPO_SRC, waivers=load_waivers(WAIVERS))
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"self-lint findings:\n{rendered}"

    def test_waiver_file_parses(self):
        # every waiver line must name a known rule (guards against typos
        # silently waiving nothing)
        for rule, _path in load_waivers(WAIVERS):
            assert rule in RULES, f"unknown rule in waiver file: {rule}"


def lint_snippet(tmp_path: Path, relative: str, source: str) -> list[LintFinding]:
    target = tmp_path / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return run_selflint(tmp_path)


class TestRulesFire:
    def test_sl001_wall_clock_in_service(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "service/clock.py", "import time\nnow = time.time()\n"
        )
        assert any(f.rule == "SL001" for f in findings)

    def test_sl001_ignores_non_service_code(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "perf/clock.py", "import time\nnow = time.time()\n"
        )
        assert not any(f.rule == "SL001" for f in findings)

    def test_sl002_unregistered_fault_site(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "resilience/use.py",
            "maybe_fault('no.such.site')\n",
        )
        assert any(f.rule == "SL002" for f in findings)

    def test_sl004_set_without_reset(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "x.py",
            "from contextvars import ContextVar\n"
            "var = ContextVar('var')\n"
            "def use():\n    var.set(1)\n",
        )
        assert any(f.rule == "SL004" for f in findings)

    def test_sl004_set_with_reset_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "x.py",
            "from contextvars import ContextVar\n"
            "var = ContextVar('var')\n"
            "def use():\n    token = var.set(1)\n    var.reset(token)\n",
        )
        assert not any(f.rule == "SL004" for f in findings)

    def test_waivers_drop_findings(self, tmp_path):
        target = tmp_path / "service" / "clock.py"
        target.parent.mkdir(parents=True)
        target.write_text("import time\nnow = time.time()\n", encoding="utf-8")
        waived = run_selflint(
            tmp_path, waivers=frozenset({("SL001", "service/clock.py")})
        )
        assert not any(f.rule == "SL001" for f in waived)

