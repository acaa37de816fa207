"""The model checker and its solver stand below the static analysis.

``repro.sa`` feeds the model checker (its prefilter is handed to the query
engine duck-typed, its state ranges size the model), so ``repro.solver`` and
``repro.mc`` must not import it: the interval domain both use lives in
``repro.minic.intervals``.  The import runs in a fresh interpreter, so what
this test process has already imported cannot hide a layering violation.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PROBE = """
import sys
import repro.solver, repro.mc
print("\\n".join(sorted(name for name in sys.modules if name.split(".")[:2] == ["repro", "sa"])))
"""


def test_solver_and_model_checker_load_no_static_analysis_module():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert completed.stdout.split() == []
