"""The package runs on the Python standard library alone.

Importing the command line, the project pipeline, the analysis service and
the TargetLink-style workload generator must load no third-party module: ``repro`` is stdlib-only, so it installs
and runs wherever Python does.  The import runs in a fresh interpreter, so
what this test process has already imported cannot hide a dependency.
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
before = set(sys.modules)
import repro.cli, repro.project, repro.service, repro.workloads.targetlink
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
# multiprocessing registers the main module again as __mp_main__
allowed = set(sys.stdlib_module_names) | {"repro", "__mp_main__"}
print("\\n".join(sorted(loaded - allowed)))
"""


def test_package_imports_only_the_standard_library():
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
