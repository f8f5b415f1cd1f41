"""The benchmark's own test suite, perfbench/test_perfbench.py, passes.

Those tests hold the tracer's contract with the library: the sweep points
run inside a ``rates.sweep`` span, each optimal-truncation scan inside the
``bounds.sandwich`` span of its point, and no layer that sweep_lab lists
stays silent.  They run as ``python -m pytest perfbench -q`` from the root
of the repository, in a child process, so that a change to the library that
breaks the contract fails here first.  Nothing under perfbench/ is written.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_suite_passes():
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-4000:]
