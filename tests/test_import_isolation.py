"""Start-up isolation: each entry point loads only what it runs.

The analysis CLI is stdlib-only by design (CI runs it with no install
step), so it must work with numpy and scipy unimportable.  The fleet
runtime must not drag in the adversary library, the experiment harness or
the scipy modules the Gabor filter no longer needs.  Both checks run in a
fresh interpreter, since this test process has long imported everything.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Runs ``python -m repro.analysis <argv>`` with numpy and scipy blocked:
#: a ``None`` entry in ``sys.modules`` makes their import raise.
_BLOCKED_ANALYSIS = """
import runpy, sys
sys.modules["numpy"] = sys.modules["scipy"] = None
sys.argv = ["repro.analysis", *sys.argv[1:]]
runpy.run_module("repro.analysis", run_name="__main__", alter_sys=True)
"""


def _run(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("args", [
    ["--taint", "--det", "--contract", "--sc", "src/repro/net"],
    ["verify", "--depth", "4"],
])
def test_analysis_cli_runs_without_numpy_or_scipy(args):
    completed = _run("-c", _BLOCKED_ANALYSIS, *args)
    assert completed.returncode == 0, completed.stdout + completed.stderr


def test_runtime_import_leaves_heavy_modules_unloaded():
    completed = _run("-c", (
        "import sys, repro.runtime\n"
        "print(' '.join(m for m in ('scipy.signal', 'scipy.stats',"
        " 'repro.attacks', 'repro.eval') if m in sys.modules))\n"))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == ""
