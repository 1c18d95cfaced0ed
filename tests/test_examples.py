"""The runnable examples stay runnable and warning-free.

Each script under ``examples/`` is the library's front door; run the
protocol ones end to end in a fresh interpreter with deprecations turned
into errors, so a script that calls a removed or deprecated API fails
here rather than in a reader's terminal.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["quickstart.py",
                                    "reauthentication_challenge.py",
                                    "remote_banking.py"])
def test_example_runs_without_deprecations(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning",
         str(ROOT / "examples" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
