"""Record the known-good fleet outputs the benchmark checks against.

    python3 perfbench/record.py

Runs every fleet workload once per seed of the seed table, in fresh
interpreters from the repository root, and writes ``expected.json``:
summary and trace digests, events and interactions per seed.  Re-record
only when a change is meant to alter the fleet transcript.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
KEYS = ("summary_sha256", "trace_sha256", "events", "interactions")


def record_one(workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--mode", "plain"],
        env=env, check=True, capture_output=True, text=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["unexpected_rejections"]:
        raise RuntimeError(f"{workload} seed {seed}: unexpected "
                           f"rejections {out['unexpected_rejections']}")
    return {key: out[key] for key in KEYS}


def main() -> int:
    jobs = [(workload, seed) for workload in workloads.FLEET_SHAPES
            for seed in range(workloads.SEED_TABLE)]
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        results = list(pool.map(lambda job: record_one(*job), jobs))
    expected: dict = {workload: {} for workload in workloads.FLEET_SHAPES}
    for (workload, seed), result in zip(jobs, results):
        expected[workload][str(seed)] = result
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
