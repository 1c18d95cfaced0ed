"""The repository benchmark: host time of fleet runs and of the lint scan.

    python3 perfbench/run.py --workload fleet --seed 3 --seconds 30 --trace 0

Run from the repository root.  Every repetition runs in a fresh
interpreter (``worker.py``), so each starts with a new crypto backend
(empty CRT memo) and empty module caches.  Repetitions continue until
``--seconds`` have passed (at least one); set-up is repeated until there
are at least three samples.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (``workloads.py``):

``fleet``
    the ROADMAP's 1,000-device fleet; onboarding-heavy.
``scan``
    ``repro-lint --taint --det --contract --sc`` over a frozen copy of
    the repository (``corpus.tar.xz``, provenance in ``corpus.json``),
    so edits to the live tree do not change the workload's input.
``fleet-session``
    20 devices x 1,000 MAC'd requests, no challenges or hijacks.  Not in
    ``BENCHMARK.json``: on a shared 2-core host its ``run_s`` moved by
    20% of the median between runs of identical code, more than any
    bound can hold.  Run it by hand for the steady-state layer
    breakdown (``--trace 1``).

End-to-end metrics (``--trace 0``), each the median of the run's
repetitions: ``setup_s`` (imports plus ``FleetSimulation`` construction,
or imports plus ``AnalysisConfig`` load), ``run_s`` (``run()`` or the
six-stage ``analyze_paths``), ``events_per_s`` (executed events, or
scanned files, per second of ``run_s``) and ``peak_rss_mb`` (largest
resident set among the repetition's processes, scan children included).

Per-layer metrics (``--trace 1``) come from one repetition under the
probes of ``probes.py``, set against one untraced repetition (and, for
the fleets, one with live ``Instrumentation``); ``--seconds`` does not
apply.  The timed repetitions of ``--trace 0`` keep tracing off.

Output check, on every repetition including the traced ones: fleet
summary and trace digests equal those in ``expected.json`` for the seed,
and no unexpected rejection; the scan finds nothing, parses every file
and extracts a contract equal to the corpus's ``contract.json``.  A
repetition that fails the check counts all its interactions (or files)
as failed, and the process exits 1.  Without the program's sources
(``src/repro``) it exits 2 and prints no result.

Deliberately unmeasured: ``repro-lint verify`` (the model checker) and
image-mode fingerprint matching; no open ROADMAP item targets them.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
CORPUS_ARCHIVE = HERE / "corpus.tar.xz"
CORPUS_INFO = HERE / "corpus.json"
EXPECTED = HERE / "expected.json"

#: Set-up samples per run; set-up-only repetitions fill up the count.
MIN_SETUPS = 3
#: No worker may outlive this (s), so a run ends well inside 180 s.
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def corpus_dir() -> Path:
    """The frozen scan corpus, extracted once per archive version."""
    info = json.loads(CORPUS_INFO.read_text("utf-8"))
    target = HERE / "_corpus" / info["archive_sha256"][:16]
    if target.is_dir():
        return target
    digest = hashlib.sha256(CORPUS_ARCHIVE.read_bytes()).hexdigest()
    if digest != info["archive_sha256"]:
        raise BenchError(f"{CORPUS_ARCHIVE.name} does not match "
                         f"{CORPUS_INFO.name}")
    partial = target.with_name(target.name + ".partial")
    if partial.exists():
        shutil.rmtree(partial)
    partial.mkdir(parents=True)
    with tarfile.open(CORPUS_ARCHIVE, "r:xz") as archive:
        archive.extractall(partial, filter="data")
    os.replace(partial, target)
    return target


def run_worker(workload: str, seed: int, mode: str, cwd: Path,
               env: dict, deadline: float) -> dict:
    """One repetition in a fresh interpreter; returns its JSON report."""
    command = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    # Own process group: a timeout also stops the scan's forked children.
    proc = subprocess.Popen(command, cwd=cwd, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} repetition of {workload} timed out")
    if proc.returncode != 0:
        raise BenchError(f"{mode} repetition of {workload} exited "
                         f"{proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def check(workload: str, seed: int, rep: dict, expected: dict,
          corpus: dict) -> list[str]:
    """Every way ``rep`` differs from the workload's known-good output."""
    if workload == "scan":
        wrong = []
        if rep["files"] != corpus["python_files_scanned"]:
            wrong.append(f"scanned {rep['files']} files, expected "
                         f"{corpus['python_files_scanned']}")
        if rep["findings"] or rep["parse_errors"]:
            wrong.append(f"{rep['findings']} findings, "
                         f"{rep['parse_errors']} parse errors")
        if not rep["contract_matches"]:
            wrong.append("contract payload differs from contract.json")
        return wrong
    want = expected.get(workload, {}).get(str(seed % workloads.SEED_TABLE))
    if want is None:
        return [f"no recorded digest for {workload} seed {seed}"]
    wrong = [f"{key} {rep[key]!r} != recorded {want[key]!r}"
             for key in ("summary_sha256", "trace_sha256", "events",
                         "interactions") if rep[key] != want[key]]
    if rep["unexpected_rejections"]:
        wrong.append(f"unexpected rejections "
                     f"{rep['unexpected_rejections']}")
    return wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a repository checkout; src/repro is "
              "missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        return measure(args, root, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def measure(args, root: Path, deadline: float) -> int:
    workload, seed = args.workload, args.seed
    # Warm the bytecode cache once, so every repetition imports alike.
    compileall.compile_dir(root / "src", quiet=1)
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    corpus = json.loads(CORPUS_INFO.read_text("utf-8"))
    expected = json.loads(EXPECTED.read_text("utf-8"))
    cwd = corpus_dir() if workload == "scan" else root
    unit = "files" if workload == "scan" else "interactions"
    attempted = failed = 0

    def rep(mode: str) -> dict:
        nonlocal attempted, failed
        out = run_worker(workload, seed, mode, cwd, env, deadline)
        if mode == "setup":
            return out
        attempted += out[unit]
        wrong = check(workload, seed, out, expected, corpus)
        if wrong:
            failed += out[unit]
            print(f"perfbench: {mode} repetition wrong: "
                  f"{'; '.join(wrong)}", file=sys.stderr)
        return out

    started = time.monotonic()
    plain = [rep("plain")]
    while not args.trace and time.monotonic() - started < args.seconds:
        plain.append(rep("plain"))
    run_s = statistics.median(r["run_s"] for r in plain)

    if args.trace:
        traced = rep("traced")
        layers = {name: 0 for name, _, _ in workloads.PER_LAYER}
        layers.update(traced["layers"])
        layers["trace.overhead_ratio"] = traced["run_s"] / run_s
        if workload == "scan":
            layers["analysis.overlap_ratio"] = \
                layers["analysis.sequential_s"] / run_s
        else:
            layers["obs.live.run_ratio"] = rep("live")["run_s"] / run_s
        rows = workloads.PER_LAYER
        values = layers
    else:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < MIN_SETUPS:
            setups.append(rep("setup")["setup_s"])
        events = "files" if workload == "scan" else "events"
        values = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "events_per_s": statistics.median(
                r[events] / r["run_s"] for r in plain),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in plain),
        }
        rows = workloads.END_TO_END

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit_name}
                    for name, unit_name, _ in rows},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
