"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/test_selftest.py -q

Run from the repository root.  They use small fleets in-process, so
they take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import worker
import workloads

HERE = Path(__file__).resolve().parent
SMALL_FLEET = dict(workloads.fleet_config("fleet", 5), n_devices=12,
                   requests_per_device=2)


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == ["fleet", "scan"]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(workloads.PER_LAYER)


def test_identical_seeded_runs_give_identical_digests():
    first = worker.fleet_rep(SMALL_FLEET, "plain", time.perf_counter())
    second = worker.fleet_rep(SMALL_FLEET, "plain", time.perf_counter())
    traced = worker.fleet_rep(SMALL_FLEET, "traced", time.perf_counter())
    keys = ("summary_sha256", "trace_sha256", "events", "interactions")
    assert [first[k] for k in keys] == [second[k] for k in keys]
    # The probes and the observing backend change no output.
    assert [first[k] for k in keys] == [traced[k] for k in keys]
    other = worker.fleet_rep(dict(SMALL_FLEET, seed=6), "plain",
                             time.perf_counter())
    assert other["trace_sha256"] != first["trace_sha256"]


def test_check_rejects_a_changed_transcript():
    expected = json.loads(run.EXPECTED.read_text("utf-8"))
    corpus = json.loads(run.CORPUS_INFO.read_text("utf-8"))
    good = dict(expected["fleet"]["3"], unexpected_rejections={})
    assert run.check("fleet", 19, good, expected, corpus) == []
    assert run.check("fleet", 19, dict(good, trace_sha256="0" * 64),
                     expected, corpus)
    assert run.check("fleet", 19, dict(good, unexpected_rejections={
        "bad-mac": 1}), expected, corpus)
    scan = {"files": corpus["python_files_scanned"], "findings": 0,
            "parse_errors": 0, "contract_matches": True}
    assert run.check("scan", 0, scan, expected, corpus) == []
    assert run.check("scan", 0, dict(scan, findings=1), expected, corpus)
    assert run.check("scan", 0, dict(scan, contract_matches=False),
                     expected, corpus)


def test_injected_sleep_shows_in_its_own_layer_only(monkeypatch):
    from repro.flock import fingerprint_processor

    # The first run in a process fills lazy caches; compare warm runs.
    worker.fleet_rep(SMALL_FLEET, "traced", time.perf_counter())
    baseline = worker.fleet_rep(SMALL_FLEET, "traced", time.perf_counter())
    original = fingerprint_processor.assess_quality
    delay_s = 0.02

    def slow_quality(*args, **kwargs):
        time.sleep(delay_s)
        return original(*args, **kwargs)

    monkeypatch.setattr(fingerprint_processor, "assess_quality",
                        slow_quality)
    slowed = worker.fleet_rep(SMALL_FLEET, "traced", time.perf_counter())
    before, after = baseline["layers"], slowed["layers"]
    calls = after["fingerprint.quality.calls"]
    assert calls == before["fingerprint.quality.calls"] > 0
    injected = calls * delay_s
    grown = after["fingerprint.quality.s"] - before["fingerprint.quality.s"]
    assert 0.95 * injected <= grown < 1.5 * injected
    for neighbour in ("flock.touch.self_s", "fingerprint.render.s",
                      "net.client.self_s", "runtime.loop.self_s",
                      "trace.unattributed_s"):
        assert abs(after[neighbour] - before[neighbour]) < 0.2 * injected, \
            neighbour


def test_scan_stage_times_add_up_to_the_traced_total(monkeypatch):
    monkeypatch.chdir(run.corpus_dir())
    out = worker.scan_rep("traced", time.perf_counter())
    layers = out["layers"]
    stages = [layers[f"analysis.{stage}_s"] for stage in
              ("parse", "lint", "taint", "det", "contract", "sc")]
    assert all(seconds > 0 for seconds in stages)
    assert sum(stages) == pytest.approx(layers["analysis.sequential_s"])
    unattributed = layers["trace.unattributed_s"]
    assert 0 <= unattributed < 0.05 * out["run_s"]
    assert sum(stages) + unattributed == pytest.approx(out["run_s"])
    assert (out["findings"], out["parse_errors"], out["contract_matches"]) \
        == (0, 0, True)


def test_percentiles_need_ten_samples_beyond():
    assert worker.percentile_ms(list(range(999)), 0.99) == 0.0
    assert worker.percentile_ms([10**6] * 1000, 0.99) == 1.0
    assert worker.percentile_ms([10**6] * 19, 0.50) == 0.0
    assert worker.percentile_ms([10**6] * 20, 0.50) == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_corpus", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
