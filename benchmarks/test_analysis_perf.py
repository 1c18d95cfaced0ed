"""TRUST-lint throughput — a full-tree pass must stay interactive.

The analysis pass is a tier-1 gate (tests/analysis/test_self_clean.py),
so it runs on every merge; this smoke check keeps it from quietly
degrading into something nobody wants to run.  Budgets: 10 s for the
per-module scan over ``src/``, 5 s for the interprocedural taint pass
on top of it, and 8 s total for the combined lint + taint + det +
contract + sc run (the exact command the CI analysis job executes).  The
six-stage run forks one child for det and sc on a multi-core host; the
single-process row reruns it with ``os.cpu_count`` reporting 1 and
asserts the two agree finding-for-finding.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis import analyze_paths, engine
from repro.analysis.config import AnalysisConfig

from .conftest import emit

REPO_ROOT = Path(__file__).resolve().parents[1]
BUDGET_SECONDS = 10.0
TAINT_BUDGET_SECONDS = 5.0
COMBINED_BUDGET_SECONDS = 8.0

#: The repo's own policy (pyproject [tool.trust-lint]) — what the CI
#: job actually runs with; the sc declassification model lives there.
CONFIG = AnalysisConfig.from_pyproject(REPO_ROOT / "pyproject.toml")


def _timed(**kwargs):
    start = time.perf_counter()
    report = analyze_paths([REPO_ROOT / "src"], CONFIG, **kwargs)
    return report, time.perf_counter() - start


def test_full_tree_pass_under_budget(monkeypatch):
    report, elapsed = _timed()
    report_taint, elapsed_taint = _timed(taint=True)
    report_det, elapsed_det = _timed(det=True)
    report_ct, elapsed_ct = _timed(contract=True)
    report_sc, elapsed_sc = _timed(sc=True)
    report_all, elapsed_all = _timed(taint=True, det=True, contract=True,
                                     sc=True)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 1)
    report_single, elapsed_single = _timed(taint=True, det=True,
                                           contract=True, sc=True)

    per_file = elapsed / max(report.files_scanned, 1)
    emit(
        "analysis_perf",
        "TRUST-lint full-tree pass\n"
        f"  files scanned      : {report.files_scanned}\n"
        f"  findings           : {len(report.findings)}\n"
        f"  scan               : {elapsed * 1000:.1f} ms"
        f"  ({per_file * 1000:.2f} ms/file)\n"
        f"  scan + taint pass  : {elapsed_taint * 1000:.1f} ms"
        f"  ({len(report_taint.findings)} finding(s), "
        f"{len(report_taint.findings) - len(report.findings)} from taint)\n"
        f"  scan + det pass    : {elapsed_det * 1000:.1f} ms"
        f"  ({len(report_det.findings)} finding(s), "
        f"{len(report_det.findings) - len(report.findings)} from det)\n"
        f"  scan + contract    : {elapsed_ct * 1000:.1f} ms"
        f"  ({len(report_ct.findings)} finding(s), "
        f"{len(report_ct.findings) - len(report.findings)} from contract)\n"
        f"  scan + sc pass     : {elapsed_sc * 1000:.1f} ms"
        f"  ({len(report_sc.findings)} finding(s), "
        f"{len(report_sc.findings) - len(report.findings)} from sc)\n"
        f"  six-stage run      : {elapsed_all * 1000:.1f} ms"
        f"  ({len(report_all.findings)} finding(s), det + sc in the "
        f"{report_all.stage_stats['det']['process']})\n"
        f"  six-stage, 1 proc  : {elapsed_single * 1000:.1f} ms"
        f"  (forked speedup x{elapsed_single / max(elapsed_all, 1e-9):.2f})\n"
        f"  budgets            : scan {BUDGET_SECONDS:.0f} s, "
        f"with taint +{TAINT_BUDGET_SECONDS:.0f} s, "
        f"combined {COMBINED_BUDGET_SECONDS:.0f} s",
    )

    assert report.parse_errors == []
    assert "det" in report_det.stage_stats
    assert "contract" in report_ct.stage_stats
    assert "sc" in report_sc.stage_stats
    assert list(report_all.stage_stats) == list(report_single.stage_stats) \
        == ["parse", "lint", "taint", "det", "contract", "sc"]
    # The contract pass records the canonical payload and per-stage
    # clocks on the report (the ``--stats`` surface).
    assert report_all.contract_payload is not None
    assert report_all.contract_payload["endpoints"]
    for entry in report_all.stage_stats.values():
        assert entry["elapsed_s"] >= 0.0
    assert elapsed < BUDGET_SECONDS, (
        f"analysis pass took {elapsed:.1f}s (> {BUDGET_SECONDS}s budget)")
    assert elapsed_taint < BUDGET_SECONDS + TAINT_BUDGET_SECONDS, (
        f"taint pass took {elapsed_taint:.1f}s "
        f"(> {BUDGET_SECONDS + TAINT_BUDGET_SECONDS}s budget)")
    assert elapsed_all < COMBINED_BUDGET_SECONDS, (
        f"six-stage lint+taint+det+contract+sc pass took {elapsed_all:.1f}s "
        f"(> {COMBINED_BUDGET_SECONDS}s budget)")
    # Forked and single-process runs must agree exactly (determinism).
    assert ([f.fingerprint() for f in report_all.findings]
            == [f.fingerprint() for f in report_single.findings])


VERIFY_DEPTH = 10
VERIFY_BUDGET_SECONDS = 30.0


def test_verify_pass_under_budget():
    """The protocol model checker: exhaustive, clean, and interactive.

    Depth 10 keeps the benchmark well inside CI time while still
    exercising every scenario's full transition repertoire; the CI
    gate itself pins depth 12 (~20 s).
    """
    from repro.analysis.verify import run_verify

    start = time.perf_counter()
    findings, stats = run_verify(depth=VERIFY_DEPTH)
    elapsed = time.perf_counter() - start

    per_scenario = "\n".join(
        f"    {sc['name']:10s} {sc['states']:6d} states "
        f"(peak frontier {sc['max_frontier']})"
        for sc in stats["scenarios"])
    emit(
        "verify_perf",
        "TRUST-verify model-checking pass\n"
        f"  depth budget       : {stats['depth']}\n"
        f"  states explored    : {stats['states']}\n"
        f"  transitions        : {stats['transitions']}\n"
        f"  throughput         : {stats['states_per_s']} states/s\n"
        f"  peak frontier      : {stats['max_frontier']}\n"
        f"  wall time          : {elapsed:.2f} s "
        f"(budget {VERIFY_BUDGET_SECONDS:.0f} s)\n"
        + per_scenario,
    )

    assert findings == [], [f.message for f in findings]
    assert stats["exhausted"] is True
    assert stats["states_per_s"] > 0
    assert stats["max_frontier"] > 0
    assert elapsed < VERIFY_BUDGET_SECONDS, (
        f"verify pass took {elapsed:.1f}s "
        f"(> {VERIFY_BUDGET_SECONDS}s budget)")
