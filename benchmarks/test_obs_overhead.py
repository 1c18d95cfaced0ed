"""Observability overhead guard and trace-export smoke.

Two invariants protect the substrate added for cross-layer tracing:

- the *no-op path is cheap in host time*: a default fleet run with
  instrumentation left at its NOOP default reproduces the checked-in
  ``fleet_load.txt`` summary bytes, and the NOOP spans it opens, times
  the measured cost of one null span, stay within 1% of the run's wall
  time.  A null span made to sleep 50 us must break that bound, so the
  guard can fail.  Attaching a live bundle changes nothing the fleet
  reports;
- the *export format is pinned*: the trace CLI's JSON output for the
  default fleet scenario must match the golden
  ``results/trace_smoke.json`` byte for byte, so exporter or span-name
  drift shows up as a reviewable diff instead of silently re-shaping
  downstream tooling.
"""

import json
import statistics
import time

import pytest

from repro.cli import main
from repro.obs import NOOP, Instrumentation
from repro.obs.trace import NullTracer
from repro.runtime import FleetConfig, FleetSimulation

from .conftest import RESULTS_DIR, emit

BASELINE = RESULTS_DIR / "fleet_load.txt"
GOLDEN_TRACE = RESULTS_DIR / "trace_smoke.json"
#: Largest share of a run's wall time the NOOP spans may cost.
NOOP_BOUND = 0.01


def _null_span_ns(rounds: int = 5, spans: int = 20_000) -> float:
    """Median host cost of opening and closing one NOOP span (ns)."""
    costs = []
    for _ in range(rounds):
        span = NOOP.tracer.span
        begin = time.perf_counter_ns()
        for _ in range(spans):
            with span("bench.null", attribute=1):
                pass
        costs.append((time.perf_counter_ns() - begin) / spans)
    return statistics.median(costs)


def _noop_share(spans: int, span_ns: float, wall_s: float) -> float:
    """The share of ``wall_s`` that ``spans`` null spans cost."""
    return spans * span_ns / 1e9 / wall_s


@pytest.fixture(scope="module")
def noop_fleet():
    """One default fleet run: (result, NOOP spans opened, wall seconds)."""
    opened = 0
    span = NullTracer.span

    def counting(self, name, **attributes):
        nonlocal opened
        opened += 1
        return span(self, name, **attributes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NullTracer, "span", counting)
        begin = time.perf_counter()
        result = FleetSimulation(FleetConfig()).run()  # obs defaults to NOOP
        wall_s = time.perf_counter() - begin
    return result, opened, wall_s


class TestNoopOverheadGuard:
    def test_noop_fleet_matches_checked_in_baseline(self, noop_fleet):
        result, spans, wall_s = noop_fleet
        span_ns = _null_span_ns()
        share = _noop_share(spans, span_ns, wall_s)
        emit("obs_overhead", "\n".join([
            "observability no-op overhead guard",
            "",
            f"noop spans per run  | {spans}",
            f"null-span cost      | {span_ns:.0f} ns (median of 5 x 20000)",
            f"noop cost per run   | {spans * span_ns / 1e6:.2f} ms",
            f"fleet wall time     | {wall_s:.2f} s",
            f"noop share of wall  | {share * 100:.3f}% "
            f"(bound {NOOP_BOUND * 100:.0f}%)",
            "summary bytes       | identical to fleet_load.txt",
        ]))
        assert result.summary in BASELINE.read_text()
        assert spans > 0
        assert share <= NOOP_BOUND

    def test_sleeping_null_span_breaks_the_bound(self, noop_fleet,
                                                 monkeypatch):
        _, spans, wall_s = noop_fleet
        span = NullTracer.span

        def sleeping(self, name, **attributes):
            time.sleep(50e-6)
            return span(self, name, **attributes)

        monkeypatch.setattr(NullTracer, "span", sleeping)
        span_ns = _null_span_ns(rounds=3, spans=200)
        assert span_ns >= 50_000
        assert _noop_share(spans, span_ns, wall_s) > NOOP_BOUND

    def test_live_instrumentation_changes_no_reported_byte(self):
        config = FleetConfig(n_devices=48, n_shards=4, seed=7,
                             requests_per_device=2)
        plain = FleetSimulation(config).run()
        traced = FleetSimulation(config, obs=Instrumentation.live()).run()
        assert plain.summary == traced.summary
        assert plain.trace == traced.trace


class TestTraceExportSmoke:
    def test_cli_fleet_trace_matches_golden(self, capsys):
        code = main(["trace", "--scenario", "fleet", "--format", "json"])
        assert code == 0
        out = capsys.readouterr().out
        json.loads(out)  # well-formed before anything else
        assert out == GOLDEN_TRACE.read_text(), \
            "trace export drifted from benchmarks/results/trace_smoke.json"
