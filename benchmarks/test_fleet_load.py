"""Fleet load benchmark: 1,000 devices over 4 shards, per crypto backend.

The acceptance experiment for the multi-tenant runtime and the crypto
backend registry: the default :class:`~repro.runtime.fleet.FleetConfig`
fleet runs end to end through ``WebServer.dispatch`` once per registered
crypto backend, and every run must reproduce the same report byte for
byte — metrics summary *and* event trace — whether the primitives come
from the from-scratch reference backend or the accelerated hot-path
backend.  The regenerated report (throughput, p50/p99 latency, cache hit
rate, shard balance, plus host wall-clock per backend) lands in
``benchmarks/results/fleet_load.txt``.
"""

import time

from repro.runtime import EXPECTED_REJECTIONS, FleetConfig, FleetSimulation

from .conftest import emit


def _timed_run(config: FleetConfig):
    started = time.perf_counter()
    result = FleetSimulation(config).run()
    return result, time.perf_counter() - started


class TestFleetLoad:
    def test_thousand_device_fleet_replays_identically_across_backends(self):
        # 1000 devices, 4 shards, seed 7 — once per backend.  The default
        # config resolves to the accelerated backend, so these two runs
        # cover it; the reference run is the baseline for the speedup row.
        reference, reference_wall = _timed_run(
            FleetConfig(crypto_backend="reference"))
        accelerated, accelerated_wall = _timed_run(
            FleetConfig(crypto_backend="accelerated"))

        # Determinism and backend equivalence: byte-identical summaries
        # and identical event traces across both runs.
        assert reference.summary.encode("utf-8") == \
            accelerated.summary.encode("utf-8")
        assert reference.trace == accelerated.trace

        # The scenario is healthy: traffic flowed and only the workload's
        # expected rejection codes (risk-induced terminations) appeared.
        assert accelerated.metrics.throughput_rps > 0
        assert accelerated.unexpected_rejections == {}
        assert set(accelerated.pool.rejection_totals()) <= \
            EXPECTED_REJECTIONS
        assert accelerated.metrics.count("register", "ok") >= \
            0.99 * FleetConfig().n_devices
        assert accelerated.cache.hit_rate("cert-signature") > 0.9

        # The accelerated backend must be dramatically faster on the same
        # byte-identical workload.  The asserted floor is deliberately
        # below the ~10x measured on an idle host so shared-runner noise
        # cannot flake the gate; fleet_load.txt records the real ratio.
        events = len(accelerated.trace)
        speedup = reference_wall / accelerated_wall
        assert speedup >= 4.0, (
            f"accelerated backend only {speedup:.1f}x faster "
            f"({reference_wall:.1f}s vs {accelerated_wall:.1f}s)")

        emit("fleet_load", "\n".join([
            accelerated.summary,
            "",
            f"replay check: all backend runs byte-identical "
            f"({events} events)",
            "",
            "host wall-clock by crypto backend:",
            f"  reference    {reference_wall:6.1f} s  "
            f"{events / reference_wall:7.1f} events/s",
            f"  accelerated  {accelerated_wall:6.1f} s  "
            f"{events / accelerated_wall:7.1f} events/s  "
            f"({speedup:.1f}x speedup)",
        ]))

    def test_thousand_device_fleet_is_hash_seed_invariant(self):
        """The full-scale dynamic determinism witness: same-process
        replays share one hash seed, so run the default fleet in two
        subprocesses under different PYTHONHASHSEED values and require
        byte-identical summary + trace export (what DT604 guards)."""
        from tests.runtime.test_fleet_replay import run_fleet_under_hash_seed

        first = run_fleet_under_hash_seed(0, devices=1000, timeout=600)
        second = run_fleet_under_hash_seed(1, devices=1000, timeout=600)
        assert first == second
        assert b"--- trace ---" in first
