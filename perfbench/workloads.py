"""Workload definitions and metric names shared by the driver and worker.

Imports nothing from the program under test, so the driver can run (and
refuse to run) without it.
"""

from __future__ import annotations

#: Driver seeds map onto this many fleet seeds, each with a recorded
#: summary and trace digest in ``expected.json``.
SEED_TABLE = 16

#: The FleetConfig shape of each fleet workload (all other fields keep
#: their defaults: 4 shards, modeled processors, 512-bit keys).
FLEET_SHAPES = {
    # Onboarding-heavy: touch capture -> render -> quality -> score and
    # the RSA sign/decrypt/keygen ops carry most of the host time.
    "fleet": {"n_devices": 1000, "requests_per_device": 3,
              "challenge_fraction": 0.08, "hijack_fraction": 0.01},
    # Steady-state MAC'd traffic: codec, HMAC, dispatch, frame hashing
    # and the scheduler; touches only at register and login.
    "fleet-session": {"n_devices": 20, "requests_per_device": 1000,
                      "challenge_fraction": 0.0, "hijack_fraction": 0.0},
}

#: Every workload ``run.py`` accepts; BENCHMARK.json lists all but
#: fleet-session (see ``run.py``).
WORKLOADS = ("fleet", "scan", "fleet-session")


def fleet_config(workload: str, seed: int) -> dict:
    """FleetConfig keyword arguments for one driver seed."""
    return dict(FLEET_SHAPES[workload], seed=seed % SEED_TABLE,
                crypto_backend="accelerated")


#: (name, unit, better) of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("events_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _per_layer() -> tuple:
    rows = [
        ("fingerprint.render.calls", "count", "lower"),
        ("fingerprint.render.s", "s", "lower"),
        ("fingerprint.quality.calls", "count", "lower"),
        ("fingerprint.quality.s", "s", "lower"),
        ("flock.touch.calls", "count", "lower"),
        ("flock.touch.self_s", "s", "lower"),
        ("flock.touch.verified_ratio", "ratio", "higher"),
    ]
    for op in ("rsa_sign", "rsa_decrypt", "rsa_encrypt", "rsa_verify",
               "generate_keypair", "hmac_sha256", "sha256", "make_drbg"):
        rows += [(f"crypto.{op}.calls", "count", "lower"),
                 (f"crypto.{op}.self_s", "s", "lower")]
    rows += [
        ("crypto.chacha20_xor.calls", "count", "lower"),
        ("net.codec.payload.calls", "count", "lower"),
        ("net.codec.payload.s", "s", "lower"),
        ("net.dispatch.calls", "count", "lower"),
        ("net.dispatch.self_s", "s", "lower"),
    ]
    for op in ("register", "login", "request", "challenge"):
        rows += [(f"net.client.{op}.calls", "count", "lower"),
                 (f"net.client.{op}.ms_p50", "ms", "lower"),
                 (f"net.client.{op}.ms_p99", "ms", "lower")]
    rows += [
        ("net.client.self_s", "s", "lower"),
        ("net.channel.bytes", "bytes", "lower"),
        ("flock.frame.calls", "count", "lower"),
        ("flock.frame.s", "s", "lower"),
        ("flock.mac.calls", "count", "lower"),
        ("flock.mac.s", "s", "lower"),
        ("runtime.loop.events", "count", "higher"),
        ("runtime.loop.self_s", "s", "lower"),
        ("runtime.metrics.record_s", "s", "lower"),
        ("runtime.factory.init_s", "s", "lower"),
        ("runtime.factory.build_s", "s", "lower"),
        ("runtime.cache.hit_ratio", "ratio", "higher"),
        ("obs.noop.spans", "count", "lower"),
        ("obs.noop.span_ns", "ns", "lower"),
        ("obs.live.run_ratio", "ratio", "lower"),
    ]
    for stage in ("parse", "lint", "taint", "det", "contract", "sc"):
        rows.append((f"analysis.{stage}_s", "s", "lower"))
    rows += [
        ("analysis.sequential_s", "s", "lower"),
        ("analysis.overlap_ratio", "ratio", "higher"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return tuple(rows)


#: (name, unit, better) of every per-layer metric, as in BENCHMARK.json.
#: A traced run prints all of them; a layer its workload does not reach
#: reads 0, and so does a percentile with fewer than ten samples beyond it.
PER_LAYER = _per_layer()
