"""One repetition of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload fleet --seed 3 \\
        --mode plain

Modes:

``setup``
    imports plus construction (``FleetSimulation``, or the scan's
    ``AnalysisConfig`` load), then stop.
``plain``
    the timed run with tracing off: ``FleetSimulation.run()`` or the
    six-stage ``analyze_paths``.
``traced``
    the same run under the layer probes, with crypto through an
    :class:`~probes.ObservingBackend`; the scan instead runs its stages
    one after another on one shared parse and index.
``live``
    a fleet run with live ``Instrumentation`` (spans and metrics on).

The scan runs with the frozen corpus as its working directory.  Prints
one JSON object: the timings plus the outputs the driver checks.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import time
from pathlib import Path

import workloads


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ------------------------------------------------------------------ fleet
def fleet_outputs(result) -> dict:
    """What a fleet run produced, reduced to the facts the driver checks."""
    trace = hashlib.sha256()
    for at, label in result.trace:
        trace.update(f"{at!r} {label}\n".encode())
    return {
        "summary_sha256": hashlib.sha256(
            result.summary.encode("utf-8")).hexdigest(),
        "trace_sha256": trace.hexdigest(),
        "events": len(result.trace),
        "interactions": result.metrics.interactions,
        "unexpected_rejections": result.unexpected_rejections,
    }


def fleet_rep(config_kwargs: dict, mode: str, started: float) -> dict:
    """One fleet repetition; ``started`` is when its setup clock began."""
    from repro.runtime import FleetConfig, FleetSimulation

    if mode == "traced":
        return traced_fleet_rep(config_kwargs)
    obs = None
    if mode == "live":
        from repro.obs import Instrumentation
        obs = Instrumentation.live()
    sim = FleetSimulation(FleetConfig(**config_kwargs), obs=obs)
    out = {"setup_s": time.perf_counter() - started}
    if mode == "setup":
        return out
    begin = time.perf_counter()
    result = sim.run()
    out["run_s"] = time.perf_counter() - begin
    out["peak_rss_mb"] = peak_rss_mb()
    out.update(fleet_outputs(result))
    return out


def null_span_ns(rounds: int = 5, spans: int = 100_000) -> float:
    """Median host cost of opening and closing one NOOP span (ns)."""
    from repro.obs import NOOP

    span = NOOP.tracer.span
    costs = []
    for _ in range(rounds):
        begin = time.perf_counter_ns()
        for _ in range(spans):
            with span("bench.null", attribute=1):
                pass
        costs.append((time.perf_counter_ns() - begin) / spans)
    return statistics.median(costs)


def percentile_ms(samples_ns: list[int], q: float) -> float:
    """Nearest-rank percentile in ms; 0 unless ten samples lie beyond it."""
    rank = math.ceil(q * len(samples_ns))
    if len(samples_ns) - rank < 10:
        return 0.0
    return sorted(samples_ns)[rank - 1] / 1e6


def traced_fleet_rep(config_kwargs: dict) -> dict:
    """A fleet run under the layer probes and the observing backend."""
    from probes import LayerProfiler, LayerStat, ObservingBackend, Probes, \
        install_layer_probes
    from repro.crypto import (AcceleratedBackend, available_backends,
                              register_backend, set_default_backend)
    from repro.runtime import FleetConfig, FleetSimulation

    profiler = LayerProfiler()
    backend = ObservingBackend(AcceleratedBackend(), profiler)
    # Unique per process, so in-process callers can trace repeatedly.
    name = f"observed-{len(available_backends())}"
    register_backend(name, lambda: backend)
    previous = set_default_backend(name)
    try:
        with Probes(profiler) as probes:
            install_layer_probes(probes)
            sim = FleetSimulation(FleetConfig(
                **dict(config_kwargs, crypto_backend=name)))
            setup = profiler.take()
            begin = time.perf_counter_ns()
            result = sim.run()
            run_ns = time.perf_counter_ns() - begin
            run = profiler.take()
    finally:
        set_default_backend(previous)

    def stat(name: str, stats: dict = run) -> LayerStat:
        return stats.get(name) or LayerStat()

    layers = {}
    for name, field in (("fingerprint.render", "s"),
                        ("fingerprint.quality", "s"),
                        ("flock.touch", "self_s"),
                        ("net.codec.payload", "s"),
                        ("net.dispatch", "self_s"),
                        ("flock.frame", "s"),
                        ("flock.mac", "s")):
        layers[f"{name}.calls"] = stat(name).calls
        ns = stat(name).self_ns if field == "self_s" else stat(name).total_ns
        layers[f"{name}.{field}"] = ns / 1e9
    touch = stat("flock.touch")
    layers["flock.touch.verified_ratio"] = \
        touch.positive / touch.calls if touch.calls else 0.0
    for op in ("rsa_sign", "rsa_decrypt", "rsa_encrypt", "rsa_verify",
               "generate_keypair", "hmac_sha256", "sha256", "make_drbg"):
        layers[f"crypto.{op}.calls"] = stat(f"crypto.{op}").calls
        layers[f"crypto.{op}.self_s"] = stat(f"crypto.{op}").self_ns / 1e9
    layers["crypto.chacha20_xor.calls"] = stat("crypto.chacha20_xor").calls
    client_self_ns = 0
    for op in ("register", "login", "request", "challenge"):
        client = stat(f"net.client.{op}")
        client_self_ns += client.self_ns
        samples = client.samples or []
        layers[f"net.client.{op}.calls"] = client.calls
        layers[f"net.client.{op}.ms_p50"] = percentile_ms(samples, 0.50)
        layers[f"net.client.{op}.ms_p99"] = percentile_ms(samples, 0.99)
    layers["net.client.self_s"] = client_self_ns / 1e9
    metrics = result.metrics
    layers["net.channel.bytes"] = \
        metrics.bytes_to_server + metrics.bytes_to_device
    layers["runtime.loop.events"] = len(result.trace)
    layers["runtime.loop.self_s"] = stat("runtime.loop").self_ns / 1e9
    layers["runtime.metrics.record_s"] = \
        stat("runtime.metrics.record").total_ns / 1e9
    layers["runtime.factory.init_s"] = \
        stat("runtime.factory.init", setup).total_ns / 1e9
    layers["runtime.factory.build_s"] = \
        stat("runtime.factory.build", setup).total_ns / 1e9
    lookups = result.cache.lookups()
    layers["runtime.cache.hit_ratio"] = \
        sum(result.cache.hits.values()) / lookups if lookups else 0.0
    layers["obs.noop.spans"] = stat("obs.noop.span").calls
    layers["obs.noop.span_ns"] = null_span_ns()
    covered_ns = sum(s.self_ns for s in run.values())
    layers["trace.unattributed_s"] = (run_ns - covered_ns) / 1e9

    out = {"run_s": run_ns / 1e9, "layers": layers}
    out.update(fleet_outputs(result))
    return out


# ------------------------------------------------------------------- scan
def scan_rep(mode: str, started: float) -> dict:
    """One scan repetition over the corpus in the working directory."""
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.contract import run_contract
    from repro.analysis.core import ProjectRule, all_rules
    from repro.analysis.determinism import run_det
    from repro.analysis.engine import (analyze_paths, build_contexts,
                                       iter_python_files)
    from repro.analysis.sidechannel import run_sc
    from repro.analysis.taint import TaintAnalysis

    config = AnalysisConfig.from_pyproject(Path("pyproject.toml"))
    out = {"setup_s": time.perf_counter() - started}
    if mode == "setup":
        return out
    golden = json.loads(Path(config.contract_golden).read_text("utf-8"))
    paths = list(config.default_paths)

    if mode == "plain":
        begin = time.perf_counter()
        report = analyze_paths(paths, config, taint=True, det=True,
                               contract=True, sc=True)
        out["run_s"] = time.perf_counter() - begin
        out["peak_rss_mb"] = peak_rss_mb()
        out.update(files=report.files_scanned,
                   findings=len(report.findings),
                   parse_errors=len(report.parse_errors),
                   contract_matches=report.contract_payload == golden)
        return out
    if mode != "traced":
        raise ValueError(f"the scan has no {mode!r} mode")

    # Each stage alone, in order, on one shared parse and one index.
    stage_s = {}
    findings = []
    begin = time.perf_counter()

    clock = time.perf_counter()
    contexts, errors = build_contexts(iter_python_files(
        [Path(p) for p in paths]))
    stage_s["parse"] = time.perf_counter() - clock

    clock = time.perf_counter()
    rules = [rule for rule in all_rules()
             if not isinstance(rule, ProjectRule)
             and config.rule_enabled(rule.id)]
    for ctx in contexts:
        for rule in rules:
            findings.extend(finding for finding in rule.check(ctx, config)
                            if not ctx.is_suppressed(finding.rule,
                                                     finding.line))
    stage_s["lint"] = time.perf_counter() - clock

    clock = time.perf_counter()
    analysis = TaintAnalysis(contexts, config)
    findings.extend(analysis.run())
    stage_s["taint"] = time.perf_counter() - clock

    clock = time.perf_counter()
    findings.extend(run_det(contexts, config, index=analysis.index))
    stage_s["det"] = time.perf_counter() - clock

    clock = time.perf_counter()
    contract_findings, payload = run_contract(contexts, config,
                                              index=analysis.index)
    findings.extend(contract_findings)
    stage_s["contract"] = time.perf_counter() - clock

    clock = time.perf_counter()
    findings.extend(run_sc(contexts, config, index=analysis.index))
    stage_s["sc"] = time.perf_counter() - clock

    total = time.perf_counter() - begin
    sequential = sum(stage_s.values())
    layers = {f"analysis.{stage}_s": seconds
              for stage, seconds in stage_s.items()}
    layers["analysis.sequential_s"] = sequential
    layers["trace.unattributed_s"] = total - sequential
    out.update(run_s=total, layers=layers, files=len(contexts),
               findings=len(findings), parse_errors=len(errors),
               contract_matches=payload == golden)
    return out


def main(argv=None) -> int:
    # The program is first imported inside the rep functions, so set-up
    # time counts from here.
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "plain", "traced", "live"))
    args = parser.parse_args(argv)
    if args.workload == "scan":
        out = scan_rep(args.mode, started)
    else:
        out = fleet_rep(workloads.fleet_config(args.workload, args.seed),
                        args.mode, started)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
