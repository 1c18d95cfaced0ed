"""TRUST-lint engine: discover files, run rules, filter findings.

The engine owns everything between "a list of paths" and "a list of
findings": Python-file discovery, dotted-module-name recovery (walking up
``__init__.py`` markers so rules see ``repro.net.webserver`` regardless of
where the tree is checked out), rule execution, suppression filtering and
baseline subtraction.

Per-module scanning is embarrassingly parallel, so ``analyze_paths``
fans files out over a :class:`~concurrent.futures.ProcessPoolExecutor`
when the file count justifies the fork cost; results are collected in
submission order and globally sorted, so the output is byte-identical to
a sequential run.  The project-wide passes (taint, determinism,
side-channel) need every module's AST at once and are not parallelisable
per file, but they are independent of the per-module scan *and* of each
other: on a big tree the determinism and side-channel passes each run in
a forked child that shares the parsed contexts copy-on-write, the taint
and contract passes run in the parent, and the scan pool grinds
alongside all of them.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from .baseline import apply_baseline
from .config import AnalysisConfig
from .core import Finding, ModuleContext, ProjectRule, all_rules

__all__ = ["AnalysisReport", "analyze_paths", "analyze_source",
           "analyze_sources", "build_contexts", "module_name_for"]

#: Below this many files a process pool costs more than it saves.
_PARALLEL_THRESHOLD = 24
_MAX_WORKERS = 8


@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    files_scanned: int = 0
    suppressed_count: int = 0
    baselined_count: int = 0
    taint_ran: bool = False
    det_ran: bool = False
    contract_ran: bool = False
    sc_ran: bool = False
    #: Canonical wire-contract payload when the contract pass ran; the
    #: same dict ``repro-lint contract`` serialises as ``contract.json``.
    contract_payload: dict | None = None
    #: Wall-clock seconds per stage (``{"lint": {"elapsed_s": ...}}``).
    #: Overlapped stages report their own clock, so the values can sum
    #: to more than the run's total wall time.
    stage_stats: dict = field(default_factory=dict)
    #: Exploration statistics when this report came from ``repro-lint
    #: verify`` (states, transitions, per-scenario breakdown); else None.
    verify_stats: dict | None = None

    @property
    def clean(self) -> bool:
        """No new findings and every file parsed."""
        return not self.findings and not self.parse_errors


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.is_file():
            files.add(path)
    return sorted(files)


def module_name_for(path: Path) -> tuple[str, bool]:
    """(dotted module name, is_package) for a file on disk.

    Walks up while ``__init__.py`` siblings exist, so
    ``src/repro/net/webserver.py`` maps to ``repro.net.webserver`` no
    matter what the checkout prefix is.  Files outside any package map to
    their bare stem.
    """
    resolved = path.resolve()
    is_package = resolved.name == "__init__.py"
    parts: list[str] = [] if is_package else [resolved.stem]
    current = resolved.parent
    while (current / "__init__.py").is_file():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(parts) or resolved.stem, is_package


def _load_context(file_path: Path,
                  display: str) -> tuple[ModuleContext | None, str | None]:
    """(context, error message) — exactly one of the two is None."""
    try:
        source = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, f"unreadable: {exc}"
    module, is_package = module_name_for(file_path)
    try:
        ctx = ModuleContext.build(file_path, display, module, source,
                                  is_package=is_package)
    except SyntaxError as exc:
        return None, f"syntax error: {exc.msg} (line {exc.lineno})"
    return ctx, None


def _scan_worker(payload: tuple[str, str, AnalysisConfig]) -> dict:
    """Scan one file with the per-module rules (process-pool safe)."""
    path_str, display, config = payload
    ctx, error = _load_context(Path(path_str), display)
    if ctx is None:
        return {"display": display, "error": error, "findings": [],
                "suppressed": 0}
    findings: list[Finding] = []
    suppressed = 0
    try:
        for rule in all_rules():
            if isinstance(rule, ProjectRule):
                continue  # computed by the project-wide taint pass
            if not config.rule_enabled(rule.id):
                continue
            for finding in rule.check(ctx, config):
                if ctx.is_suppressed(finding.rule, finding.line):
                    suppressed += 1
                else:
                    findings.append(finding)
    except Exception as exc:  # trust-lint: disable=RB301
        # A rule crash must not abort the whole run: surface the file it
        # died on as a parse-style error and keep scanning the rest.
        return {"display": display,
                "error": f"rule crash: {type(exc).__name__}: {exc}",
                "findings": [], "suppressed": 0}
    return {"display": display, "error": None, "findings": findings,
            "suppressed": suppressed}


def _stage_worker(conn, run_pass, contexts: list[ModuleContext],
                  config: AnalysisConfig) -> None:
    """Forked child: run one project pass, ship findings back.

    Only ever started via the ``fork`` start method, so ``run_pass`` and
    ``contexts`` arrive through copy-on-write memory, not pickling; the
    findings go back over the pipe (they are small, plain dataclasses).
    """
    try:
        started = time.perf_counter()
        findings = run_pass(contexts, config)
        conn.send(("ok", findings, time.perf_counter() - started))
    # Crash shield: the error is surfaced to the parent, which re-runs
    # the pass inline to attribute the failure.
    except BaseException as exc:  # trust-lint: disable=RB301
        conn.send(("error", f"{type(exc).__name__}: {exc}", 0.0))
    finally:
        conn.close()


def _effective_jobs(jobs: int | None, file_count: int) -> int:
    if jobs is not None:
        return max(1, jobs)
    if file_count < _PARALLEL_THRESHOLD:
        return 1
    return max(1, min(_MAX_WORKERS, os.cpu_count() or 1))


def build_contexts(
        file_paths: list[Path]) -> tuple[list[ModuleContext],
                                         list[tuple[str, str]]]:
    """Parse every file into a ModuleContext; returns (contexts, errors)."""
    contexts: list[ModuleContext] = []
    errors: list[tuple[str, str]] = []
    for file_path in file_paths:
        ctx, error = _load_context(file_path, _display_path(file_path))
        if ctx is None:
            errors.append((_display_path(file_path), error or "unreadable"))
        else:
            contexts.append(ctx)
    return contexts, errors


def analyze_paths(paths: list[Path] | list[str],
                  config: AnalysisConfig | None = None,
                  baseline: dict[str, int] | None = None,
                  *, taint: bool = False, det: bool = False,
                  contract: bool = False, sc: bool = False,
                  jobs: int | None = None) -> AnalysisReport:
    """Run every enabled rule over the Python files under ``paths``.

    ``taint=True`` additionally runs the interprocedural secret-flow
    pass (SF110/SF111) over the whole file set; ``det=True`` runs
    the determinism & shard-isolation pass (DT6xx/RC61x);
    ``contract=True`` runs the wire-contract conformance pass (CT7xx)
    and records the canonical payload on the report; ``sc=True`` runs
    the constant-time / side-channel pass (SC8xx).  The project passes
    share one symbol table.  ``jobs`` forces a worker count for the
    per-file scan (default: automatic — sequential for small trees, up
    to 8 processes for large ones).
    """
    config = config if config is not None else AnalysisConfig.default()
    report = AnalysisReport()
    file_paths = iter_python_files([Path(p) for p in paths])
    payloads = [(str(p), _display_path(p), config) for p in file_paths]
    workers = _effective_jobs(jobs, len(file_paths))
    project = taint or det or contract or sc

    contexts: list[ModuleContext] = []
    if project:
        contexts, _ = build_contexts(file_paths)  # errors already reported

    # Multiple project passes on a big tree: fork the determinism and
    # side-channel passes off first (before any pool exists), so they
    # overlap the parent's taint run and the per-module scan.  Small
    # trees stay single-process, and so do single-core hosts — each
    # child rebuilds the symbol index, which only pays for itself when
    # the passes genuinely run concurrently.
    can_fork = (taint and len(file_paths) >= _PARALLEL_THRESHOLD
                and (os.cpu_count() or 1) >= 2
                and "fork" in multiprocessing.get_all_start_methods())
    forkable = {}
    if det:
        from .determinism import run_det
        forkable["det"] = run_det
    if sc:
        from .sidechannel import run_sc
        forkable["sc"] = run_sc
    forked = {}
    if can_fork:
        mp = multiprocessing.get_context("fork")
        for stage, run_pass in forkable.items():
            parent_conn, child_conn = mp.Pipe(duplex=False)
            proc = mp.Process(target=_stage_worker,
                              args=(child_conn, run_pass, contexts, config),
                              daemon=True)
            proc.start()
            child_conn.close()
            forked[stage] = (proc, parent_conn)

    def forked_stage(stage: str, index) -> list[Finding]:
        """Collect a forked pass's findings, or re-run it inline when it
        was never forked, failed, or its child died."""
        started = time.perf_counter()
        findings: list[Finding] | None = None
        elapsed = 0.0
        if stage in forked:
            proc, conn = forked[stage]
            try:
                status, payload, elapsed = conn.recv()
                if status == "ok":
                    findings = payload
            except EOFError:
                pass  # child died: re-run inline
            proc.join()
        if findings is None:
            findings = forkable[stage](contexts, config, index=index)
            elapsed = time.perf_counter() - started
        report.stage_stats[stage] = {"elapsed_s": elapsed}
        return findings

    def project_passes() -> list[Finding]:
        found: list[Finding] = []
        index = None
        if taint:
            started = time.perf_counter()
            from .taint import TaintAnalysis
            analysis = TaintAnalysis(contexts, config)
            found.extend(analysis.run())
            report.taint_ran = True
            index = analysis.index
            report.stage_stats["taint"] = {
                "elapsed_s": time.perf_counter() - started}
        if det:
            found.extend(forked_stage("det", index))
            report.det_ran = True
        if contract:
            started = time.perf_counter()
            from .contract import run_contract
            ct_findings, payload = run_contract(contexts, config,
                                                index=index)
            found.extend(ct_findings)
            report.contract_ran = True
            report.contract_payload = payload
            report.stage_stats["contract"] = {
                "elapsed_s": time.perf_counter() - started}
        if sc:
            found.extend(forked_stage("sc", index))
            report.sc_ran = True
        return found

    interproc: list[Finding] | None = None
    scan_started = time.perf_counter()
    if workers > 1:
        chunk = max(1, len(payloads) // (workers * 4))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                scan_iter = pool.map(_scan_worker, payloads,
                                     chunksize=chunk)
                # The pool grinds the per-module rules while the parent
                # runs the project-wide passes; collect afterwards.
                if project:
                    interproc = project_passes()
                results = list(scan_iter)
        except BrokenProcessPool:
            # A worker died outright (OOM kill, unpicklable crash).  The
            # scan itself is pure, so fall back to a sequential pass that
            # can attribute any failure to the file that caused it.
            results = [_scan_worker(payload) for payload in payloads]
    else:
        results = [_scan_worker(payload) for payload in payloads]
    report.stage_stats["lint"] = {
        "elapsed_s": time.perf_counter() - scan_started}
    if interproc is None and project:
        interproc = project_passes()

    raw_findings: list[Finding] = []
    for result in results:  # submission order: deterministic
        if result["error"] is not None:
            report.parse_errors.append((result["display"], result["error"]))
            continue
        report.files_scanned += 1
        report.suppressed_count += result["suppressed"]
        raw_findings.extend(result["findings"])
    if interproc:
        raw_findings.extend(interproc)
    raw_findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    if baseline:
        new_findings, baselined = apply_baseline(raw_findings, baseline)
        report.findings = new_findings
        report.baselined_count = baselined
    else:
        report.findings = raw_findings
    return report


def analyze_source(source: str, module: str = "snippet",
                   config: AnalysisConfig | None = None,
                   is_package: bool = False,
                   taint: bool = False, det: bool = False,
                   contract: bool = False, sc: bool = False) -> list[Finding]:
    """Run the rules over one in-memory snippet (test/fixture entry point)."""
    return analyze_sources({module: source}, config=config,
                           is_package=is_package, taint=taint, det=det,
                           contract=contract, sc=sc)


def analyze_sources(sources: dict[str, str],
                    config: AnalysisConfig | None = None,
                    is_package: bool = False,
                    taint: bool = False, det: bool = False,
                    contract: bool = False, sc: bool = False) -> list[Finding]:
    """Run the rules over a set of in-memory modules ({module: source}).

    The multi-module form exists for taint fixtures: cross-module flows
    need every module in one index.  ``is_package`` applies to modules
    whose source should be treated as a package ``__init__``.
    """
    config = config if config is not None else AnalysisConfig.default()
    contexts = []
    for module, source in sources.items():
        contexts.append(ModuleContext.build(
            Path(f"{module}.py"), f"{module}.py", module, source,
            is_package=is_package))
    findings: list[Finding] = []
    for ctx in contexts:
        for rule in all_rules():
            if isinstance(rule, ProjectRule):
                continue
            if not config.rule_enabled(rule.id):
                continue
            for finding in rule.check(ctx, config):
                if not ctx.is_suppressed(finding.rule, finding.line):
                    findings.append(finding)
    index = None
    if taint:
        from .taint import TaintAnalysis
        analysis = TaintAnalysis(contexts, config)
        findings.extend(analysis.run())
        index = analysis.index
    if det:
        from .determinism import run_det
        findings.extend(run_det(contexts, config, index=index))
    if contract:
        from .contract import run_contract
        ct_findings, _ = run_contract(contexts, config, index=index)
        findings.extend(ct_findings)
    if sc:
        from .sidechannel import run_sc
        findings.extend(run_sc(contexts, config, index=index))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _display_path(path: Path) -> str:
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)
