"""TRUST-lint engine: discover files, run rules, filter findings.

The engine owns everything between "a list of paths" and "a list of
findings": Python-file discovery, dotted-module-name recovery (walking up
``__init__.py`` markers so rules see ``repro.net.webserver`` regardless of
where the tree is checked out), rule execution, suppression filtering and
baseline subtraction.

``analyze_paths`` parses every file once and, when a project-wide stage
is requested, builds one symbol index; both happen before any fork.  The
stages then run in :data:`STAGES` order over those shared structures.
On a big tree and a multi-core host, one forked child runs the
determinism and side-channel stages on the inherited index
(copy-on-write) while the parent runs the per-module rules, taint and
contract.  The child is skipped, and its stages run in-process, when the
host cannot fork, has fewer than 2 CPUs, the tree has fewer than
:data:`_PARALLEL_THRESHOLD` modules, or the child dies without replying.
Findings are globally sorted, so the report is byte-identical either way.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .baseline import apply_baseline
from .config import AnalysisConfig
from .core import Finding, ModuleContext, ProjectRule, all_rules

__all__ = ["AnalysisReport", "analyze_paths", "analyze_source",
           "analyze_sources", "build_contexts", "module_name_for"]

#: Every stage in run and report order.  ``parse`` and ``lint`` always
#: run; the four project-wide stages run when requested.
STAGES = ("parse", "lint", "taint", "det", "contract", "sc")
#: The project-wide stages the forked child takes over.
_CHILD_STAGES = ("det", "sc")
#: Below this many modules a fork costs more than it saves.
_PARALLEL_THRESHOLD = 24


@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    files_scanned: int = 0
    suppressed_count: int = 0
    baselined_count: int = 0
    #: Canonical wire-contract payload when the contract pass ran; the
    #: same dict ``repro-lint contract`` serialises as ``contract.json``.
    contract_payload: dict | None = None
    #: The stages that ran, in :data:`STAGES` order, each with its clock
    #: and the process it ran in (``{"lint": {"elapsed_s": ...,
    #: "process": "parent"}}``).  The child's entries add up to its wall
    #: time; the parent's, plus any wait for the child, to the run's.
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


def _requested(taint: bool, det: bool, contract: bool,
               sc: bool) -> list[str]:
    """The requested project-wide stages, in :data:`STAGES` order."""
    flags = {"taint": taint, "det": det, "contract": contract, "sc": sc}
    return [stage for stage in STAGES if flags.get(stage)]


def _module_rules(config: AnalysisConfig) -> list:
    """The enabled per-module rules (project rules run as stages)."""
    return [rule for rule in all_rules()
            if not isinstance(rule, ProjectRule)
            and config.rule_enabled(rule.id)]


def _lint_module(ctx: ModuleContext, rules: list,
                 config: AnalysisConfig) -> tuple[list[Finding], int]:
    """(unsuppressed findings, suppressed count) of one module."""
    findings: list[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check(ctx, config):
            if ctx.is_suppressed(finding.rule, finding.line):
                suppressed += 1
            else:
                findings.append(finding)
    return findings, suppressed


def _run_stage(stage: str, contexts: list[ModuleContext],
               config: AnalysisConfig, index,
               report: AnalysisReport) -> list[Finding]:
    """Run one project-wide stage on the shared index."""
    if stage == "taint":
        from .taint import TaintAnalysis
        return TaintAnalysis(contexts, config, index=index).run()
    if stage == "det":
        from .determinism import run_det
        return run_det(contexts, config, index=index)
    if stage == "contract":
        from .contract import run_contract
        findings, report.contract_payload = run_contract(
            contexts, config, index=index)
        return findings
    from .sidechannel import run_sc
    return run_sc(contexts, config, index=index)


def _run_stages(stages: list[str], contexts: list[ModuleContext],
                config: AnalysisConfig, index, report: AnalysisReport,
                process: str = "parent") -> list[Finding]:
    """Run project-wide stages in order, clocking each into the report."""
    found: list[Finding] = []
    for stage in stages:
        started = time.perf_counter()
        found.extend(_run_stage(stage, contexts, config, index, report))
        report.stage_stats[stage] = {
            "elapsed_s": time.perf_counter() - started, "process": process}
    return found


def _child(conn, stages: list[str], contexts: list[ModuleContext],
           config: AnalysisConfig, index) -> None:
    """Forked child: run ``stages`` on the inherited index, reply once.

    Only ever started with the ``fork`` method, so the contexts and the
    index arrive through copy-on-write memory, not pickling; the findings
    and clocks go back over the pipe.  A stage that raises sends no
    reply, and the parent re-runs the stages in-process, where the
    exception surfaces with its traceback.
    """
    report = AnalysisReport()
    try:
        findings = _run_stages(stages, contexts, config, index, report,
                               process="child")
        conn.send((findings, report.stage_stats))
    finally:
        conn.close()


def _fork_child(stages: list[str], contexts: list[ModuleContext],
                config: AnalysisConfig, index):
    """(process, pipe) of a child running ``stages``, or None when
    forking does not pay or is not possible on this host."""
    if (not stages or len(contexts) < _PARALLEL_THRESHOLD
            or (os.cpu_count() or 1) < 2
            or "fork" not in multiprocessing.get_all_start_methods()):
        return None
    mp = multiprocessing.get_context("fork")
    parent_conn, child_conn = mp.Pipe(duplex=False)
    proc = mp.Process(target=_child,
                      args=(child_conn, stages, contexts, config, index),
                      daemon=True)
    proc.start()
    child_conn.close()
    return proc, parent_conn


def _join_child(child) -> tuple[list[Finding], dict] | None:
    """The child's (findings, stage clocks), or None if it died silently."""
    proc, conn = child
    try:
        reply = conn.recv()
    except EOFError:
        reply = None
    conn.close()
    proc.join()
    return reply


def analyze_paths(paths: list[Path] | list[str],
                  config: AnalysisConfig | None = None,
                  baseline: dict[str, int] | None = None,
                  *, taint: bool = False, det: bool = False,
                  contract: bool = False, sc: bool = False) -> AnalysisReport:
    """Run every enabled rule over the Python files under ``paths``.

    ``taint=True`` additionally runs the interprocedural secret-flow
    pass (SF110/SF111) over the whole file set; ``det=True`` runs
    the determinism & shard-isolation pass (DT6xx/RC61x);
    ``contract=True`` runs the wire-contract conformance pass (CT7xx)
    and records the canonical payload on the report; ``sc=True`` runs
    the constant-time / side-channel pass (SC8xx).  Every stage shares
    one parse and one symbol index.
    """
    config = config if config is not None else AnalysisConfig.default()
    report = AnalysisReport()
    stages = _requested(taint, det, contract, sc)

    started = time.perf_counter()
    file_paths = iter_python_files([Path(p) for p in paths])
    contexts, errors = build_contexts(file_paths)
    index = None
    if stages:
        from .taint.symbols import build_index
        index = build_index(contexts)
    report.stage_stats["parse"] = {
        "elapsed_s": time.perf_counter() - started, "process": "parent"}

    child_stages = [stage for stage in stages if stage in _CHILD_STAGES]
    child = _fork_child(child_stages, contexts, config, index)

    started = time.perf_counter()
    rules = _module_rules(config)
    raw_findings: list[Finding] = []
    for ctx in contexts:
        try:
            findings, suppressed = _lint_module(ctx, rules, config)
        except Exception as exc:  # trust-lint: disable=RB301
            # A rule crash must not abort the whole run: surface the
            # file it died on as a parse-style error and keep scanning.
            errors.append((ctx.display_path,
                           f"rule crash: {type(exc).__name__}: {exc}"))
            continue
        report.files_scanned += 1
        report.suppressed_count += suppressed
        raw_findings.extend(findings)
    report.stage_stats["lint"] = {
        "elapsed_s": time.perf_counter() - started, "process": "parent"}

    parent_stages = stages if child is None else [
        stage for stage in stages if stage not in child_stages]
    raw_findings.extend(_run_stages(parent_stages, contexts, config, index,
                                    report))
    if child is not None:
        reply = _join_child(child)
        if reply is None:  # the child died: run its stages here
            raw_findings.extend(_run_stages(child_stages, contexts, config,
                                            index, report))
        else:
            raw_findings.extend(reply[0])
            report.stage_stats.update(reply[1])
    report.stage_stats = {stage: report.stage_stats[stage]
                          for stage in STAGES if stage in report.stage_stats}

    order = {_display_path(path): rank for rank, path in enumerate(file_paths)}
    report.parse_errors = sorted(errors, key=lambda error: order[error[0]])
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
    whose source should be treated as a package ``__init__``.  Runs
    in-process, and a rule crash propagates.
    """
    config = config if config is not None else AnalysisConfig.default()
    contexts = [ModuleContext.build(Path(f"{module}.py"), f"{module}.py",
                                    module, source, is_package=is_package)
                for module, source in sources.items()]
    rules = _module_rules(config)
    findings: list[Finding] = []
    for ctx in contexts:
        findings.extend(_lint_module(ctx, rules, config)[0])
    stages = _requested(taint, det, contract, sc)
    if stages:
        from .taint.symbols import build_index
        findings.extend(_run_stages(stages, contexts, config,
                                    build_index(contexts), AnalysisReport()))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _display_path(path: Path) -> str:
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)
