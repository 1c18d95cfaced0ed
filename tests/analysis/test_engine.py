"""Engine behaviour: file discovery, module naming, baselines, config."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    analyze_paths,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import module_name_for


def _write_pkg(root: Path, dotted: str, name: str, source: str) -> Path:
    """Create a package chain ``dotted`` and drop ``name.py`` inside it."""
    current = root
    for part in dotted.split("."):
        current = current / part
        current.mkdir(exist_ok=True)
        (current / "__init__.py").touch()
    path = current / f"{name}.py"
    path.write_text(textwrap.dedent(source))
    return path


class TestModuleNaming:
    def test_nested_module(self, tmp_path):
        path = _write_pkg(tmp_path, "repro.net", "webserver", "x = 1\n")
        module, is_package = module_name_for(path)
        assert module == "repro.net.webserver"
        assert not is_package

    def test_package_init(self, tmp_path):
        _write_pkg(tmp_path, "repro.crypto", "rng", "x = 1\n")
        module, is_package = module_name_for(
            tmp_path / "repro" / "crypto" / "__init__.py")
        assert module == "repro.crypto"
        assert is_package

    def test_bare_script(self, tmp_path):
        path = tmp_path / "script.py"
        path.write_text("x = 1\n")
        module, is_package = module_name_for(path)
        assert module == "script"
        assert not is_package


class TestAnalyzePaths:
    def test_violations_found_across_tree(self, tmp_path):
        _write_pkg(tmp_path, "repro.crypto", "badmod", "import random\n")
        _write_pkg(tmp_path, "repro.net", "leaky", "print(session_key)\n")
        report = analyze_paths([tmp_path])
        assert sorted(f.rule for f in report.findings) \
            == ["CD201", "OB501", "SF101"]
        assert report.files_scanned >= 2
        assert not report.clean

    def test_clean_tree(self, tmp_path):
        _write_pkg(tmp_path, "repro.net", "goodmod", "x = 1\n")
        report = analyze_paths([tmp_path])
        assert report.clean
        assert report.findings == []

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        _write_pkg(tmp_path, "repro.net", "broken", "def f(:\n")
        report = analyze_paths([tmp_path])
        assert not report.clean
        assert len(report.parse_errors) == 1

    def test_suppressed_findings_are_counted(self, tmp_path):
        _write_pkg(tmp_path, "repro.crypto", "badmod",
                   "import random  # trust-lint: disable=CD201\n")
        report = analyze_paths([tmp_path])
        assert report.clean
        assert report.suppressed_count == 1

    def test_disabled_rule_does_not_run(self, tmp_path):
        _write_pkg(tmp_path, "repro.crypto", "badmod", "import random\n")
        config = AnalysisConfig(disabled_rules=("CD201",))
        report = analyze_paths([tmp_path], config)
        assert report.clean


class TestBaseline:
    def test_baseline_grandfathers_existing_findings(self, tmp_path):
        _write_pkg(tmp_path, "repro.crypto", "badmod", "import random\n")
        first = analyze_paths([tmp_path])
        assert len(first.findings) == 1

        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, first.findings)
        baseline = load_baseline(baseline_file)

        second = analyze_paths([tmp_path], baseline=baseline)
        assert second.clean
        assert second.baselined_count == 1

    def test_new_finding_not_covered_by_baseline(self, tmp_path):
        path = _write_pkg(tmp_path, "repro.crypto", "badmod",
                          "import random\n")
        first = analyze_paths([tmp_path])
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, first.findings)

        path.write_text("import random\nfrom random import randrange\n")
        report = analyze_paths([tmp_path],
                               baseline=load_baseline(baseline_file))
        assert len(report.findings) == 1  # only the new line
        assert report.baselined_count == 1

    def test_fingerprint_survives_line_motion(self, tmp_path):
        path = _write_pkg(tmp_path, "repro.crypto", "badmod",
                          "import random\n")
        first = analyze_paths([tmp_path])
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, first.findings)

        path.write_text("# a new leading comment\nimport random\n")
        report = analyze_paths([tmp_path],
                               baseline=load_baseline(baseline_file))
        assert report.clean
        assert report.baselined_count == 1

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_bad_version_is_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99, "entries": {}}')
        with pytest.raises(ValueError):
            load_baseline(bad)

    def test_apply_baseline_respects_counts(self, tmp_path):
        _write_pkg(tmp_path, "repro.crypto", "badmod",
                   "import random\nimport random\n")
        report = analyze_paths([tmp_path])
        assert len(report.findings) == 2
        # Both findings share one fingerprint (same stripped line); a
        # baseline recording one occurrence forgives exactly one.
        fp = report.findings[0].fingerprint()
        new, grandfathered = apply_baseline(report.findings, {fp: 1})
        assert grandfathered == 1
        assert len(new) == 1


class TestConfig:
    def test_pyproject_overrides(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(textwrap.dedent("""
            [tool.trust-lint]
            paths = ["lib"]
            disable = ["RB302"]
            extend-public-patterns = ["monkey*"]
        """))
        config = AnalysisConfig.from_pyproject(pyproject)
        assert config.default_paths == ("lib",)
        assert not config.rule_enabled("RB302")
        assert not config.is_secret_name("monkeypatch")
        assert config.is_secret_name("session_key")

    def test_unknown_option_is_rejected(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.trust-lint]\ntypo-option = 1\n")
        with pytest.raises(ValueError, match="typo-option"):
            AnalysisConfig.from_pyproject(pyproject)

    def test_every_documented_key_round_trips_to_its_field(self):
        import dataclasses
        import re

        from repro.analysis.config import _OPTIONS

        items = re.split(r"\n\s*- ", AnalysisConfig.from_pyproject.__doc__)
        documented = {}
        for item in items[1:]:
            table, *keys = re.findall(r"``([^`]+)``(?:\s+\((\w+))?", item)
            sub = table[0].strip("[]").removeprefix("tool.trust-lint")
            for key, kind in keys:
                documented[sub.lstrip("."), key] = kind
        assert set(documented) == set(_OPTIONS)

        default = AnalysisConfig.default()
        samples = {"int": 7, "bool": False, "str": "zz/sample"}
        for (sub, key), kind in documented.items():
            sample = samples.get(kind, ["Zz.Sample"])
            config = default.with_overrides(
                {sub: {key: sample}} if sub else {key: sample})
            (name,) = [f.name for f in dataclasses.fields(config)
                       if getattr(config, f.name) != getattr(default, f.name)]
            stem = key.removeprefix("extend-").replace("-", "_")
            assert name.startswith(sub) and stem in name, (sub, key, name)
            old, new = getattr(default, name), getattr(config, name)
            if key.startswith("extend-"):
                assert new[:len(old)] == old
                assert new[len(old):] in (("Zz.Sample",), ("zz.sample",))
            elif isinstance(sample, list):
                assert new in (("Zz.Sample",), ("zz.sample",))
            else:
                assert new == sample

    def test_unknown_subtable_option_is_rejected(self):
        with pytest.raises(ValueError, match=r"unknown \[tool\.trust-lint"
                                             r"\.sc\] options: \['typo'\]"):
            AnalysisConfig.default().with_overrides({"sc": {"typo": 1}})

    def test_repo_and_corpus_policies_load(self, tmp_path):
        import tarfile

        root = Path(__file__).resolve().parents[2]
        repo = AnalysisConfig.from_pyproject(root / "pyproject.toml")
        with tarfile.open(root / "perfbench" / "corpus.tar.xz") as archive:
            (tmp_path / "pyproject.toml").write_bytes(
                archive.extractfile("pyproject.toml").read())
        corpus = AnalysisConfig.from_pyproject(tmp_path / "pyproject.toml")
        for config in (repo, corpus):
            assert config.det_exempt_modules == ("repro.analysis",)
            assert "has_*" in config.sc_public_patterns
            assert config.contract_golden == \
                "benchmarks/results/contract.json"

    def test_secret_name_matching(self):
        config = AnalysisConfig.default()
        assert config.is_secret_name("session_key")
        assert config.is_secret_name("device_template")
        assert config.is_secret_name("minutiae")
        assert config.is_secret_name("seed")
        assert not config.is_secret_name("public_key")
        assert not config.is_secret_name("keystroke_timings")
        assert not config.is_secret_name("domain")

    def test_secret_bytes_matching(self):
        config = AnalysisConfig.default()
        assert config.is_secret_bytes_name("session_key")
        assert config.is_secret_bytes_name("mac")
        assert config.is_secret_bytes_name("expected_tag")
        assert not config.is_secret_bytes_name("public_key")
        assert not config.is_secret_bytes_name("key_bits")


class TestWorkerRobustness:
    """A crashing rule or a dead child must not abort the scan."""

    def test_rule_crash_surfaces_file_and_keeps_scanning(self, tmp_path,
                                                         monkeypatch):
        from repro.analysis.rules.crypto_discipline import StdlibRandomInCrypto

        _write_pkg(tmp_path, "repro.crypto", "crashy", "x = 1\n")
        _write_pkg(tmp_path, "repro.crypto", "noisy", "import random\n")

        original = StdlibRandomInCrypto.check

        def exploding(self, ctx, config):
            if ctx.module.endswith("crashy"):
                raise RuntimeError("rule exploded")
            yield from original(self, ctx, config)

        monkeypatch.setattr(StdlibRandomInCrypto, "check", exploding)
        report = analyze_paths([tmp_path])
        # The crash is attributed to the file it died on...
        (crashed,) = [(display, message)
                      for display, message in report.parse_errors
                      if "crashy" in display]
        assert "rule crash: RuntimeError: rule exploded" in crashed[1]
        # ...and the other file was still scanned normally.
        assert any(f.rule == "CD201" and "noisy" in f.path
                   for f in report.findings)

    def test_rule_crash_is_a_failing_exit_code(self, tmp_path, monkeypatch):
        from repro.analysis.cli import _exit_code
        from repro.analysis.rules.crypto_discipline import StdlibRandomInCrypto

        _write_pkg(tmp_path, "repro.crypto", "crashy", "x = 1\n")

        def exploding(self, ctx, config):
            raise RuntimeError("boom")
            yield  # pragma: no cover

        monkeypatch.setattr(StdlibRandomInCrypto, "check", exploding)
        report = analyze_paths([tmp_path])
        assert report.parse_errors
        # Even the laxest threshold cannot mask a crashed rule.
        assert _exit_code(report, "error") == 1

    def test_crashes_and_syntax_errors_keep_file_order(self, tmp_path,
                                                       monkeypatch):
        from repro.analysis.rules.crypto_discipline import StdlibRandomInCrypto

        _write_pkg(tmp_path, "repro.crypto", "a_crashy", "x = 1\n")
        _write_pkg(tmp_path, "repro.crypto", "b_broken", "def f(:\n")
        _write_pkg(tmp_path, "repro.crypto", "c_crashy", "x = 1\n")

        def exploding(self, ctx, config):
            if "crashy" in ctx.module:
                raise RuntimeError("boom")
            yield from ()

        monkeypatch.setattr(StdlibRandomInCrypto, "check", exploding)
        report = analyze_paths([tmp_path])
        assert [Path(display).stem for display, _ in report.parse_errors] \
            == ["a_crashy", "b_broken", "c_crashy"]
        assert report.files_scanned == 2  # the two __init__ files

    def _forkable_tree(self, tmp_path):
        """Enough modules to fork; lint, taint, det and sc findings."""
        for index in range(24):
            _write_pkg(tmp_path, "repro.util", f"filler{index}", "x = 1\n")
        _write_pkg(tmp_path, "repro.runtime", "clock", """
            import time

            def stamp():
                return time.time()
        """)
        _write_pkg(tmp_path, "repro.crypto", "route", """
            import random

            def route(session_key):
                if session_key:
                    return 1
                return 0
        """)
        _write_pkg(tmp_path, "repro.net", "leaky", """
            def leak(device):
                alias = device.session_key
                print(alias)
        """)

    def _record_calls(self, monkeypatch, log: Path) -> None:
        """Append one line per module parse and per index build to
        ``log``, from whichever process makes the call."""
        from repro.analysis.core import ModuleContext
        from repro.analysis.taint.symbols import ProjectIndex

        build = ModuleContext.build.__func__
        init = ProjectIndex.__init__

        def counted_build(cls, path, *args, **kwargs):
            with log.open("a") as handle:
                handle.write(f"parse {path}\n")
            return build(cls, path, *args, **kwargs)

        def counted_init(self):
            with log.open("a") as handle:
                handle.write("index\n")
            init(self)

        monkeypatch.setattr(ModuleContext, "build",
                            classmethod(counted_build))
        monkeypatch.setattr(ProjectIndex, "__init__", counted_init)

    def test_six_stage_run_parses_once_and_indexes_once(self, tmp_path,
                                                        monkeypatch):
        from repro.analysis import engine
        from repro.analysis.engine import iter_python_files

        tree, log = tmp_path / "tree", tmp_path / "calls.log"
        tree.mkdir()
        self._forkable_tree(tree)
        files = iter_python_files([tree])
        assert len(files) >= 24
        self._record_calls(monkeypatch, log)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
        report = analyze_paths([tree], taint=True, det=True,
                               contract=True, sc=True)
        lines = log.read_text().splitlines()
        assert sorted(line for line in lines if line.startswith("parse")) \
            == sorted(f"parse {path}" for path in files)
        assert lines.count("index") == 1
        assert report.stage_stats["det"]["process"] == "child"

    @pytest.mark.parametrize("child_dies", [False, True])
    def test_forked_stages_match_inline_run(self, tmp_path, monkeypatch,
                                            child_dies):
        import os

        from repro.analysis import engine

        tree, markers = tmp_path / "tree", tmp_path / "markers"
        tree.mkdir()
        markers.mkdir()
        self._forkable_tree(tree)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 1)
        inline = analyze_paths([tree], taint=True, det=True, sc=True)
        assert {"DT601", "SC800"} <= {f.rule for f in inline.findings}

        parent = os.getpid()
        real_child = engine._child

        def child(conn, stages, *args):
            (markers / str(os.getpid())).write_text(" ".join(stages))
            if child_dies:
                os._exit(1)  # no reply: the parent must re-run in-process
            real_child(conn, stages, *args)

        monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(engine, "_child", child)
        forked = analyze_paths([tree], taint=True, det=True, sc=True)
        # One forked child ran both det and sc...
        (marker,) = markers.iterdir()
        assert int(marker.name) != parent
        assert marker.read_text() == "det sc"
        # ...and the parent's report is the inline one either way.
        assert forked.findings == inline.findings
        assert list(forked.stage_stats) == list(inline.stage_stats) \
            == ["parse", "lint", "taint", "det", "sc"]
        process = "parent" if child_dies else "child"
        assert forked.stage_stats["sc"]["process"] == process

    def test_forked_run_matches_single_cpu_run(self, tmp_path, monkeypatch):
        from repro.analysis import engine

        self._forkable_tree(tmp_path)
        stages = dict(taint=True, det=True, contract=True, sc=True)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
        forked = analyze_paths([tmp_path], **stages)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 1)
        single = analyze_paths([tmp_path], **stages)
        assert {entry["process"] for entry in forked.stage_stats.values()} \
            == {"parent", "child"}
        assert {entry["process"] for entry in single.stage_stats.values()} \
            == {"parent"}
        assert {"CD201", "DT601", "SC800", "SF110"} \
            <= {f.rule for f in forked.findings}
        assert ([f.fingerprint() for f in forked.findings]
                == [f.fingerprint() for f in single.findings])
        assert forked.contract_payload == single.contract_payload
