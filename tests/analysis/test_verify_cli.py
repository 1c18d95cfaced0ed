"""The ``repro-lint verify`` subcommand and severity-aware exit codes."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.cli import main
from repro.analysis.verify.runner import _KIND_ANCHORS, _RULE_ANCHORS, _anchor

#: A broken-variant invocation that finds PV402+PV403 within depth 4.
_MUTATED = ["verify", "--no-config", "--depth", "4", "--entry", "login",
            "--mutate", "skip-login-signature-check"]
#: A clean invocation kept cheap for the test suite.
_CLEAN = ["verify", "--no-config", "--depth", "4"]


_ANCHORS = sorted(set(_RULE_ANCHORS.values()) | set(_KIND_ANCHORS.values()))


class TestTraceAnchors:
    @pytest.mark.parametrize("rel,func", _ANCHORS)
    def test_anchor_resolves_to_a_real_def(self, rel, func):
        # _anchor falls back to line 1 when the def is gone, so a renamed
        # or deleted handler would otherwise leave traces pointing nowhere.
        display, _module, line, text = _anchor(rel, func)
        assert display == f"src/{rel}"
        assert line > 1
        assert f"def {func.rsplit('.', 1)[-1]}(" in text


class TestVerifySubcommand:
    def test_list_entries(self, capsys):
        assert main(["verify", "--list-entries"]) == 0
        out = capsys.readouterr().out
        for scenario in ("register", "login", "session", "challenge",
                         "reset", "transfer"):
            assert scenario in out
        assert "--mutate skip-replay-check" in out

    def test_clean_run_exits_zero_with_stats(self, capsys):
        assert main(_CLEAN) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "explored state(s)" in out
        assert "verify: depth budget 4, adversary on" in out
        assert "states/s" in out
        assert "BUDGET EXCEEDED" not in out

    def test_mutated_run_exits_one_with_counterexample(self, capsys):
        assert main(_MUTATED) == 1
        out = capsys.readouterr().out
        assert "PV403" in out
        assert "mutations: skip-login-signature-check" in out
        assert "trace:" in out
        assert "src/repro/net/webserver.py" in out

    def test_json_format_carries_severity_and_stats(self, capsys):
        assert main(_MUTATED + ["--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verify"]["depth"] == 4
        assert payload["verify"]["exhausted"] is True
        assert payload["verify"]["scenarios"][0]["name"] == "login"
        rules = {f["rule"] for f in payload["findings"]}
        assert "PV403" in rules
        assert all(f["severity"] == "error" for f in payload["findings"])
        assert all(f["trace"] for f in payload["findings"])

    def test_sarif_format_embeds_verify_properties(self, capsys):
        assert main(_MUTATED + ["--format", "sarif"]) == 1
        sarif = json.loads(capsys.readouterr().out)
        run = sarif["runs"][0]
        assert run["properties"]["verify"]["states"] > 0
        results = [r for r in run["results"] if r["ruleId"] == "PV403"]
        assert results and results[0]["level"] == "error"
        assert results[0]["codeFlows"]

    def test_unknown_entry_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", "--no-config", "--entry", "bogus"])
        assert exc_info.value.code == 2

    def test_bad_config_entry_exits_two(self, tmp_path, capsys,
                                        monkeypatch):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""\
            [tool.trust-lint.verify]
            entries = ["bogus"]
        """))
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--depth", "2"]) == 2
        assert "unknown verify entry" in capsys.readouterr().err

    def test_config_table_sets_depth(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""\
            [tool.trust-lint.verify]
            depth = 3
            entries = ["register"]
        """))
        monkeypatch.chdir(tmp_path)
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "verify: depth budget 3" in out
        assert "register" in out
        assert "login" not in out  # entries narrowed by config

    def test_baseline_round_trip(self, tmp_path, capsys):
        baseline = tmp_path / "verify-baseline.json"
        assert main(_MUTATED + ["--baseline", str(baseline),
                                "--update-baseline"]) == 0
        assert baseline.is_file()
        assert main(_MUTATED + ["--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out


class TestFailOnThreshold:
    def test_pv400_note_respects_fail_on(self, capsys):
        truncated = ["verify", "--no-config", "--depth", "6",
                     "--entry", "login", "--max-states", "40"]
        # A budget note is a finding by default...
        assert main(truncated) == 1
        out = capsys.readouterr().out
        assert "PV400" in out
        assert "[note]" in out
        assert "BUDGET EXCEEDED" in out
        # ...but --fail-on error treats coverage caveats as non-fatal.
        assert main(truncated + ["--fail-on", "error"]) == 0

    def test_scan_fail_on_error_still_fails_on_errors(self, tmp_path,
                                                      capsys):
        pkg = tmp_path / "repro" / "crypto"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").touch()
        (pkg / "__init__.py").touch()
        (pkg / "badmod.py").write_text("import random\n")
        assert main([str(tmp_path), "--no-config"]) == 1
        assert main([str(tmp_path), "--no-config",
                     "--fail-on", "error"]) == 1
        capsys.readouterr()
