"""Reporters and the repro-lint command line."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import (analyze_paths, render_json, render_sarif,
                            render_text)
from repro.analysis.cli import main


def _plant(tmp_path, source: str = "import random\n",
           package: str = "crypto", name: str = "badmod"):
    pkg = tmp_path / "repro" / package
    pkg.mkdir(parents=True, exist_ok=True)
    (tmp_path / "repro" / "__init__.py").touch()
    (pkg / "__init__.py").touch()
    (pkg / f"{name}.py").write_text(textwrap.dedent(source))
    return tmp_path


_TAINT_LEAK = """\
def show(session_key):
    alias = session_key
    print(alias)  # trust-lint: disable=OB501
"""


class TestReporters:
    def test_text_report_lists_location_and_rule(self, tmp_path):
        _plant(tmp_path)
        report = analyze_paths([tmp_path])
        text = render_text(report)
        assert "CD201" in text
        assert "badmod.py:1:" in text
        assert "1 finding(s)" in text

    def test_json_report_is_parseable_and_stable(self, tmp_path):
        _plant(tmp_path)
        report = analyze_paths([tmp_path])
        payload = json.loads(render_json(report))
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "CD201"
        assert payload["findings"][0]["module"] == "repro.crypto.badmod"
        assert payload["findings"][0]["fingerprint"]

    def test_clean_report(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        report = analyze_paths([tmp_path])
        assert "0 finding(s)" in render_text(report)
        assert json.loads(render_json(report))["clean"] is True

    def test_text_and_json_include_taint_traces(self, tmp_path):
        _plant(tmp_path, _TAINT_LEAK, package="net", name="leaky")
        report = analyze_paths([tmp_path], taint=True)
        text = render_text(report)
        assert "SF110" in text
        assert "trace:" in text
        assert "leaky.py:2" in text  # the aliasing hop, with file:line
        payload = json.loads(render_json(report))
        assert payload["taint_ran"] is True
        (finding,) = [f for f in payload["findings"]
                      if f["rule"] == "SF110"]
        assert finding["trace"]
        assert all(h["path"] and h["line"] >= 1 and h["note"]
                   for h in finding["trace"])

    def test_sarif_report_shape(self, tmp_path):
        _plant(tmp_path, _TAINT_LEAK, package="net", name="leaky")
        report = analyze_paths([tmp_path], taint=True)
        sarif = json.loads(render_sarif(report))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"SF101", "SF110", "SF111", "SC805"} <= rule_ids
        (result,) = [r for r in run["results"] if r["ruleId"] == "SF110"]
        assert result["partialFingerprints"]["trustLint/v1"]
        locations = result["codeFlows"][0]["threadFlows"][0]["locations"]
        assert len(locations) >= 3  # source, alias, sink at minimum
        for entry in locations:
            loc = entry["location"]["physicalLocation"]
            assert loc["artifactLocation"]["uri"]
            assert loc["region"]["startLine"] >= 1

    def test_sarif_clean_run_has_no_results(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        sarif = json.loads(render_sarif(analyze_paths([tmp_path])))
        assert sarif["runs"][0]["results"] == []


class TestCli:
    def test_exit_one_on_findings(self, tmp_path, capsys):
        _plant(tmp_path)
        code = main([str(tmp_path), "--no-config"])
        assert code == 1
        assert "CD201" in capsys.readouterr().out

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code = main([str(tmp_path), "--no-config"])
        assert code == 0

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        code = main([str(tmp_path / "nope"), "--no-config"])
        assert code == 2

    def test_disable_silences_rule(self, tmp_path, capsys):
        _plant(tmp_path)
        code = main([str(tmp_path), "--no-config", "--disable", "CD201"])
        assert code == 0

    def test_unknown_disable_rule_is_an_error(self, tmp_path, capsys):
        code = main([str(tmp_path), "--no-config", "--disable", "XX999"])
        assert code == 2

    def test_list_rules(self, capsys):
        code = main(["--list-rules"])
        assert code == 0
        out = capsys.readouterr().out
        for rule_id in ("TB001", "SF101", "CD201", "CD202", "CD203",
                        "RB301", "RB302"):
            assert rule_id in out

    def test_json_format(self, tmp_path, capsys):
        _plant(tmp_path)
        code = main([str(tmp_path), "--no-config", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "CD201"

    def test_baseline_round_trip(self, tmp_path, capsys):
        _plant(tmp_path)
        baseline = tmp_path / "baseline.json"
        code = main([str(tmp_path), "--no-config",
                     "--baseline", str(baseline), "--update-baseline"])
        assert code == 0
        assert baseline.is_file()
        # With the baseline applied the same tree is clean.
        code = main([str(tmp_path), "--no-config",
                     "--baseline", str(baseline)])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_update_baseline_requires_target(self, tmp_path, capsys):
        _plant(tmp_path)
        code = main([str(tmp_path), "--no-config", "--update-baseline"])
        assert code == 2

    def test_taint_flag_runs_interprocedural_pass(self, tmp_path, capsys):
        _plant(tmp_path, _TAINT_LEAK, package="net", name="leaky")
        code = main([str(tmp_path), "--no-config"])
        assert code == 0  # clean without --taint: SF101 cannot see the alias
        code = main([str(tmp_path), "--no-config", "--taint"])
        assert code == 1
        out = capsys.readouterr().out
        assert "SF110" in out
        assert "trace:" in out

    def test_sarif_format(self, tmp_path, capsys):
        _plant(tmp_path)
        code = main([str(tmp_path), "--no-config", "--format", "sarif"])
        assert code == 1
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["results"][0]["ruleId"] == "CD201"

    def test_jobs_flag_is_a_usage_error(self, tmp_path, capsys):
        _plant(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([str(tmp_path), "--no-config", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_graph_subcommand(self, tmp_path, capsys):
        _plant(tmp_path, "from repro.net import callee\n\n"
                         "def caller():\n"
                         "    return callee.helper()\n",
               package="net", name="entry")
        _plant(tmp_path, "def helper():\n    return 1\n",
               package="net", name="callee")
        code = main(["graph", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro.net.entry.caller -> repro.net.callee.helper" in out

    def test_graph_focus_filters_edges(self, tmp_path, capsys):
        _plant(tmp_path, "from repro.net import callee\n\n"
                         "def caller():\n"
                         "    return callee.helper()\n",
               package="net", name="entry")
        _plant(tmp_path, "def helper():\n    return 1\n",
               package="net", name="callee")
        code = main(["graph", str(tmp_path), "--focus", "repro.nothere"])
        assert code == 0
        assert "->" not in capsys.readouterr().out


class TestUpdateBaseline:
    def test_fresh_write_reports_stats_and_silences(self, tmp_path, capsys):
        _plant(tmp_path)
        baseline = tmp_path / "baseline.json"
        code = main([str(tmp_path), "--no-config",
                     "--baseline", str(baseline), "--update-baseline"])
        assert code == 0
        assert "1 added, 0 removed, 0 kept" in capsys.readouterr().out
        payload = json.loads(baseline.read_text())
        assert payload["version"] == 1
        (entry,) = payload["entries"].values()
        assert entry["rule"] == "CD201"
        assert entry["module"] == "repro.crypto.badmod"

    def test_fresh_write_drops_fixed_findings(self, tmp_path, capsys):
        _plant(tmp_path)
        baseline = tmp_path / "baseline.json"
        main([str(tmp_path), "--no-config",
              "--baseline", str(baseline), "--update-baseline"])
        # Fix the violation, re-write: the stale entry drops out.
        (tmp_path / "repro" / "crypto" / "badmod.py").write_text("x = 1\n")
        code = main([str(tmp_path), "--no-config",
                     "--baseline", str(baseline), "--update-baseline"])
        assert code == 0
        assert "0 added, 1 removed, 0 kept" in capsys.readouterr().out
        assert json.loads(baseline.read_text())["entries"] == {}

    def test_merge_keeps_unobserved_entries(self, tmp_path, capsys):
        _plant(tmp_path)
        baseline = tmp_path / "baseline.json"
        main([str(tmp_path), "--no-config",
              "--baseline", str(baseline), "--update-baseline"])
        # A second violation appears; --merge adds it while keeping the
        # first entry even though we now scan only the new file.
        other = _plant(tmp_path, "import random\n",
                       package="flock", name="alsobad")
        capsys.readouterr()
        code = main([str(other / "repro" / "flock"), "--no-config",
                     "--baseline", str(baseline),
                     "--update-baseline", "--merge"])
        assert code == 0
        assert "1 added, 0 removed, 1 kept" in capsys.readouterr().out
        entries = json.loads(baseline.read_text())["entries"]
        assert {e["module"] for e in entries.values()} == {
            "repro.crypto.badmod", "repro.flock.alsobad"}
        # The merged baseline silences the whole tree.
        code = main([str(tmp_path), "--no-config",
                     "--baseline", str(baseline)])
        assert code == 0
