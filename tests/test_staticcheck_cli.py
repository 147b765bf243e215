"""CLI tests for ``python -m repro.staticcheck`` / tools wrapper."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.staticcheck.__main__ import _with_service_closure, main


class TestLintCli:
    def test_repo_lint_exits_clean(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_explicit_dirty_path_fails(self, tmp_path, capsys):
        bad = tmp_path / "dirty.py"
        bad.write_text("import random\n")
        assert main([str(bad)]) == 1
        assert "L101" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "dirty.py"
        bad.write_text("import os\nv = os.environ.get('X')\n")
        assert main(["--format", "json", str(bad)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"]["error"] == 1
        assert doc["findings"][0]["rule"] == "L104"

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        warn = tmp_path / "repro" / "frontend" / "newbuf.py"
        warn.parent.mkdir(parents=True)
        warn.write_text("class NewBuffer:\n    pass\n")
        assert main([str(warn)]) == 0
        assert main(["--strict", str(warn)]) == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("P101", "P108", "C101", "L101", "L107", "A101", "A106", "U101"):
            assert rule in out

    def test_json_format_carries_service_findings(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "service" / "mini.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\nasync def f():\n    time.sleep(1)\n")
        assert main(["--format", "json", str(bad)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["rule"] == "A101"
        assert doc["findings"][0]["severity"] == "error"

    def test_usage_errors(self, capsys):
        assert main(["--apps", "wordpress"]) == 2
        assert main(["--no-lint", "somefile.py"]) == 2
        assert main(["--changed", "somefile.py"]) == 2
        assert main(["--changed", "--no-lint"]) == 2

    def test_unknown_app_is_clean_error(self, capsys):
        assert main(["--check-plans", "--no-lint", "--apps", "nope"]) == 2
        assert "unknown app" in capsys.readouterr().err


class TestUnusedSuppressionsCli:
    def test_stale_site_warns_and_gates_under_strict(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("x = 1  # staticcheck: disable=L101\n")
        assert main([str(path)]) == 0  # off by default
        assert main(["--report-unused-suppressions", str(path)]) == 0
        assert (
            main(["--report-unused-suppressions", "--strict", "--verbose", str(path)])
            == 1
        )
        assert "U101" in capsys.readouterr().out

    def test_live_site_is_quiet(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("import random  # staticcheck: disable=L101\nprint(random)\n")
        assert main(["--report-unused-suppressions", "--strict", str(path)]) == 0


class TestChangedMode:
    def _git(self, cwd, *args):
        subprocess.run(
            ["git", *args],
            cwd=cwd,
            check=True,
            capture_output=True,
            env={
                "PATH": "/usr/bin:/bin",
                "GIT_AUTHOR_NAME": "t",
                "GIT_AUTHOR_EMAIL": "t@t",
                "GIT_COMMITTER_NAME": "t",
                "GIT_COMMITTER_EMAIL": "t@t",
                "HOME": str(cwd),
            },
        )

    def _repo(self, tmp_path):
        self._git(tmp_path, "init", "-q", "-b", "main")
        src = tmp_path / "src" / "pkg"
        src.mkdir(parents=True)
        (src / "clean.py").write_text("x = 1\n")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        return src

    def test_changed_lints_only_the_diff(self, tmp_path, monkeypatch, capsys):
        src = self._repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["--changed"]) == 0
        assert "no changed source files" in capsys.readouterr().err

        (src / "clean.py").write_text("import random\nx = 1\n")
        (src / "untracked.py").write_text("def f(a=[]):\n    return a\n")
        (tmp_path / "outside.py").write_text("import random\n")  # not under src/
        assert main(["--changed"]) == 1
        out = capsys.readouterr().out
        assert "L101" in out and "L106" in out
        assert "outside.py" not in out

    def test_changed_base_without_merge_base_is_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        self._repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["--changed", "--changed-base", "no-such-ref"]) == 2
        assert "no merge base" in capsys.readouterr().err

    def test_service_change_pulls_in_layer3_closure(self):
        files = [Path("src/repro/service/server.py")]
        closure = {p.name for p in _with_service_closure(list(files))}
        assert {"server.py", "service", "errors.py", "parallel.py"} <= closure
        # Non-service changes stay minimal: no closure expansion.
        alone = [Path("src/repro/config.py")]
        assert _with_service_closure(list(alone)) == alone


@pytest.mark.slow
class TestCheckPlansCli:
    def test_check_plans_wordpress(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE_INSTRUCTIONS", "20000")
        assert main(["--check-plans", "--no-lint", "--apps", "wordpress"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
