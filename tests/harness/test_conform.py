"""The ``python -m repro.harness conform`` entry point."""

import json
import os
import subprocess
import sys

import pytest

from repro.harness.conform import main


class TestConformCli:
    def test_list_exits_zero(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "histogram" in out
        assert "smoke axis values" in out

    def test_single_config_token(self, capsys):
        rc = main(["--config", "workload=minmax,engine=thread,threads=3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 configs" in out
        assert "0 mismatches" in out

    def test_invalid_config_token_rejected(self):
        with pytest.raises(ValueError):
            main(["--config", "engine=thread"])

    def test_policy_token_with_an_uncarried_axis_is_refused(self):
        # A matrix config has no copy_input field: the run would silently
        # go without the copy the token asks for.
        with pytest.raises(SystemExit) as exc:
            main(["--policy", "histogram@engine=process,threads=2,copy=1"])
        assert exc.value.code != 0
        assert "copy" in str(exc.value.code)
        for axis in ("capacity=4", "hold=1", "fault=retry", "chunk=2"):
            with pytest.raises(SystemExit, match=axis.partition("=")[0]):
                main(["--policy", f"histogram@engine=thread,{axis}"])

    def test_policy_token_with_carried_axes_runs(self, capsys):
        rc = main(["--policy", "histogram@engine=process,threads=2,map=batch,block=512"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 configs" in out
        assert "0 mismatches" in out

    def test_workload_restriction_and_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["--workload", "minmax", "--max-configs", "4",
                   "--report", str(report)])
        assert rc == 0
        loaded = json.loads(report.read_text())
        assert loaded["ok"] is True
        assert loaded["configs"]
        assert loaded["mismatches"] == []
        assert "verify.configs_run" in loaded["counters"]
        assert all("workload=minmax" in fp for fp in loaded["configs"])

    def test_fuzz_seed_replay_path(self, capsys):
        rc = main(["--workload", "minmax", "--fuzz-seed", "4",
                   "--max-configs", "1"])
        assert rc == 0
        assert "fuzz schedules" in capsys.readouterr().out

    def test_module_dispatch(self):
        # `python -m repro.harness conform --list` must route to the
        # conformance CLI, not the figure runner.
        proc = subprocess.run(
            [sys.executable, "-m", "repro.harness", "conform", "--list"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0
        assert "conformance workloads" in proc.stdout
