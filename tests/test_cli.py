"""Tests for the command-line entry point."""

import os
import subprocess
import sys

import pytest

from svilab.cli import main

GOOD_CFG = """\
[problem]
kind = affine
n = 3
mu = 1.0
lipschitz = 2.0
noise = 0.5

[run]
budget = 2000
seeds = 0,1

[scheme.vs_ave]
"""

BAD_RHO_CFG = GOOD_CFG.replace("lipschitz = 2.0", "lipschitz = 3.0") + "rho = 0.9\n"


@pytest.fixture
def good_cfg(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CFG)
    return str(path)


class TestRunCommand:
    def test_success_prints_summary(self, good_cfg, tmp_path, capsys):
        out = str(tmp_path / "res")
        assert main(["run", good_cfg, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "vs_ave (median final)" in stdout
        names = os.listdir(out)
        assert "summary.csv" in names
        assert "vs_ave_L2_lamna_seed0.csv" in names

    def test_config_error_exit_code_and_message(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(BAD_RHO_CFG)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: rho must be < 1 - 1/(kappa+2) = 0.8;"
                       " got 0.9\n")

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_seed_override(self, good_cfg, tmp_path, capsys):
        out = str(tmp_path / "res")
        assert main(["run", good_cfg, "--seeds", "5", "--out", out]) == 0
        cells = [n for n in os.listdir(out) if n != "summary.csv"]
        assert cells == ["vs_ave_L2_lamna_seed5.csv"]

    def test_budget_override_accepts_scientific(self, good_cfg, tmp_path,
                                                capsys):
        out = str(tmp_path / "res")
        assert main(["run", good_cfg, "--budget", "1e3", "--out", out]) == 0
        capsys.readouterr()

    def test_bad_overrides(self, good_cfg, capsys):
        assert main(["run", good_cfg, "--seeds", "a,b"]) == 2
        assert "cannot parse --seeds" in capsys.readouterr().err
        assert main(["run", good_cfg, "--seeds", "1,1"]) == 2
        assert "distinct" in capsys.readouterr().err
        assert main(["run", good_cfg, "--budget", "x"]) == 2
        assert "cannot parse --budget" in capsys.readouterr().err
        assert main(["run", good_cfg, "--budget", "-5"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_infinite_budget_exit_code(self, good_cfg, capsys):
        assert main(["run", good_cfg, "--budget", "inf"]) == 2
        assert capsys.readouterr().err == (
            "config error: cannot parse --budget 'inf'\n"
        )

    def test_bad_thread_count_exit_code(self, good_cfg, monkeypatch, capsys):
        monkeypatch.setenv("SVILAB_THREADS", "4 workers")
        assert main(["run", good_cfg]) == 2
        assert capsys.readouterr().err == (
            "config error: SVILAB_THREADS must be a positive integer;"
            " got '4 workers'\n"
        )


class TestSummarizeCommand:
    def test_reaggregates_existing_run(self, good_cfg, tmp_path, capsys):
        out = str(tmp_path / "res")
        main(["run", good_cfg, "--out", out])
        first = capsys.readouterr().out
        os.remove(os.path.join(out, "summary.csv"))
        assert main(["summarize", out]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert os.path.exists(os.path.join(out, "summary.csv"))

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path)]) == 2
        assert "no trace CSVs found" in capsys.readouterr().err


class TestSubprocessInvocation:
    def test_module_entry_point(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(GOOD_CFG)
        out = tmp_path / "res"
        result = subprocess.run(
            [sys.executable, "-m", "svilab.cli", "run", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert "vs_ave (median final)" in result.stdout

    def test_exit_code_on_bad_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BAD_RHO_CFG)
        result = subprocess.run(
            [sys.executable, "-m", "svilab.cli", "run", str(cfg)],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 2
        assert "config error" in result.stderr

    def test_parallel_run_matches_serial(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(GOOD_CFG)
        outputs = {}
        for label, threads in (("serial", "1"), ("parallel", "2")):
            out = tmp_path / label
            env = dict(os.environ, SVILAB_THREADS=threads)
            result = subprocess.run(
                [sys.executable, "-m", "svilab.cli", "run", str(cfg),
                 "--out", str(out)],
                capture_output=True, text=True, timeout=300, env=env,
            )
            assert result.returncode == 0
            outputs[label] = {
                name: (out / name).read_bytes() for name in os.listdir(out)
            }
        assert outputs["serial"] == outputs["parallel"]
