"""Tests for the command-line entry point."""

import os
import subprocess
import sys

import pytest

from svilab.bench import parse_config
from svilab.cli import main
from svilab.errors import ConfigError
from svilab.trace import CSV_HEADER

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

BIMATRIX_CFG = """\
[problem]
kind = bimatrix
n = 2
m = 2
lipschitz = 2.0
noise = 0.1

[run]
budget = 4000
seeds = 0

[scheme.extragradient]
"""

# a 10 x 20 game whose extragradient batches grow past 81 samples, that
# is past one sample block; one row, so its runs share no tape and each
# fills its own two streams
PAST_BLOCK_CFG = """\
[problem]
kind = bimatrix
n = 20
m = 10
lipschitz = 7.05
noise = 0.1

[run]
budget = 20000
seeds = 0,1

[scheme.extragradient]
"""

# two rows of a game, PPAWSS and extragradient: the extragradient rows of
# a seed form one group of the process pool, whose second cell replays
# the batches the first prepared
GROUPED_CFG = """\
[problem]
kind = bimatrix
n = 6
m = 4
lipschitz = 3.0, 30.0
noise = 0.1
seed = 5

[run]
budget = 20000
seeds = 0,1

[scheme.ppawss]
lambda = 20, 4

[scheme.extragradient]
"""

BAD_RHO_CFG = GOOD_CFG.replace("lipschitz = 2.0", "lipschitz = 3.0") + "rho = 0.9\n"

GOLDEN_AFFINE = os.path.join(os.path.dirname(__file__), "fixtures", "golden",
                             "affine.cfg")


def read_tree(path):
    return {name: (path / name).read_bytes() for name in os.listdir(path)}


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

    def test_an_empty_out_is_refused(self, good_cfg, tmp_path, capsys,
                                     monkeypatch):
        # an empty path would write the cells and summary.csv into the
        # working directory, over a summary.csv there
        monkeypatch.chdir(tmp_path)
        (tmp_path / "summary.csv").write_text("keep\n")
        assert main(["run", good_cfg, "--out", ""]) == 2
        assert capsys.readouterr().err == \
            "config error: --out must name a directory\n"
        path = tmp_path / "empty-out.cfg"
        path.write_text(GOOD_CFG.replace("[run]\n", "[run]\nout =\n"))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == \
            "config error: line 9: out must name a directory\n"
        assert sorted(os.listdir(tmp_path)) == ["empty-out.cfg", "exp.cfg",
                                                "summary.csv"]
        assert (tmp_path / "summary.csv").read_text() == "keep\n"

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

    def test_budget_override_parses_like_the_config(self):
        # the flag's value goes through the file value's own parse: 2e6
        # is accepted and a fractional budget refused, not floored; only
        # the message differs, naming the flag
        in_file = GOOD_CFG.replace("budget = 2000", "budget = {}")
        assert parse_config(GOOD_CFG, {"budget": "2e6"}) == \
            parse_config(in_file.format("2e6"))
        assert parse_config(GOOD_CFG, {"budget": "2e6"}).budget == 2_000_000
        with pytest.raises(ConfigError,
                           match=r"^line 9: cannot parse '2000\.7' as int$"):
            parse_config(in_file.format("2000.7"))
        with pytest.raises(ConfigError,
                           match=r"^cannot parse --budget '2000\.7'$"):
            parse_config(GOOD_CFG, {"budget": "2000.7"})

    def test_an_override_outside_run_is_refused(self):
        # only [run] values have flags; [problem]'s seed is not one
        for key in ("seed", "lipschitz", "bogus"):
            with pytest.raises(ConfigError, match=rf"^unknown option --{key};"
                               " the flags are --budget, --seeds, --out$"):
                parse_config(GOOD_CFG, {key: "1"})

    def test_bad_overrides(self, tmp_path, capsys):
        # a flag value is parsed and checked like the [run] value it
        # replaces, and the message names the flag, not a file line
        out = tmp_path / "res"
        for flag, message in [
            ("--seeds=a,b", "cannot parse --seeds 'a,b'"),
            ("--seeds=1,1", "--seeds must be distinct"),
            ("--seeds=-1,0", "--seeds must lie in [0, 2**64); got -1"),
            ("--budget=x", "cannot parse --budget 'x'"),
            ("--budget=2000.7", "cannot parse --budget '2000.7'"),
            ("--budget=inf", "cannot parse --budget 'inf'"),
            ("--budget=-5", "budget must be positive; got -5"),
            ("--budget=1", "budget 1 cannot pay for the first step of vs_ave"
                           " on row 0 (L = 10): it costs 2 oracle calls"),
        ]:
            assert main(["run", GOLDEN_AFFINE, flag, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("old, new", [
        ("budget = 200000", "budget = 1"),
        ("budget = 200000", ""),
        ("seeds = 0,1", "seeds = 0,0"),
    ], ids=["budget-too-small", "budget-missing", "seeds-repeated"])
    def test_overrides_replace_file_values_before_checks(self, old, new,
                                                         tmp_path, capsys):
        # the flags carry the golden file's own values, so the run must
        # equal the plain file's byte for byte, whatever the file held
        with open(GOLDEN_AFFINE, encoding="utf-8") as fh:
            text = fh.read()
        assert old in text
        path = tmp_path / "edited.cfg"
        path.write_text(text.replace(old, new))
        assert main(["run", GOLDEN_AFFINE, "--out",
                     str(tmp_path / "plain")]) == 0
        assert main(["run", str(path), "--budget", "200000", "--seeds", "0,1",
                     "--out", str(tmp_path / "flags")]) == 0
        capsys.readouterr()
        assert read_tree(tmp_path / "flags") == read_tree(tmp_path / "plain")

    @pytest.mark.parametrize("seeds", ["-1,0", "0,18446744073709551616"])
    def test_seed_override_outside_64_bits(self, seeds, good_cfg, tmp_path,
                                           capsys):
        out = tmp_path / "res"
        assert main(["run", good_cfg, f"--seeds={seeds}", "--out",
                     str(out)]) == 2
        bad = seeds.split(",")[0 if seeds.startswith("-") else 1]
        assert capsys.readouterr().err == (
            f"config error: --seeds must lie in [0, 2**64); got {bad}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["1", "3"])
    def test_budget_below_first_step_exit_code(self, budget, tmp_path, capsys):
        # on the golden affine config a budget of 1 cannot pay for a
        # VS-Ave step (2 calls), 3 not for an extragradient step (4 calls)
        out = tmp_path / "res"
        assert main(["run", GOLDEN_AFFINE, "--budget", budget, "--out",
                     str(out)]) == 2
        assert "cannot pay for the first step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        (GOOD_CFG.replace("noise = 0.5", "noise = -1"),
         "sigma must be nonnegative"),
        (BIMATRIX_CFG.replace("noise = 0.1", "noise = -1"),
         "noise_scale must be nonnegative"),
        (GOOD_CFG.replace("n = 3", "n = 0"), "n must be at least 1"),
        (BIMATRIX_CFG.replace("m = 2", "m = 0"), "n and m must be at least 1"),
        (GOOD_CFG.replace("mu = 1.0", "mu = 3.0").replace(
            "[scheme.vs_ave]", "[scheme.extragradient]"),
         "need 0 < mu <= lipschitz"),
        # VS-Ave's default rho is derived from kappa = L / mu = 2/3
        (GOOD_CFG.replace("mu = 1.0", "mu = 3.0"),
         "kappa must be >= 1; got 0.6666666666666666"),
        (BIMATRIX_CFG.replace("noise = 0.1", "noise = 0.1\nreference_tol = 0"),
         "tol must be positive"),
    ], ids=["affine-noise", "bimatrix-noise", "n", "m", "mu-above-L",
            "mu-above-L-default-rho", "reference-tol"])
    def test_invalid_problem_value_exit_code(self, text, message, tmp_path,
                                             capsys):
        # the problem constructors' own checks, reported before any output
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "res"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

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

    def test_malformed_trace_exit_code(self, tmp_path, capsys):
        # a non-numeric field used to escape as a bare ValueError (exit 1)
        (tmp_path / "vs_ave_L2_lamna_seed0.csv").write_text(
            CSV_HEADER + "\nvs_ave,0,1,0,2,oops,,,,,false\n")
        assert main(["summarize", str(tmp_path)]) == 3
        assert "non-numeric field" in capsys.readouterr().err

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

    def test_serial_run_loads_no_pool_within_or_past_a_block(self, tmp_path):
        # in a fresh interpreter, as pytest may have imported both modules.
        # A serial run prepares both streams on its own thread, whether its
        # batches stay within a sample block or pass it, so it imports
        # neither pool and ends with the one thread it started with
        script = (
            "import sys, threading\n"
            "from dataclasses import replace\n"
            "from svilab.bench import parse_config, run_experiment\n"
            "for path in sys.argv[1:]:\n"
            "    with open(path) as fh:\n"
            "        config = parse_config(fh.read())\n"
            "    run_experiment(replace(config, output_path=path + '.out'))\n"
            "    print([m for m in ('multiprocessing', 'concurrent.futures')\n"
            "           if m in sys.modules], threading.active_count())\n")
        paths = []
        for name, text in (
                ("within", BIMATRIX_CFG + "\n[scheme.ppawss]\nlambda = 5.0\n"),
                ("past", PAST_BLOCK_CFG)):
            paths.append(tmp_path / f"{name}.cfg")
            paths[-1].write_text(text)
        env = dict(os.environ)
        env.pop("SVILAB_THREADS", None)
        result = subprocess.run([sys.executable, "-c", script, *paths],
                                capture_output=True, text=True, timeout=120,
                                env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[] 1", "[] 1"]

    def test_parallel_run_matches_serial(self, tmp_path):
        for name, text in (("affine", GOOD_CFG),
                           ("past_block", PAST_BLOCK_CFG),
                           ("grouped", GROUPED_CFG)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            outputs = {}
            for label, threads in (("serial", "1"), ("parallel", "2")):
                out = tmp_path / name / label
                env = dict(os.environ, SVILAB_THREADS=threads)
                result = subprocess.run(
                    [sys.executable, "-m", "svilab.cli", "run", str(cfg),
                     "--out", str(out)],
                    capture_output=True, text=True, timeout=300, env=env,
                )
                assert result.returncode == 0, name
                outputs[label] = read_tree(out)
            assert outputs["serial"] == outputs["parallel"], name
