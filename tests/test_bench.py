"""Tests for config parsing, experiment runs, and summaries."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from svilab import (
    BudgetCounter,
    ConfigError,
    ExtragradientConfig,
    VsAveConfig,
    make_affine_strongly_monotone,
    parse_config,
    run_experiment,
    run_extragradient,
    run_ppawss,
    run_vs_ave,
    summarize,
)
from svilab.bench import _solver_config, _worker_count
from svilab.extragradient import eg_sample_size
from svilab.schedule import steps_within
from svilab.trace import Recorder, RunTrace, TraceRow
from svilab.vs_ave import sample_size

AFFINE_CFG = """\
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
seeds = 0,1

[scheme.ppawss]
lambda = 5.0

[scheme.extragradient]
"""


class TestParsing:
    def test_minimal_affine_defaults(self):
        config = parse_config(AFFINE_CFG)
        assert config.kind == "affine"
        assert config.schemes == ("vs_ave",)
        assert config.noise_scale == 0.5
        assert config.problem_seed == 0
        assert config.output_path == "results"
        params = config.scheme_params["vs_ave"]
        assert params["rho"] is None
        assert params["q_rule"] == "kappa_plus_2"
        assert params["min_batch"] == 1

    def test_comments_and_blanks_ignored(self):
        text = AFFINE_CFG.replace("[run]", "# leading comment\n\n[run]")
        text = text.replace("budget = 2000", "budget = 2000  # trailing")
        assert parse_config(text).budget == 2000

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[scheme\.sgd\]"):
            parse_config(AFFINE_CFG + "\n[scheme.sgd]\n")

    def test_unknown_key_names_line(self):
        bad = AFFINE_CFG.replace("noise = 0.5", "noize = 0.5")
        with pytest.raises(ConfigError, match="line 6: unknown key 'noize'"):
            parse_config(bad)

    @pytest.mark.parametrize("section, key", [
        ("vs_ave", "iterations"), ("extragradient", "iterations"),
        ("ppawss", "outer_iterations"), ("ppawss", "warm_start")])
    def test_run_length_keys_are_unknown(self, section, key):
        # every cell runs what its budget pays for, from a warm start
        header = f"[scheme.{section}]\n"
        text = ALL_SCHEMES_CFG.replace(header, f"{header}{key} = 1\n")
        line = text.splitlines().index(f"{key} = 1") + 1
        with pytest.raises(ConfigError, match=(
                rf"^line {line}: unknown key '{key}'"
                rf" in \[scheme\.{section}\]$")):
            parse_config(text)

    def test_duplicate_key(self):
        bad = AFFINE_CFG.replace("noise = 0.5", "noise = 0.5\nnoise = 0.6")
        with pytest.raises(ConfigError, match="duplicate key 'noise'"):
            parse_config(bad)

    def test_duplicate_section(self):
        with pytest.raises(ConfigError, match=r"duplicate section \[run\]"):
            parse_config(AFFINE_CFG + "\n[run]\nbudget = 5\n")

    def test_malformed_value(self):
        bad = AFFINE_CFG.replace("n = 3", "n = three")
        with pytest.raises(ConfigError, match="cannot parse 'three' as int"):
            parse_config(bad)

    def test_infinite_integer_rejected(self):
        for old, new in (("budget = 2000", "budget = inf"), ("n = 3", "n = inf")):
            bad = AFFINE_CFG.replace(old, new)
            with pytest.raises(ConfigError, match="cannot parse 'inf' as int"):
                parse_config(bad)

    def test_bool_values(self, tmp_path):
        eg_cfg = AFFINE_CFG.replace("[scheme.vs_ave]", "[scheme.extragradient]")
        traces = {}
        for raw, want in (("true", True), ("False", False)):
            text = eg_cfg.replace("seeds = 0,1", f"seeds = 0\nout = {raw}")
            config = parse_config(text + f"averaged = {raw}\n")
            assert config.scheme_params["extragradient"]["averaged"] is want
            run_experiment(config, base_dir=str(tmp_path))
            traces[want] = (tmp_path / raw / "extragradient_L2_lamna_seed0.csv"
                            ).read_bytes()
        # the averaged iterate is recorded, not the last one
        assert traces[True] != traces[False]
        with pytest.raises(ConfigError,
                           match="line 13: cannot parse 'yes' as bool"):
            parse_config(eg_cfg + "averaged = yes\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="key outside any section"):
            parse_config("budget = 5\n" + AFFINE_CFG)

    def test_unterminated_header(self):
        with pytest.raises(ConfigError, match="unterminated section header"):
            parse_config(AFFINE_CFG.replace("[run]", "[run"))

    def test_missing_required_sections(self):
        with pytest.raises(ConfigError, match=r"missing \[problem\] section"):
            parse_config("[run]\nbudget = 5\nseeds = 0\n[scheme.vs_ave]\n")
        with pytest.raises(ConfigError, match=r"missing \[run\] section"):
            parse_config("[problem]\nkind = affine\nn = 2\nmu = 1.0\n"
                         "lipschitz = 1.0\n[scheme.vs_ave]\n")

    def test_missing_scheme_section(self):
        text = AFFINE_CFG.replace("[scheme.vs_ave]\n", "")
        with pytest.raises(ConfigError, match="at least one"):
            parse_config(text)

    def test_missing_required_key(self):
        bad = AFFINE_CFG.replace("lipschitz = 2.0\n", "")
        with pytest.raises(ConfigError, match="missing required key 'lipschitz'"):
            parse_config(bad)

    def test_kind_cross_checks(self):
        with pytest.raises(ConfigError, match="requires key 'm'"):
            parse_config(BIMATRIX_CFG.replace("m = 2\n", ""))
        with pytest.raises(ConfigError, match="'mu' applies only to affine"):
            parse_config(BIMATRIX_CFG.replace("m = 2", "m = 2\nmu = 1.0"))
        with pytest.raises(ConfigError, match="requires key 'mu'"):
            parse_config(AFFINE_CFG.replace("mu = 1.0\n", ""))
        with pytest.raises(ConfigError, match="'m' applies only to bimatrix"):
            parse_config(AFFINE_CFG.replace("n = 3", "n = 3\nm = 2"))
        with pytest.raises(ConfigError, match="kind must be"):
            parse_config(AFFINE_CFG.replace("kind = affine", "kind = saddle"))

    def test_run_constraints(self):
        with pytest.raises(ConfigError, match="budget must be positive"):
            parse_config(AFFINE_CFG.replace("budget = 2000", "budget = 0"))
        with pytest.raises(ConfigError, match="seeds must be distinct"):
            parse_config(AFFINE_CFG.replace("seeds = 0,1", "seeds = 0,0"))

    def test_seeds_outside_64_bits_rejected(self):
        # a negative trial seed split one cell into two summary rows, and
        # 2**64 aliased seed 0 in the 64-bit keyed sample streams
        for seeds, bad in (("-1, 0", -1), ("0, 18446744073709551616", 2**64)):
            text = AFFINE_CFG.replace("seeds = 0,1", f"seeds = {seeds}")
            with pytest.raises(ConfigError, match=(
                    rf"line 10: seeds must lie in \[0, 2\*\*64\); got {bad}$")):
                parse_config(text)
        # a negative problem seed reached numpy's seeding as a ValueError
        text = AFFINE_CFG.replace("noise = 0.5", "noise = 0.5\nseed = -3")
        with pytest.raises(ConfigError,
                           match=r"line 7: seed must lie in .*; got -3$"):
            parse_config(text)

    def test_largest_seeds_parse_exactly(self):
        top = 2**64 - 1
        text = AFFINE_CFG.replace("noise = 0.5", f"noise = 0.5\nseed = {top}")
        config = parse_config(text.replace("seeds = 0,1", f"seeds = 0,{top}"))
        assert config.problem_seed == top
        assert config.seeds == (0, top)

    def test_per_row_list_broadcast(self):
        text = BIMATRIX_CFG.replace("lipschitz = 2.0", "lipschitz = 2.0,4.0,8.0")
        config = parse_config(text)
        assert config.scheme_params["ppawss"]["lambda"] == (5.0, 5.0, 5.0)

    def test_per_row_list_length_mismatch(self):
        text = BIMATRIX_CFG.replace("lipschitz = 2.0", "lipschitz = 2.0,4.0,8.0")
        text = text.replace("lambda = 5.0", "lambda = 5.0,6.0")
        with pytest.raises(ConfigError, match="needs 1 or 3 values"):
            parse_config(text)

    def test_rows_sharing_a_cell_label_rejected(self):
        # both rows would write extragradient_L2_lamna_seed{s}.csv, and
        # the summary would merge them into one row
        text = BIMATRIX_CFG.replace("[scheme.ppawss]\nlambda = 5.0\n\n", "")
        text = text.replace("lipschitz = 2.0",
                            "lipschitz = 2.0000001, 2.0000002")
        with pytest.raises(ConfigError, match=(
                r"^line 5: rows 0 and 1 share the cell label L = 2,"
                r" lambda = na; their trace files would collide$")):
            parse_config(text)
        # one L under two lambdas keeps two labels
        text = BIMATRIX_CFG.replace("lipschitz = 2.0", "lipschitz = 2.0, 2.0")
        text = text.replace("lambda = 5.0", "lambda = 5.0, 6.0")
        assert parse_config(text).lipschitz == (2.0, 2.0)

    def test_vs_ave_rejected_on_bimatrix(self):
        text = BIMATRIX_CFG + "\n[scheme.vs_ave]\n"
        with pytest.raises(ConfigError, match="strongly monotone"):
            parse_config(text)
        with pytest.raises(ConfigError, match="strongly monotone"):
            parse_config(AFFINE_CFG.replace("mu = 1.0", "mu = 0"))

    def test_rho_bound_surfaced_with_values(self):
        # kappa = L/mu = 3 turns into the 0.8 bound at parse time
        text = AFFINE_CFG.replace("lipschitz = 2.0", "lipschitz = 3.0")
        text += "rho = 0.9\n"
        with pytest.raises(
            ConfigError,
            match=r"rho must be < 1 - 1/\(kappa\+2\) = 0\.8; got 0\.9",
        ):
            parse_config(text)

    def test_stepsize_bound_surfaced(self):
        text = BIMATRIX_CFG + "stepsize = 1.0\n"
        with pytest.raises(ConfigError,
                           match=r"stepsize must be < 1/\(sqrt\(6\)\*L\)"):
            parse_config(text)

    def test_shipped_benchmark_config(self):
        with open(os.path.join(os.path.dirname(__file__), "..", "configs",
                               "table1.cfg")) as fh:
            config = parse_config(fh.read())
        assert config.kind == "bimatrix"
        assert (config.n, config.m) == (20, 10)
        assert config.lipschitz == (7.05, 70.5, 705.0)
        assert config.schemes == ("ppawss", "extragradient")
        assert config.scheme_params["ppawss"]["lambda"] == (3500.0, 1200.0, 40.0)
        assert config.budget == 10**7
        assert config.seeds == tuple(range(10))


class TestSolverDerivation:
    def test_default_rho_follows_q_rule(self):
        config = parse_config(AFFINE_CFG)
        solver = _solver_config(config, "vs_ave", 0)
        # kappa = 2: default rho is (1 - 1/4)^1.001
        assert solver.rho == pytest.approx(0.75**1.001, rel=1e-12)
        alt = parse_config(AFFINE_CFG + "q_rule = kappa_plus_1\n")
        solver_alt = _solver_config(alt, "vs_ave", 0)
        assert solver_alt.rho == pytest.approx((2.0 / 3.0) ** 1.001, rel=1e-12)

    def test_iterations_within_budget(self):
        limit = 1000
        schedules = [
            (VsAveConfig(mu=1.0, lipschitz=10.0, rho=0.75,
                         max_iterations=2**31),
             lambda k: sample_size(k, 0.75, 1)),
            (ExtragradientConfig(stepsize=0.1),
             lambda k: eg_sample_size(k, 1.0, 2.001, 1e-3)),
        ]
        for solver, size in schedules:
            iters = steps_within(solver.schedule, limit)
            used = sum(2 * size(k) for k in range(iters))
            overshoot = used + 2 * size(iters)
            assert used <= limit < overshoot

    def test_budget_bound_cells_run_what_the_budget_pays_for(self, tmp_path):
        config = parse_config(AFFINE_CFG.replace(
            "seeds = 0,1", f"seeds = 0,1\nout = {tmp_path}/res")
            + "\n[scheme.extragradient]\n")
        run_experiment(config)
        for scheme in ("vs_ave", "extragradient"):
            steps = steps_within(_solver_config(config, scheme, 0).schedule,
                                 config.budget)
            for seed in (0, 1):
                trace = RunTrace.read_csv(
                    tmp_path / "res" / f"{scheme}_L2_lamna_seed{seed}.csv")
                assert trace.final.outer_k == steps
                assert not trace.truncated

    def test_flat_cell_computes_each_batch_size_once(self, tmp_path,
                                                      monkeypatch):
        # the budget walk and the run it sizes share one list of sizes
        computed = []

        def counted(k, rho, min_batch=1):
            computed.append(k)
            return sample_size(k, rho, min_batch)

        monkeypatch.setattr("svilab.vs_ave.sample_size", counted)
        config = parse_config(AFFINE_CFG.replace(
            "seeds = 0,1", f"seeds = 0\nout = {tmp_path}/res"))
        run_experiment(config)
        trace = RunTrace.read_csv(tmp_path / "res" / "vs_ave_L2_lamna_seed0.csv")
        # the walk also computes the first size the budget cannot pay for
        assert sorted(computed) == list(range(trace.final.outer_k + 1))

    def test_budget_below_first_step_rejected(self):
        # a first step costs 2 * min_batch (VS-Ave), 2 * eg_sample_size(0)
        # = 4 here (extragradient), or the whole first subproblem of
        # min_inner steps (PPAWSS)
        cases = [
            (AFFINE_CFG.replace("budget = 2000", "budget = 5")
             + "min_batch = 3\n", 5, "vs_ave", 6),
            (BIMATRIX_CFG.replace("budget = 4000", "budget = 1"),
             1, "ppawss", 2),
            (BIMATRIX_CFG.replace("budget = 4000", "budget = 5").replace(
                "lambda = 5.0", "lambda = 5.0\nmin_inner = 3"),
             5, "ppawss", 6),
            (BIMATRIX_CFG.replace("budget = 4000", "budget = 3"),
             3, "extragradient", 4),
        ]
        for text, budget, scheme, cost in cases:
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert str(err.value) == (
                f"budget {budget} cannot pay for the first step of {scheme}"
                f" on row 0 (L = 2): it costs {cost} oracle calls"
            )
        assert parse_config(BIMATRIX_CFG.replace("budget = 4000",
                                                 "budget = 4")).budget == 4
        with pytest.raises(ConfigError, match="extragradient on row 0 .L = 2.:"
                           " batch sizes overflow within the first step"):
            parse_config(BIMATRIX_CFG + "theta = 1e308\n")
        # rho^-k passes 2**62 near k = 106, before the 1000th inner step
        with pytest.raises(ConfigError, match="ppawss on row 0 .L = 2.: batch"
                           " sizes overflow within the first step"):
            parse_config(BIMATRIX_CFG.replace(
                "lambda = 5.0", "lambda = 0.001\nmin_inner = 1000"))


class TestWorkerCount:
    def test_unset_or_blank_is_serial(self):
        assert _worker_count(None, groups=8) == 1
        assert _worker_count("", groups=8) == 1
        assert _worker_count("  ", groups=8) == 1

    @pytest.mark.parametrize("raw", ["two", "1.5", "2x", "0", "-3"])
    def test_bad_values_rejected(self, raw):
        with pytest.raises(ConfigError, match="SVILAB_THREADS must be a positive"):
            _worker_count(raw, groups=8)

    def test_clamped_to_cells_and_cores(self, monkeypatch):
        # clamped to the groups of cells and to the usable cores
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert _worker_count("3", groups=8) == 3
        assert _worker_count("1000000000", groups=8) == 4
        assert _worker_count("64", groups=2) == 2
        assert _worker_count("1", groups=8) == 1

    def test_unknown_core_count_means_one(self, monkeypatch):
        # without an affinity call the machine's core count clamps
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count("8", groups=8) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _worker_count("8", groups=8) == 3

    def test_clamped_to_the_cores_the_process_may_use(self, monkeypatch):
        # a process barred from all but one of 8 cores runs one worker
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5},
                            raising=False)
        assert _worker_count("8", groups=8) == 1

    def test_run_experiment_rejects_before_any_work(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SVILAB_THREADS", "lots")
        config = parse_config(BIMATRIX_CFG.replace(
            "seeds = 0,1", f"seeds = 0,1\nout = {tmp_path}/res"))
        with pytest.raises(ConfigError, match="SVILAB_THREADS"):
            run_experiment(config)
        assert not os.path.exists(tmp_path / "res")


class TestRunExperiment:
    def test_matrix_of_cells(self, tmp_path):
        config = parse_config(BIMATRIX_CFG.replace(
            "seeds = 0,1", f"seeds = 0,1\nout = {tmp_path}/res"))
        text = run_experiment(config)
        names = sorted(os.listdir(tmp_path / "res"))
        assert "summary.csv" in names
        for scheme in ("ppawss", "extragradient"):
            for seed in (0, 1):
                assert f"{scheme}_L2_lam5_seed{seed}.csv" in names
        assert "ppawss (median final)" in text
        assert "extragradient (median final)" in text

    def test_budget_fairness_and_ledger(self, tmp_path):
        config = parse_config(BIMATRIX_CFG.replace(
            "seeds = 0,1", f"seeds = 0\nout = {tmp_path}/res"))
        run_experiment(config)
        for name in os.listdir(tmp_path / "res"):
            if name == "summary.csv":
                continue
            trace = RunTrace.read_csv(tmp_path / "res" / name)
            assert trace.final.calls <= config.budget

    def test_reruns_byte_identical(self, tmp_path):
        for out in ("a", "b"):
            config = parse_config(BIMATRIX_CFG.replace(
                "seeds = 0,1", f"seeds = 0,1\nout = {tmp_path}/{out}"))
            run_experiment(config)
        for name in os.listdir(tmp_path / "a"):
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            assert first == second, name

    def test_seeds_differ(self, tmp_path):
        config = parse_config(BIMATRIX_CFG.replace(
            "seeds = 0,1", f"seeds = 0,1\nout = {tmp_path}/res"))
        run_experiment(config)
        a = RunTrace.read_csv(tmp_path / "res" / "ppawss_L2_lam5_seed0.csv")
        b = RunTrace.read_csv(tmp_path / "res" / "ppawss_L2_lam5_seed1.csv")
        assert a.final.saddle_gap != b.final.saddle_gap


ALL_SCHEMES_CFG = """\
[problem]
kind = affine
n = 3
mu = 1.0
lipschitz = 2.0
noise = 0.5

[run]
budget = 20000
seeds = 3

[scheme.vs_ave]

[scheme.ppawss]
lambda = 5.0

[scheme.extragradient]
"""


@pytest.mark.parametrize("scheme", ["vs_ave", "ppawss", "extragradient"])
def test_seed_keys_the_run(scheme, tmp_path):
    """A solver's ``seed`` picks its samples, and a harness cell is the
    solver called directly with the cell's seed: the cell's config, sized
    to its budget, and the cell's trace cadence."""
    run = {"vs_ave": run_vs_ave, "ppawss": run_ppawss,
           "extragradient": run_extragradient}[scheme]
    config = parse_config(ALL_SCHEMES_CFG.replace(
        "seeds = 3", f"seeds = 3\nout = {tmp_path}/res"))
    solver = _solver_config(config, scheme, 0)
    recorder = Recorder()
    if scheme != "ppawss":
        solver = replace(solver, max_iterations=steps_within(
            solver.schedule, config.budget))
        recorder = Recorder(every=math.ceil(solver.max_iterations / 200))
    problem = make_affine_strongly_monotone(3, 1.0, 2.0, sigma=0.5, seed=0)

    def solve(seed):
        return run(problem, np.zeros(3), solver, BudgetCounter(config.budget),
                   scheme=scheme, seed=seed, recorder=recorder)

    one, two, again = solve(1)[0], solve(2)[0], solve(1)[0]
    assert not np.array_equal(one, two)
    assert np.array_equal(one, again)
    run_experiment(config)
    solve(3)[1].write_csv(tmp_path / "direct.csv")
    cell = tmp_path / "res" / f"{scheme}_L2_lam5_seed3.csv"
    assert cell.read_bytes() == (tmp_path / "direct.csv").read_bytes()


def _write_cell(path, scheme, seed, value, metric="natural_residual",
                truncated=False):
    trace = RunTrace(scheme, seed)
    kwargs = {metric: value}
    trace.add(TraceRow(outer_k=1, inner_k=0, calls=10, **kwargs))
    trace.truncated = truncated
    trace.write_csv(path)
    return str(path)


class TestSummarize:
    def test_single_cell(self, tmp_path):
        path = _write_cell(tmp_path / "vs_ave_L2_lamna_seed0.csv",
                           "vs_ave", 0, 0.125)
        text = summarize([path])
        assert "vs_ave (median final)" in text
        assert "1.2500e-01" in text

    def test_quartiles_and_star(self, tmp_path):
        paths = [
            _write_cell(tmp_path / f"vs_ave_L2_lamna_seed{s}.csv",
                        "vs_ave", s, v, truncated=(s == 2))
            for s, v in enumerate([1.0, 2.0, 3.0, 4.0])
        ]
        out_csv = tmp_path / "summary.csv"
        text = summarize(paths, summary_csv=str(out_csv))
        assert "*" in text
        lines = out_csv.read_text().splitlines()
        assert lines[0] == ("L,lam,scheme,metric,median,q25,q75,"
                            "n_seeds,any_truncated")
        fields = lines[1].split(",")
        assert fields[:4] == ["2", "na", "vs_ave", "natural_residual"]
        assert float(fields[4]) == 2.5
        assert float(fields[5]) == 1.75
        assert float(fields[6]) == 3.25
        assert fields[7:] == ["4", "true"]

    def test_mixed_metrics_rejected(self, tmp_path):
        paths = [
            _write_cell(tmp_path / "ppawss_L2_lam5_seed0.csv", "ppawss", 0,
                        0.5, metric="natural_residual"),
            _write_cell(tmp_path / "ppawss_L2_lam5_seed1.csv", "ppawss", 1,
                        0.5, metric="saddle_gap"),
        ]
        with pytest.raises(ConfigError, match="mixed final metrics"):
            summarize(paths)

    def test_foreign_filename_uses_trace_scheme(self, tmp_path):
        path = _write_cell(tmp_path / "weird.csv", "ppawss", 0, 0.5)
        text = summarize([path])
        assert "ppawss (median final)" in text
        assert "na" in text

    def test_rows_sorted_numerically(self, tmp_path):
        paths = [
            _write_cell(tmp_path / f"vs_ave_L{lip}_lamna_seed0.csv",
                        "vs_ave", 0, 1.0)
            for lip in ("7.05", "70.5", "705")
        ]
        text = summarize(sorted(paths))
        body = text.splitlines()[2:]
        assert [line.split()[0] for line in body] == ["7.05", "70.5", "705"]


@pytest.mark.parametrize("name", ["bimatrix", "affine"])
def test_a_run_is_a_prefix_of_a_run_with_a_larger_budget(name, tmp_path):
    """Every row that a golden cell records at its budget B, it records
    with the same bytes at 4B: no schedule, start point or cadence may
    depend on the budget within the rows both runs share."""
    golden = os.path.join(os.path.dirname(__file__), "fixtures", "golden")
    with open(os.path.join(golden, f"{name}.cfg"), encoding="utf-8") as fh:
        config = parse_config(fh.read())
    rows = {}
    for factor in (1, 4):
        run_experiment(replace(config, budget=factor * config.budget,
                               output_path=f"x{factor}"), base_dir=str(tmp_path))
        for path in (tmp_path / f"x{factor}").glob("*_seed*.csv"):
            lines = path.read_text(encoding="ascii").splitlines()[1:]
            # outer_k -> the whole row
            rows.setdefault(path.name, []).append(
                {line.split(",")[2]: line for line in lines})
    assert len(rows) == (len(config.schemes) * len(config.lipschitz)
                         * len(config.seeds))
    for cell, (small, large) in rows.items():
        shared = small.keys() & large.keys()
        assert shared, cell
        for outer_k in shared:
            assert small[outer_k] == large[outer_k], (cell, outer_k)
