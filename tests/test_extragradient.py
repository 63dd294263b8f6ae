"""Tests for the variance-reduced extragradient baseline."""

import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from svilab import (
    BudgetCounter,
    ConfigError,
    ExtragradientConfig,
    Recorder,
    make_affine_strongly_monotone,
    run_extragradient,
)
import svilab.bench
from svilab.bench import parse_config, run_experiment
from svilab.errors import ContractViolation, ScheduleOverflow
from svilab.extragradient import eg_sample_size
from svilab.oracle import BLOCK, StochasticOracle, Tape
from svilab.problems import ProblemInstance, bimatrix_from_payoff

from plain_loops import extragradient_loop
from qp_oracle import contains

PENNIES = [[1.0, -1.0], [-1.0, 1.0]]


class TestSampleSize:
    def test_reference_values(self):
        assert eg_sample_size(0, 1.0, 2.001, 1e-3) == 2
        assert eg_sample_size(100, 1.0, 2.001, 1e-3) == 473

    def test_theta_scales(self):
        base = eg_sample_size(50, 1.0, 2.001, 1e-3)
        assert eg_sample_size(50, 3.0, 2.001, 1e-3) >= 3 * base - 3

    def test_nondecreasing(self):
        sizes = [eg_sample_size(k, 1.0, 2.001, 1e-3) for k in range(500)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_overflow_is_schedule_overflow(self):
        # ceil of an infinite size used to raise a bare OverflowError
        with pytest.raises(ScheduleOverflow, match="k=0"):
            eg_sample_size(0, 1e308, 2.001, 1e-3)
        with pytest.raises(ScheduleOverflow, match="k=0"):
            eg_sample_size(0, 2.0**62, 2.001, 1e-3)

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            eg_sample_size(-1, 1.0, 2.001, 1e-3)
        with pytest.raises(ContractViolation):
            eg_sample_size(3, 1.0, 1.0, 1e-3)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="stepsize must be positive"):
            ExtragradientConfig(stepsize=0.0)
        with pytest.raises(ConfigError, match="theta must be positive"):
            ExtragradientConfig(stepsize=0.1, theta=0.0)
        with pytest.raises(ConfigError, match="mu_shift must be > 1"):
            ExtragradientConfig(stepsize=0.1, mu_shift=1.0)
        with pytest.raises(ConfigError, match="b must be positive"):
            ExtragradientConfig(stepsize=0.1, b=0.0)
        with pytest.raises(ConfigError):
            ExtragradientConfig(stepsize=0.1, max_iterations=0)

    def test_stepsize_bound_checked_at_run(self, pennies_problem):
        # L = 2 so the bound is 1/(2 sqrt(6)) = 0.204...
        cfg = ExtragradientConfig(stepsize=0.25, max_iterations=5)
        with pytest.raises(ConfigError,
                           match=r"stepsize must be < 1/\(sqrt\(6\)\*L\)"):
            run_extragradient(pennies_problem, np.zeros(4), cfg, None)


class TestDeterministicRuns:
    def test_saddle_is_fixed_point(self, pennies_problem):
        star = pennies_problem.reference_solution
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=10)
        z, _ = run_extragradient(pennies_problem, star, cfg, None)
        np.testing.assert_allclose(z, star, atol=1e-12)

    def test_last_iterate_converges_on_pennies(self, pennies_problem):
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=500)
        z0 = np.array([1.0, 0.0, 0.0, 1.0])
        z, trace = run_extragradient(pennies_problem, z0, cfg, None)
        assert not trace.truncated
        assert np.linalg.norm(z - pennies_problem.reference_solution) <= 1e-8
        assert contains(pennies_problem.feasible_set, z)

    def test_averaged_mode_converges_slower_but_surely(self, pennies_problem):
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=300,
                                  averaged=True)
        z0 = np.array([1.0, 0.0, 0.0, 1.0])
        z, _ = run_extragradient(pennies_problem, z0, cfg, None)
        dist = np.linalg.norm(z - pennies_problem.reference_solution)
        assert dist <= 0.05
        assert contains(pennies_problem.feasible_set, z)

    def test_probe_step_is_what_converges(self, pennies_problem):
        # the plain projected forward step orbits the saddle of a skew
        # game; the extragradient probe is what turns it into descent
        star = pennies_problem.reference_solution
        z = pennies_problem.feasible_set.project(
            np.array([1.0, 0.0, 0.0, 1.0]))
        for _ in range(500):
            z = pennies_problem.feasible_set.project(
                z - 0.2 * pennies_problem.mean_map(z))
        assert np.linalg.norm(z - star) >= 0.3

    def test_singleton_strongly_monotone(self):
        prob = make_affine_strongly_monotone(n=1, mu=2.0, lipschitz=2.0,
                                             sigma=0.0, seed=5)
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=200)
        z, _ = run_extragradient(prob, np.zeros(1), cfg, None)
        assert np.linalg.norm(z - prob.reference_solution) <= 1e-8


class TestBudgetAccounting:
    def _noisy_pennies(self):
        return bimatrix_from_payoff(PENNIES, noise_scale=0.1, seed=0)

    def test_two_batches_per_iteration(self):
        problem = self._noisy_pennies()
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=5)
        budget = BudgetCounter(10**6)
        _, trace = run_extragradient(problem, np.zeros(4), cfg, budget)
        expected = sum(2 * eg_sample_size(k, cfg.theta, cfg.mu_shift, cfg.b)
                       for k in range(5))
        assert budget.consumed == expected
        assert trace.final.calls == expected

    def test_truncation_keeps_completed_prefix(self):
        problem = self._noisy_pennies()
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=50)
        sizes = [eg_sample_size(k, cfg.theta, cfg.mu_shift, cfg.b)
                 for k in range(4)]
        cum3 = sum(2 * n for n in sizes[:3])
        # the fourth iteration's first batch would fit, its second would
        # not, so neither is drawn
        budget = BudgetCounter(cum3 + sizes[3])
        _, trace = run_extragradient(problem, np.zeros(4), cfg, budget,
                                     recorder=Recorder(every=1))
        assert trace.truncated
        assert trace.final.calls == cum3
        assert budget.consumed == cum3

    def test_reruns_bit_identical(self):
        problem = self._noisy_pennies()
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=30)
        z1, t1 = run_extragradient(problem, np.zeros(4), cfg,
                                   BudgetCounter(10**6))
        z2, t2 = run_extragradient(problem, np.zeros(4), cfg,
                                   BudgetCounter(10**6))
        assert np.array_equal(z1, z2)
        assert [r.saddle_gap for r in t1.rows] == \
               [r.saddle_gap for r in t2.rows]

    def test_unrecorded_run_matches_recorded(self):
        # recording reads the state only: same point, same ledger
        problem = self._noisy_pennies()
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=12,
                                  averaged=True)
        b1, b2 = BudgetCounter(10**6), BudgetCounter(10**6)
        z1, t1 = run_extragradient(problem, np.zeros(4), cfg, b1)
        z2, t2 = run_extragradient(problem, np.zeros(4), cfg, b2,
                                   recorder=None)
        assert len(t1.rows) == 12
        assert t2.rows == []
        assert np.array_equal(z1, z2)
        assert b1.consumed == b2.consumed


class TestTraceCadence:
    def test_rows_follow_trace_every(self, pennies_problem):
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=10)
        _, trace = run_extragradient(pennies_problem, np.zeros(4), cfg, None,
                                     recorder=Recorder(every=3))
        assert [r.outer_k for r in trace.rows] == [3, 6, 9, 10]

    def test_every_iteration_by_default(self, pennies_problem):
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=10)
        _, trace = run_extragradient(pennies_problem, np.zeros(4), cfg, None)
        assert [r.outer_k for r in trace.rows] == list(range(1, 11))



@pytest.mark.parametrize("averaged", [False, True])
def test_fed_run_equals_bare_stream_loop(averaged):
    # a 10 x 20 game: batches of up to 81 samples are prepared in chunks,
    # larger ones summed per step
    payoff = np.random.default_rng(5).normal(size=(10, 20))
    game = bimatrix_from_payoff(payoff, noise_scale=0.1, seed=5,
                                with_reference=False)
    cfg = ExtragradientConfig(
        stepsize=0.2 / (math.sqrt(6.0) * game.mean_map.lipschitz),
        max_iterations=40, averaged=averaged)
    sizes = [eg_sample_size(k, cfg.theta, cfg.mu_shift, cfg.b)
             for k in range(40)]
    assert min(sizes) * 200 <= BLOCK < max(sizes) * 200
    point, _ = run_extragradient(game, np.zeros(30), cfg, None, seed=9)
    z, average = extragradient_loop(game, np.zeros(30), cfg, seed=9)
    assert np.array_equal(point, average if averaged else z)


# a 40 x 40 game draws 1600 values per sample: batches of 11 or more pass
# a sample block, so the second stream's are prepared on the run's helper
# thread, and batches past 163 samples are summed in several groups
PAST_BLOCK = bimatrix_from_payoff(
    np.random.default_rng(8).normal(size=(40, 40)), noise_scale=0.1, seed=8,
    with_reference=False)
PAST_BLOCK_CFG = ExtragradientConfig(
    stepsize=0.2 / (math.sqrt(6.0) * PAST_BLOCK.mean_map.lipschitz),
    max_iterations=50, averaged=True)


class ThreadCounting:
    """A feasible set that notes the live thread count at each projection
    and raises on its ``fail_at``-th call."""

    def __init__(self, inner, fail_at=None):
        self.inner, self.fail_at, self.counts = inner, fail_at, []

    def project(self, v, out=None):
        self.counts.append(threading.active_count())
        if len(self.counts) == self.fail_at:
            raise RuntimeError("projection failed")
        return self.inner.project(v, out=out)


class TestHelperThread:
    def test_run_past_a_block_equals_bare_stream_loop(self):
        sizes = [eg_sample_size(k, 1.0, 2.001, 1e-3) for k in range(50)]
        assert sizes[0] * 1600 <= BLOCK < sizes[5] * 1600
        assert max(sizes) > 262144 // 1600
        point, _ = run_extragradient(PAST_BLOCK, np.zeros(80), PAST_BLOCK_CFG,
                                     None, seed=3, recorder=None)
        _, average = extragradient_loop(PAST_BLOCK, np.zeros(80),
                                        PAST_BLOCK_CFG, seed=3)
        assert np.array_equal(point, average)

    # the 61st projection is step 30's second, made just after the feed
    # handed step 31 of the second stream to the helper
    @pytest.mark.parametrize("fail_at", [None, 61], ids=["returns", "raises"])
    def test_the_helper_does_not_outlive_the_run(self, fail_at):
        watched = ThreadCounting(PAST_BLOCK.feasible_set, fail_at)
        problem = ProblemInstance(oracle=PAST_BLOCK.oracle,
                                  feasible_set=watched)
        before = threading.active_count()
        if fail_at is None:
            run_extragradient(problem, np.zeros(80), PAST_BLOCK_CFG, None,
                              recorder=None)
            assert len(watched.counts) == 101
        else:
            with pytest.raises(RuntimeError, match="projection failed"):
                run_extragradient(problem, np.zeros(80), PAST_BLOCK_CFG,
                                  None, recorder=None)
        # one helper ran beside this thread, from the projection after
        # the feed's first run-ahead (at the first batch past a block) to
        # the end of the run, and it was joined
        sizes = islice(PAST_BLOCK_CFG.schedule, 50)
        first = next(k for k, n in enumerate(sizes, 1) if n * 1600 > BLOCK)
        counts = watched.counts
        assert counts == [before] * 2 * first + [before + 1] * (
            len(counts) - 2 * first)
        assert threading.active_count() == before

    def test_runs_in_threads_keep_their_bits(self):
        # four runs at once on two cores, each with its own helper, while
        # the interpreter switches threads as often as it can. Each run
        # has its own batch sizes (theta), so no two walk one size list
        configs = [replace(PAST_BLOCK_CFG, max_iterations=30,
                           theta=1.0 + i / 100) for i in range(4)]
        want = [extragradient_loop(PAST_BLOCK, np.zeros(80), cfg, seed=i)[1]
                for i, cfg in enumerate(configs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = [pool.submit(run_extragradient, PAST_BLOCK,
                                    np.zeros(80), cfg, None, seed=i,
                                    recorder=None)
                        for i, cfg in enumerate(configs)]
                got = [run.result(timeout=120)[0] for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for i in range(4):
            assert np.array_equal(got[i], want[i]), i


# table 1's three rows at a small budget: one 10 x 20 game per row, whose
# extragradient batches pass a sample block from 82 samples on
TABLE1_CFG = """\
[problem]
kind = bimatrix
n = 20
m = 10
lipschitz = 7.05, 70.5, 705
noise = 0.1
seed = 777

[run]
budget = 60000
seeds = 0,1

[scheme.extragradient]
"""


with open(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "configs", "vsave-affine.cfg"), encoding="utf-8") as fh:
    VSAVE_AFFINE_CFG = fh.read()


class Taps:
    """Wraps ``StochasticOracle.stream`` and ``svilab.bench.Tape`` to
    keep every stream made and count the tapes made."""

    def __init__(self, monkeypatch):
        self.streams, self.tapes = [], 0
        stream = StochasticOracle.stream

        def kept(oracle, seed, stream_id):
            self.streams.append(stream(oracle, seed, stream_id))
            return self.streams[-1]

        def counted():
            self.tapes += 1
            return Tape()

        monkeypatch.setattr(StochasticOracle, "stream", kept)
        monkeypatch.setattr(svilab.bench, "Tape", counted)
        monkeypatch.delenv("SVILAB_THREADS", raising=False)

    def served(self):
        totals = {}
        for stream in self.streams:
            totals[stream.key] = totals.get(stream.key, 0) + stream.served
        return totals


class TestTape:
    def test_rows_of_a_seed_fill_each_stream_once(self, tmp_path,
                                                  monkeypatch):
        taps = Taps(monkeypatch)
        config = parse_config(TABLE1_CFG, {"out": str(tmp_path / "all")})
        run_experiment(config)
        # one tape per trial seed; each (seed, stream) serves the values
        # of one cell, not of three
        solver = svilab.bench._cell_solver(config, "extragradient", 0)
        sizes = list(solver.schedule)
        assert max(sizes) * 200 > BLOCK
        assert taps.tapes == 2
        assert taps.served() == {(777, seed, stream): sum(sizes) * 200
                                 for seed in (0, 1) for stream in (0, 1)}
        # and each row's CSVs are those of the row run alone
        for lip in ("7.05", "70.5", "705"):
            out = tmp_path / lip
            run_experiment(parse_config(
                TABLE1_CFG.replace("7.05, 70.5, 705", lip),
                {"out": str(out)}))
            for seed in (0, 1):
                name = f"extragradient_L{lip}_lamna_seed{seed}.csv"
                assert (out / name).read_bytes() == (
                    tmp_path / "all" / name).read_bytes(), name
        assert taps.tapes == 2

    @pytest.mark.parametrize("text", [
        TABLE1_CFG.replace("7.05, 70.5, 705", "7.05"),
        TABLE1_CFG.replace("[scheme.extragradient]",
                           "[scheme.ppawss]\nlambda = 3500, 350, 35"
                           ).replace("budget = 60000", "budget = 20000"),
        VSAVE_AFFINE_CFG,
    ], ids=["one-row", "ppawss-only", "vsave-affine"])
    def test_a_config_of_no_shared_batches_makes_no_tape(self, text, tmp_path,
                                                         monkeypatch):
        taps = Taps(monkeypatch)
        run_experiment(parse_config(text, {"out": str(tmp_path)}))
        assert taps.tapes == 0 and taps.streams

    def test_a_recording_run_that_raises_registers_nothing(self):
        failing = ProblemInstance(
            oracle=PAST_BLOCK.oracle,
            feasible_set=ThreadCounting(PAST_BLOCK.feasible_set, fail_at=61))
        tape = Tape()
        with pytest.raises(RuntimeError, match="projection failed"):
            run_extragradient(failing, np.zeros(80), PAST_BLOCK_CFG, None,
                              seed=3, recorder=None, tape=tape)
        assert tape.key is None and tape.streams is None
        # the tape then records a whole run, which a run at another
        # stepsize replays with the bits it would draw
        point, _ = run_extragradient(PAST_BLOCK, np.zeros(80), PAST_BLOCK_CFG,
                                     None, seed=3, recorder=None, tape=tape)
        assert tape.key is not None
        assert np.array_equal(point, extragradient_loop(
            PAST_BLOCK, np.zeros(80), PAST_BLOCK_CFG, seed=3)[1])
        other = replace(PAST_BLOCK_CFG, stepsize=PAST_BLOCK_CFG.stepsize / 2)
        before = threading.active_count()
        replayed, _ = run_extragradient(PAST_BLOCK, np.zeros(80), other, None,
                                        seed=3, recorder=None, tape=tape)
        assert threading.active_count() == before
        assert np.array_equal(replayed, extragradient_loop(
            PAST_BLOCK, np.zeros(80), other, seed=3)[1])

    def test_a_recording_run_starts_no_helper(self):
        # the run that fills for its group prepares both streams on its
        # own thread, batches past a block included, with the bits of
        # the run with a helper
        watched = ThreadCounting(PAST_BLOCK.feasible_set)
        problem = ProblemInstance(oracle=PAST_BLOCK.oracle,
                                  feasible_set=watched)
        tape = Tape()
        before = threading.active_count()
        point, _ = run_extragradient(problem, np.zeros(80), PAST_BLOCK_CFG,
                                     None, seed=3, recorder=None, tape=tape)
        assert tape.key is not None
        assert watched.counts == [before] * 101
        assert np.array_equal(point, run_extragradient(
            PAST_BLOCK, np.zeros(80), PAST_BLOCK_CFG, None, seed=3,
            recorder=None)[0])

    def test_a_replay_of_other_batch_sizes_raises(self):
        tape = Tape()
        run_extragradient(PAST_BLOCK, np.zeros(80), PAST_BLOCK_CFG, None,
                          seed=3, recorder=None, tape=tape)
        # the same step count of other sizes: the first larger batch
        larger = replace(PAST_BLOCK_CFG, theta=2.0)
        with pytest.raises(ContractViolation, match="holds 2 samples, not 3"):
            run_extragradient(PAST_BLOCK, np.zeros(80), larger, None, seed=3,
                              recorder=None, tape=tape)
        # fewer steps, or another seed
        for cfg, seed in ((replace(PAST_BLOCK_CFG, max_iterations=49), 3),
                          (PAST_BLOCK_CFG, 4)):
            with pytest.raises(ContractViolation, match="cannot replay"):
                run_extragradient(PAST_BLOCK, np.zeros(80), cfg, None,
                                  seed=seed, recorder=None, tape=tape)
