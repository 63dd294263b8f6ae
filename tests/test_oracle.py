"""Sampling contract: unbiasedness, variance scaling, budgets, streams."""

from __future__ import annotations

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svilab import (BudgetCounter, ExtragradientConfig, PpawssConfig,
                    VsAveConfig, make_affine_strongly_monotone,
                    run_extragradient, run_ppawss, run_vs_ave)
from svilab.errors import BudgetExhausted, ContractViolation
from svilab.maps import AffineMap, BimatrixMap, ShiftedMap
from svilab.oracle import (
    BLOCK,
    PART,
    AdditiveGaussian,
    Feed,
    MatrixPerturbation,
    StochasticOracle,
    ZeroNoise,
    batch_mean,
    generator,
)
from svilab.problems import bimatrix_from_payoff

from feeds import one_step, take
from plain_loops import payoff_sum


def gaussian_oracle(sigma=1.0, seed=0):
    f = AffineMap(np.diag([1.0, 2.0, 3.0, 4.0]), np.array([0.5, 0.0, -0.5, 1.0]))
    return StochasticOracle(f, AdditiveGaussian(sigma), rng_seed=seed)


class TestSampleStream:
    def test_deterministic_by_key(self):
        a = generator(5, 1, 2).standard_normal(8)
        b = generator(5, 1, 2).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_keys_decorrelate(self):
        a = generator(5, 1, 2).standard_normal(8)
        b = generator(5, 1, 3).standard_normal(8)
        c = generator(6, 1, 2).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_keys_outside_64_bits_rejected(self):
        # a masked key would make -1 draw what 2**64 - 1 draws
        for key in ((-3, -1), (5, -1, 0), (5, 2**64, 0)):
            with pytest.raises(ContractViolation):
                generator(*key)
        assert generator(5, 2**64 - 1, 0).uniform(0.0, 1.0, 4).shape == (4,)

    def test_non_integer_keys_rejected(self):
        for key in ((5, 1.5, 0), (5.0, 1, 0), (5, "1", 0)):
            with pytest.raises(ContractViolation, match="must be integers"):
                generator(*key)
        a = generator(np.uint64(5), np.int64(1), 0).standard_normal(4)
        assert np.array_equal(a, generator(5, 1, 0).standard_normal(4))

    def test_oracle_checks_its_seed_when_built(self):
        f = AffineMap(np.eye(2), np.zeros(2))
        for bad in (-1, 2**64, 1.5):
            with pytest.raises(ContractViolation, match="stream keys"):
                StochasticOracle(f, ZeroNoise(), rng_seed=bad)
        with pytest.raises(ContractViolation, match="stream keys"):
            bimatrix_from_payoff(np.eye(2), noise_scale=0.1, seed=-1)


# one direct draw of each noise model's distribution from a generator:
# the reference values of the stream's fills
DIRECT_DRAWS = [
    (AdditiveGaussian(1.0), lambda gen, size: gen.standard_normal(size)),
    (MatrixPerturbation(2, 3, 1.0),
     lambda gen, size: gen.uniform(-1.0, 1.0, size)),
]
# small batches, requests around a chunk's BLOCK values, and past it
REQUEST = st.one_of(st.integers(0, 40), st.integers(BLOCK - 40, BLOCK + 40),
                    st.integers(BLOCK + 41, 3 * BLOCK))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(DIRECT_DRAWS),
       requests=st.lists(st.tuples(st.booleans(), REQUEST), max_size=12))
def test_any_split_of_a_stream_draws_the_same_values(case, requests):
    # any split into take_into calls serves the direct draw
    noise, direct = case
    stream = StochasticOracle(None, noise, rng_seed=4).stream(0, 1)
    # served values are kept: a later call must not move them
    served = []
    for in_rows, size in requests:
        if in_rows:
            # rows 1.. of a larger array, written only where they lie
            buffer = np.full((size + 2, 1), np.nan)
            assert stream.take_into(buffer[1:size + 1]).base is buffer
            assert np.isnan(buffer[0]) and np.isnan(buffer[-1])
            served.append(buffer[1:size + 1, 0])
        else:
            out = np.empty(size)
            assert stream.take_into(out) is out
            served.append(out)
    sizes = [size for _, size in requests]
    assert [part.size for part in served] == sizes
    assert stream.served == sum(sizes)
    got = np.concatenate([np.empty(0)] + served)
    want = direct(generator(4, 0, 1), sum(sizes))
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("noise, direct", DIRECT_DRAWS)
@pytest.mark.parametrize("size", [0, 1, 7, BLOCK, BLOCK + 3])
def test_sampler_fills_a_view_with_the_direct_draw(noise, direct, size):
    # a stream fills what it is handed, such as a summing buffer's rows:
    # views that start inside a larger array
    buffer = np.full(size + 5, np.nan)
    noise.sampler(generator(4, 0, 1))(buffer[2:2 + size])
    want = direct(generator(4, 0, 1), size)
    got = buffer[2:2 + size]
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.isnan(buffer[:2]).all() and np.isnan(buffer[2 + size:]).all()


@pytest.mark.parametrize("scheme", ["vs_ave", "ppawss", "extragradient"])
def test_non_integer_run_seed_is_a_contract_violation(scheme):
    problem = make_affine_strongly_monotone(3, 1.0, 2.0, sigma=0.5, seed=0)
    run, config = {
        "vs_ave": (run_vs_ave, VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.5,
                                           max_iterations=3)),
        "ppawss": (run_ppawss, PpawssConfig(lam=1.0, eta=1.0, alpha=1.001,
                                            beta=1.001, outer_iterations=2)),
        "extragradient": (run_extragradient,
                          ExtragradientConfig(stepsize=0.1, max_iterations=3)),
    }[scheme]
    with pytest.raises(ContractViolation, match="must be integers"):
        run(problem, np.zeros(3), config, None, seed=1.5)


class TestBudgetCounter:
    def test_counts_exactly(self):
        b = BudgetCounter(10)
        b.charge(3)
        b.charge(7)
        assert b.consumed == 10 and b.remaining == 0

    def test_refusal_leaves_counter_untouched(self):
        b = BudgetCounter(10)
        b.charge(6)
        with pytest.raises(BudgetExhausted) as exc:
            b.charge(5)
        assert b.consumed == 6
        assert exc.value.consumed == 6
        assert exc.value.requested == 5
        assert exc.value.limit == 10

    def test_exact_fit_allowed(self):
        b = BudgetCounter(4)
        b.charge(4)
        with pytest.raises(BudgetExhausted):
            b.charge(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetCounter(0)
        with pytest.raises(ContractViolation):
            BudgetCounter(5).charge(-1)

    @pytest.mark.parametrize("limit", [2.5, 0.5, -math.inf, math.nan, -3, 0.0,
                                       "10", None])
    def test_limit_must_be_a_positive_whole_number(self, limit):
        with pytest.raises(ValueError, match="positive whole number") as exc:
            BudgetCounter(limit)
        assert repr(limit) in str(exc.value)

    @pytest.mark.parametrize("limit, kept", [(7, 7), (1e6, 10**6),
                                             (np.int64(5), 5),
                                             (math.inf, math.inf)])
    def test_whole_limits_are_kept(self, limit, kept):
        counter = BudgetCounter(limit)
        assert counter.limit == kept and type(counter.limit) is type(kept)

    def test_fractional_charge_is_refused(self):
        # a fraction is not floored into a smaller charge
        b = BudgetCounter(10)
        with pytest.raises(TypeError):
            b.charge(2.7)
        assert b.consumed == 0
        b.charge(np.int64(3))
        assert b.consumed == 3 and type(b.consumed) is int


class TestBatchMean:
    def test_zero_noise_is_exact(self):
        f = AffineMap(np.eye(2), np.array([1.0, -1.0]))
        oracle = StochasticOracle(f, ZeroNoise(), rng_seed=0)
        x = np.array([0.3, 0.7])
        for n in (1, 5, 100):
            est = batch_mean(oracle, x, n,
                             one_step(oracle.noise_model, oracle.stream(0, 0),
                                      n, 2))
            assert np.array_equal(est, f(x))

    def test_rejects_empty_batch(self):
        oracle = gaussian_oracle()
        with pytest.raises(ContractViolation):
            batch_mean(oracle, np.zeros(4), 0,
                       one_step(oracle.noise_model, oracle.stream(0, 0), 0,
                                4))

    @pytest.mark.parametrize("n", [2.5, 2.0, np.array(2.0)])
    def test_rejects_a_batch_size_that_is_not_an_integer(self, n):
        # the count drawn and the divisor must be the same number
        oracle = gaussian_oracle()
        with pytest.raises(TypeError):
            batch_mean(oracle, np.zeros(4), n,
                       one_step(oracle.noise_model, oracle.stream(0, 0), n,
                                4))

    def test_deterministic_given_stream(self):
        oracle = gaussian_oracle(seed=3)
        a, b = (batch_mean(oracle, np.ones(4), 7,
                           one_step(oracle.noise_model, oracle.stream(0, 0),
                                    7, 4))
                for _ in range(2))
        assert np.array_equal(a, b)

    def test_trials_partition_randomness(self):
        oracle = gaussian_oracle(seed=3)
        a, b = (batch_mean(oracle, np.ones(4), 7,
                           one_step(oracle.noise_model, oracle.stream(trial, 0),
                                    7, 4))
                for trial in (0, 1))
        assert not np.array_equal(a, b)


class TestGaussianNoise:
    def test_unbiased(self):
        oracle = gaussian_oracle(sigma=1.0, seed=1)
        x = np.array([0.1, -0.2, 0.3, 0.4])
        est = batch_mean(oracle, x, 10**5,
                         one_step(oracle.noise_model, oracle.stream(0, 0),
                                  10**5, 4))
        err = est - oracle.mean_map(x)
        # each coordinate is N(0, sigma^2/n); allow 4 standard errors
        assert np.all(np.abs(err) <= 4.0 / np.sqrt(10**5))

    def test_variance_scales_inverse_n(self):
        oracle = gaussian_oracle(sigma=1.0, seed=2)
        x = np.zeros(4)
        stream = oracle.stream(0, 0)
        base = None
        for n in (1, 4, 16, 64):
            draws = np.array(
                [batch_mean(oracle, x, n,
                            one_step(oracle.noise_model, stream, n, 4))
                 - oracle.mean_map(x) for _ in range(2000)]
            )
            total_var = float(draws.var(axis=0).sum())
            if base is None:
                base = total_var
            else:
                assert total_var == pytest.approx(base / n, rel=0.2)

    def test_batch_variance_matches_law(self):
        # n=4, sigma=1, d=4: total variance d sigma^2 / n = 1
        oracle = gaussian_oracle(sigma=1.0, seed=4)
        stream = oracle.stream(0, 0)
        x = np.zeros(4)
        draws = np.array(
            [batch_mean(oracle, x, 4,
                        one_step(oracle.noise_model, stream, 4, 4))
             - oracle.mean_map(x) for _ in range(10**4)]
        )
        assert float(draws.var(axis=0).sum()) == pytest.approx(1.0, rel=0.1)

    def test_variance_bound(self):
        assert AdditiveGaussian(2.0).variance_bound(5) == pytest.approx(20.0)


class TestMatrixPerturbation:
    def make_oracle(self, scale=0.5, seed=0):
        payoff = np.array([[1.0, 0.0, -1.0], [0.5, 0.5, 0.0]])
        from svilab.maps import BimatrixMap

        return StochasticOracle(
            BimatrixMap(payoff), MatrixPerturbation(2, 3, scale), rng_seed=seed
        )

    def test_unbiased(self):
        oracle = self.make_oracle(scale=0.5, seed=5)
        z = np.array([0.2, 0.3, 0.5, 0.6, 0.4])
        est = batch_mean(oracle, z, 10**5,
                         one_step(oracle.noise_model, oracle.stream(0, 0),
                                  10**5, 5))
        err = est - oracle.mean_map(z)
        # entries of E have sd 1/sqrt(3); generous CLT envelope
        assert np.all(np.abs(err) <= 4.0 * 0.5 / np.sqrt(3 * 10**5))

    def test_variance_scales_inverse_n(self):
        oracle = self.make_oracle(scale=1.0, seed=6)
        z = np.array([0.5, 0.25, 0.25, 0.5, 0.5])
        stream = oracle.stream(0, 0)
        mean = oracle.mean_map(z)
        per_n = {}
        for n in (1, 4):
            draws = np.array(
                [batch_mean(oracle, z, n,
                            one_step(oracle.noise_model, stream, n, 5))
                 - mean for _ in range(4000)]
            )
            per_n[n] = float(draws.var(axis=0).sum())
        assert per_n[4] == pytest.approx(per_n[1] / 4.0, rel=0.2)

    def test_empirical_variance_below_bound(self):
        oracle = self.make_oracle(scale=0.7, seed=7)
        z = np.array([0.5, 0.25, 0.25, 0.5, 0.5])
        stream = oracle.stream(0, 0)
        mean = oracle.mean_map(z)
        draws = np.array(
            [batch_mean(oracle, z, 1,
                        one_step(oracle.noise_model, stream, 1, 5))
             - mean for _ in range(4000)]
        )
        assert float(draws.var(axis=0).sum()) <= oracle.variance_bound

    def test_chunked_path_matches_law(self):
        # n large enough to hit the chunked accumulation
        oracle = self.make_oracle(scale=1.0, seed=8)
        z = np.array([0.5, 0.25, 0.25, 0.5, 0.5])
        n = 262144 // 6 + 100
        est = batch_mean(oracle, z, n,
                         one_step(oracle.noise_model, oracle.stream(0, 0), n,
                                  5))
        err = est - oracle.mean_map(z)
        assert np.all(np.abs(err) <= 5.0 / np.sqrt(3 * n))


def reference_noise_sum(rows, cols, scale, z, n, stream):
    """The noise part of the batch mean that noise_sum must reproduce bit
    for bit: per-chunk sums of at most 262144 // (rows * cols) matrices
    added to zeros, then (E^T y, -(E x)) from plain products, divided by
    n (exact for n = 1)."""
    if n == 1:
        e_sum = stream.uniform(-1.0, 1.0, (rows, cols))
    else:
        e_sum = np.zeros((rows, cols))
        chunk = max(1, 262144 // (rows * cols))
        left = n
        while left > 0:
            c = min(left, chunk)
            e_sum += stream.uniform(-1.0, 1.0, (c, rows, cols)).sum(axis=0)
            left -= c
    e_sum *= scale
    return np.concatenate([e_sum.T @ z[cols:], -(e_sum @ z[:cols])]) / n


class TestMatrixPerturbationBits:
    # the table-1 game: 10 rows, 20 columns, 1310 matrices per chunk
    ROWS, COLS, SCALE = 10, 20, 0.1
    CHUNK = 262144 // (ROWS * COLS)

    def point(self):
        rng = np.random.default_rng(12)
        return np.concatenate([rng.dirichlet(np.ones(self.COLS)),
                               rng.dirichlet(np.ones(self.ROWS))])

    def check(self, sizes):
        noise = MatrixPerturbation(self.ROWS, self.COLS, self.SCALE)
        z = self.point()
        got_stream = StochasticOracle(None, noise, rng_seed=3).stream(0, 1)
        want_stream = generator(3, 0, 1)
        for n in sizes:
            got = noise.noise_sum(z, n, one_step(noise, got_stream, n,
                                                 z.size))
            want = reference_noise_sum(self.ROWS, self.COLS, self.SCALE, z, n,
                                       want_stream)
            assert np.array_equal(got, want), n

    @pytest.mark.parametrize("n", [1, 2, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_matches_reference(self, n):
        self.check([n])

    def test_mixed_sizes_on_one_stream(self):
        self.check([1, 3, 1, self.CHUNK + 1, 1, 2, 2 * self.CHUNK + 3, 1, 4])


class TestPayoffSum:
    """``MatrixPerturbation._sum``, a batch past a block summed a part at
    a time through one buffer, gives the bits of one axis-0 sum per
    group of ``_chunk`` matrices (``plain_loops.payoff_sum``)."""

    # the table-1 game: 1310 matrices per group, 327 per part
    NOISE = MatrixPerturbation(10, 20, 0.1)
    CHUNK = NOISE._chunk
    PART_ROWS = PART // 200

    @pytest.mark.parametrize("skip", [0, 37, BLOCK - 5],
                             ids=["block-start", "mid-block", "block-end"])
    @pytest.mark.parametrize("n", [1, PART_ROWS - 1, PART_ROWS,
                                   PART_ROWS + 1, CHUNK - 1, CHUNK,
                                   CHUNK + 1, 3 * CHUNK + 7])
    def test_equals_one_sum_per_group(self, n, skip):
        oracle = StochasticOracle(None, self.NOISE, rng_seed=5)
        stream, plain = oracle.stream(0, 1), oracle.stream(0, 1)
        take(stream, skip)
        take(plain, skip)
        got = self.NOISE._sum(stream, n)
        want = payoff_sum(plain, n, 10, 20)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(take(stream, 3), take(plain, 3))

    def test_a_large_batch_holds_one_part_at_a_time(self):
        # 20,000 matrices in groups of 1310 (2 MB each) go through one
        # buffer of PART values (512 KB). Measured peak on numpy 2.4.6:
        # 531,080 bytes; drawing each group into an array of its own
        # read 2,100,709
        stream = StochasticOracle(None, self.NOISE, rng_seed=5).stream(0, 1)
        take(stream, 37)
        tracemalloc.start()
        try:
            self.NOISE._sum(stream, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        group_bytes = self.CHUNK * 200 * 8
        assert peak < 720_000
        assert peak < group_bytes // 2


class TestAdditiveGaussianBits:
    SIGMA = 0.7

    @pytest.mark.parametrize("n", [1, 2, 3, 2**31 + 1, 2**53 + 1, 2**62 - 1])
    def test_scale_is_numpy_sqrt(self, n):
        # both round n to a double, then round its square root correctly
        assert math.sqrt(n) == np.sqrt(n)

    @pytest.mark.parametrize("dim", [50, BLOCK + 3])
    def test_mixed_sizes_on_one_stream(self, dim):
        # one feed a step: a fill of one vector each, short or long
        noise = AdditiveGaussian(self.SIGMA)
        stream = StochasticOracle(None, noise, rng_seed=3).stream(0, 1)
        gen = generator(3, 0, 1)
        x = np.zeros(dim)
        sizes = [1, 4, 1, 2**31 + 1, 7, 2**53 + 1]
        for i in range(2 * BLOCK // dim + 3):
            n = sizes[i % len(sizes)]
            want = (self.SIGMA * np.sqrt(n)) * gen.standard_normal(dim) / n
            got = noise.noise_sum(x, n, one_step(noise, stream, n, dim))
            assert np.array_equal(got, want), i

    @pytest.mark.parametrize("dim", [50, BLOCK + 3])
    def test_chunk_rows_are_the_means(self, dim):
        # a feed prepares a chunk of steps in one pass; each row must be
        # the mean's noise part, (sigma * sqrt(n) * z) / n, for every n
        # from 1 to the largest size a schedule allows
        noise = AdditiveGaussian(self.SIGMA)
        stream = StochasticOracle(None, noise, rng_seed=3).stream(0, 1)
        gen = generator(3, 0, 1)
        sizes = [1, 2, 3, 7, 2**31 + 1, 2**53 + 1, 2**62 - 1, 1] * 5
        feed = Feed(noise, stream, sizes, dim)
        for i, n in enumerate(sizes):
            z = gen.standard_normal(dim)
            want = (self.SIGMA * math.sqrt(n) * z) / n
            assert np.array_equal(feed.next(n), want), i


# (noise model, point dimension): matrices of 1, 6 and 200 entries, and
# Gaussian vectors of 5 or 3000 entries (3276 or 5 steps per chunk) and
# past one block (one step per chunk)
FED_MODELS = [
    (MatrixPerturbation(1, 1, 0.3), 2),
    (MatrixPerturbation(2, 3, 1.0), 5),
    (MatrixPerturbation(10, 20, 0.1), 30),
    (AdditiveGaussian(0.7), 5),
    (AdditiveGaussian(0.7), 3000),
    (AdditiveGaussian(0.7), BLOCK + 3),
]


@st.composite
def fed_case(draw):
    noise, dim = draw(st.sampled_from(FED_MODELS))
    # batch sizes from 1 to past the largest batch a chunk holds
    if isinstance(noise, MatrixPerturbation):
        limit = BLOCK // (noise.rows * noise.cols)
    else:
        limit = 40
    size = st.one_of(st.integers(1, 4), st.integers(1, limit + 8))
    # runs of equal sizes, long enough to fill a chunk of small batches,
    # broken where the next run starts
    runs = draw(st.lists(st.tuples(size, st.integers(1, 90)),
                         min_size=1, max_size=5))
    sizes = [n for n, repeat in runs for _ in range(repeat)]
    cut = draw(st.integers(0, len(sizes)))
    return noise, dim, sizes, cut


def _point(dim):
    z = np.random.default_rng(dim).uniform(0.0, 1.0, dim)
    return z / 4.0


# a 40 x 40 payoff draws 1600 values per sample: batches of 11 or more
# pass a block, those past 40 matrices are drawn in several parts, and
# those past 163 matrices (_chunk) are summed in several groups
PAST_BLOCK_NOISE = MatrixPerturbation(40, 40, 0.1)
PAST_BLOCK_SIZES = [1, 3, 3, 10, 11, 40, 163, 164, 400, 400, 2, 2]


@settings(max_examples=40, deadline=None)
@given(case=fed_case())
def test_fed_batches_equal_per_step_noise_sums(case):
    noise, dim, sizes, cut = case
    z = _point(dim)
    oracle = StochasticOracle(None, noise, rng_seed=6)
    fed_stream, plain_stream = oracle.stream(2, 1), oracle.stream(2, 1)
    # two feeds in turn on one stream, as consecutive PPAWSS subproblems
    feeds = [Feed(noise, fed_stream, sizes[:cut], dim),
             Feed(noise, fed_stream, sizes[cut:], dim)]
    for step, n in enumerate(sizes):
        got = noise.noise_sum(z, n, feeds[step >= cut])
        want = noise.noise_sum(z, n, one_step(noise, plain_stream, n, dim))
        assert np.array_equal(got, want), (step, n)
    assert np.array_equal(take(fed_stream, 3), take(plain_stream, 3))


@pytest.mark.parametrize("noise, dim", [(ZeroNoise(), 6),
                                        (AdditiveGaussian(0.7), 6),
                                        (MatrixPerturbation(2, 4, 0.5), 6)],
                         ids=["zero", "gaussian", "matrix"])
def test_batch_mean_out_matches_fresh(noise, dim):
    f = AffineMap(2.0 * np.eye(dim), np.linspace(-1.0, 1.0, dim))
    oracle = StochasticOracle(f, noise, rng_seed=2)
    sizes = [1, 1, 2, 5, 5, 40]
    fed = Feed(noise, oracle.stream(0, 0), sizes, dim)
    plain = oracle.stream(0, 0)
    x, out = _point(dim), np.empty(dim)
    for n in sizes:
        got = batch_mean(oracle, x, n, fed, out=out)
        assert got is out
        want = batch_mean(oracle, x, n, one_step(noise, plain, n, dim))
        assert np.array_equal(got, want)


def _payoff_oracles():
    rng = np.random.default_rng(12)
    saddle = BimatrixMap(rng.standard_normal((3, 5)))
    noise = MatrixPerturbation(3, 5, 0.5)
    return [StochasticOracle(saddle, noise, rng_seed=3),
            StochasticOracle(ShiftedMap(saddle, 7.0, rng.standard_normal(8)),
                             noise, rng_seed=3)]


@pytest.mark.parametrize("oracle", _payoff_oracles(),
                         ids=["bimatrix", "shifted"])
@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.sampled_from([1, 2, 3, 7]), min_size=12,
                      max_size=12),
       calls=st.lists(st.tuples(st.sampled_from([0, 1]),
                                st.sampled_from([0, 1, 2, "list"]),
                                st.sampled_from([0, 1, 2, None]),
                                st.booleans()),
                      min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_run_feeds_with_reused_buffers_match_fresh(oracle, sizes, calls,
                                                   seed):
    """batch_mean with payoff noise on the two feeds of one run, in any
    order, equals the fresh batch mean a twin oracle, which has kept
    nothing, forms from a fresh copy of the point on the same batches:
    buffers reused, swapped between point and output, written in place
    between calls, left out (out=None) or replaced by a list. No buffer
    but out is written."""
    twin = copy.deepcopy(oracle)
    rng = np.random.default_rng(seed)
    dim = oracle.mean_map.dimension
    pool = [rng.uniform(0.0, 1.0, dim) for _ in range(3)]
    taken = [0, 0]
    with oracle.feeds((oracle.stream(5, 0), oracle.stream(5, 1)),
                      sizes) as fed, \
            twin.feeds((twin.stream(5, 0), twin.stream(5, 1)),
                       sizes) as plain:
        for which, source, sink, fresh in calls:
            n = sizes[taken[which]]
            taken[which] += 1
            if source == "list":
                x = rng.uniform(0.0, 1.0, dim).tolist()
            else:
                x = pool[source]
                if fresh:
                    x[:] = rng.uniform(0.0, 1.0, dim)
            if sink == source:
                sink = None  # out must not overlap x
            want = batch_mean(twin, np.array(x), n, plain[which])
            before = [buf.copy() for buf in pool]
            if sink is None:
                got = batch_mean(oracle, x, n, fed[which])
                assert all(got is not buf for buf in pool)
            else:
                got = batch_mean(oracle, x, n, fed[which], out=pool[sink])
                assert got is pool[sink]
            assert np.array_equal(got, want)
            for i, buf in enumerate(pool):
                if i != sink:
                    assert np.array_equal(buf, before[i]), i


class TestFeed:
    def test_reads_only_its_own_steps(self):
        noise = MatrixPerturbation(2, 3, 1.0)
        stream = StochasticOracle(None, noise, rng_seed=1).stream(0, 0)
        feed = Feed(noise, stream, [2, 2, 5], 5)
        for n in (2, 2, 5):
            feed.next(n)
        with pytest.raises(ContractViolation, match="no step left"):
            feed.next(1)
        # 2 + 2 + 5 matrices of 6 entries were taken, nothing more
        assert np.array_equal(take(stream, 1),
                              generator(1, 0, 0).uniform(-1.0, 1.0, 55)[54:])

    @pytest.mark.parametrize("noise, dim",
                             [(MatrixPerturbation(10, 20, 0.1), 30),
                              (AdditiveGaussian(0.7), 3000),
                              (AdditiveGaussian(0.7), BLOCK + 3)])
    def test_a_chunk_takes_at_most_one_block(self, noise, dim):
        # a chunk draws the values of its own steps: at most BLOCK of
        # them, or those of one step past a block
        stream = StochasticOracle(None, noise, rng_seed=1).stream(0, 0)
        sizes = [1] * 200 + [2] * 100 + [81] * 3 + [82, 500, 1]
        at = 0
        while at < len(sizes):
            served = stream.served
            count, parts = noise.prepare(stream, sizes, at, dim)
            steps = sizes[at:at + count]
            if isinstance(noise, MatrixPerturbation):
                drawn = sum(steps) * 200
            else:
                drawn = count * dim
            assert stream.served - served == drawn, at
            assert drawn <= BLOCK or count == 1, at
            assert len(parts) == count
            at += count

    def test_a_payoff_chunk_ends_at_a_size_change_or_a_blocks_worth(self):
        # 200 values a matrix: batches of up to 81 matrices fit a block,
        # and a run of equal sizes is one chunk as far as a block holds
        # it; a batch past a block is a chunk of its own, even in a run
        noise = MatrixPerturbation(10, 20, 0.1)
        stream = StochasticOracle(None, noise, rng_seed=1).stream(0, 0)
        sizes = ([1] * 100 + [2] * 100 + [81] * 3 + [82, 82, 500] + [3] * 5
                 + [1] * 300)
        at, ends = 0, set()
        while at < len(sizes):
            n = sizes[at]
            run = next((j for j in range(at, len(sizes)) if sizes[j] != n),
                       len(sizes)) - at
            count, parts = noise.prepare(stream, sizes, at, 30)
            assert parts.shape == (count, 10, 20)
            if n > 81:
                assert count == 1
                ends.add("past a block")
            else:
                assert count == min(run, BLOCK // (n * 200)), at
                ends.add("size change" if count == run else "block")
            at += count
        assert ends == {"past a block", "size change", "block"}

    @pytest.mark.parametrize("dim", [50, 3000, BLOCK + 3])
    def test_a_gaussian_chunk_holds_a_blocks_worth_of_steps(self, dim):
        # one Gaussian vector a step, whatever its batch size
        noise = AdditiveGaussian(0.7)
        stream = StochasticOracle(None, noise, rng_seed=1).stream(0, 0)
        sizes = [1, 2, 2, 7, 2**31 + 1, 1, 5] * 200
        at = 0
        while at < len(sizes):
            count, parts = noise.prepare(stream, sizes, at, dim)
            assert count == min(len(sizes) - at, max(1, BLOCK // dim)), at
            assert parts.shape == (count, dim)
            at += count

    @pytest.mark.parametrize("skip", [37, BLOCK - 5])
    @pytest.mark.parametrize("noise, dim",
                             [(MatrixPerturbation(2, 3, 1.0), 5),
                              (MatrixPerturbation(10, 20, 0.1), 30),
                              (AdditiveGaussian(0.7), 50)],
                             ids=["payoff-2x3", "payoff-10x20", "gaussian"])
    def test_chunk_boundaries_depend_on_the_size_list_alone(self, noise,
                                                            dim, skip):
        # a feed on a stream that has already served values prepares the
        # chunks a feed on a fresh stream prepares, so the feeds of runs
        # that share a size list end their chunks at the same steps
        sizes = [1] * 3000 + [2] * 50 + [3] * 40 + [1] * 9
        oracle = StochasticOracle(None, noise, rng_seed=1)
        fresh, used = oracle.stream(0, 0), oracle.stream(1, 0)
        take(used, skip)
        steps = []
        for stream in (fresh, used):
            tape = []
            feed = Feed(noise, stream, sizes, dim, tape)
            for n in sizes:
                feed.next(n)
            steps.append([len(chunk) for chunk, _ in tape])
        assert steps[0] == steps[1]
        assert sum(steps[0]) == len(sizes) and len(steps[0]) > 4

    def test_a_feed_past_a_block_continues_the_stream_in_order(self):
        oracle = StochasticOracle(None, PAST_BLOCK_NOISE, rng_seed=4)
        stream, plain = oracle.stream(1, 1), oracle.stream(1, 1)
        feed = Feed(PAST_BLOCK_NOISE, stream, PAST_BLOCK_SIZES, 80)
        z = _point(80)
        for step, n in enumerate(PAST_BLOCK_SIZES):
            got = PAST_BLOCK_NOISE.noise_sum(z, n, feed)
            want = PAST_BLOCK_NOISE.noise_sum(
                z, n, one_step(PAST_BLOCK_NOISE, plain, n, 80))
            assert np.array_equal(got, want), (step, n)
        # nothing was prepared past the last step
        assert stream.served == plain.served
        assert np.array_equal(take(stream, 5), take(plain, 5))

    def test_a_continued_stream_gets_a_new_feed(self):
        # two feeds in turn on one stream, as consecutive PPAWSS runs
        oracle = StochasticOracle(None, PAST_BLOCK_NOISE, rng_seed=4)
        stream, plain = oracle.stream(2, 1), oracle.stream(2, 1)
        z = _point(80)
        for sizes in (PAST_BLOCK_SIZES[:6], PAST_BLOCK_SIZES[6:]):
            feed = Feed(PAST_BLOCK_NOISE, stream, sizes, 80)
            for n in sizes:
                want = PAST_BLOCK_NOISE.noise_sum(
                    z, n, one_step(PAST_BLOCK_NOISE, plain, n, 80))
                got = PAST_BLOCK_NOISE.noise_sum(z, n, feed)
                assert np.array_equal(got, want), n
        assert np.array_equal(take(stream, 3), take(plain, 3))

    def test_rejects_a_batch_of_another_size(self):
        noise = AdditiveGaussian(1.0)
        stream = StochasticOracle(None, noise, rng_seed=1).stream(0, 0)
        feed = Feed(noise, stream, [1, 3], 4)
        feed.next(1)
        with pytest.raises(ContractViolation, match="holds 3 samples, not 2"):
            feed.next(2)

    def test_zero_noise_prepares_nothing(self):
        f = AffineMap(np.eye(2), np.array([1.0, -1.0]))
        oracle = StochasticOracle(f, ZeroNoise(), rng_seed=0)
        feed = Feed(ZeroNoise(), oracle.stream(0, 0), [1, 4], 2)
        x = np.array([0.3, 0.7])
        for n in (1, 4):
            assert np.array_equal(batch_mean(oracle, x, n, feed), f(x))


class TestTape:
    """A tape, a dict, records the chunks of a run's two feeds under the
    run's key, and the feeds of a run with the same key replay them
    without reading a stream."""

    # chunks within a block, batches past a block and batches summed in
    # several groups
    NOISE = PAST_BLOCK_NOISE
    SIZES = PAST_BLOCK_SIZES
    ORACLE = StochasticOracle(AffineMap(np.eye(80), np.zeros(80)), NOISE,
                              rng_seed=4)

    def _streams(self, seed=1):
        return self.ORACLE.stream(seed, 0), self.ORACLE.stream(seed, 1)

    def _record(self):
        tape, streams = {}, self._streams()
        with self.ORACLE.feeds(streams, self.SIZES, tape) as feeds:
            for n in self.SIZES:
                for feed in feeds:
                    assert not feed.next(n).flags.writeable
        return tape

    def test_replay_serves_the_recorded_parts_and_reads_no_stream(self):
        tape = self._record()
        # keyed by the noise model, dimension, stream keys and step count
        assert list(tape) == [(self.NOISE, 80, (4, 1, 0), (4, 1, 1),
                               len(self.SIZES))]
        plain = [Feed(self.NOISE, stream, self.SIZES, 80)
                 for stream in self._streams()]
        replayed = self._streams()
        with self.ORACLE.feeds(replayed, self.SIZES, tape) as feeds:
            for n in self.SIZES:
                for feed, want in zip(feeds, plain):
                    part = feed.next(n)
                    assert np.array_equal(part, want.next(n)), n
                    assert not part.flags.writeable
        assert [s.served for s in replayed] == [0, 0]

    def test_parts_are_owned_and_read_only(self):
        # each chunk's parts, drawn (1, 3) or summed (a batch past a
        # block), are an array of their own that no reader can change
        (streams,) = self._record().values()
        recorded = []
        for chunks in streams:
            assert [n for sizes, _ in chunks for n in sizes] == self.SIZES
            for sizes, parts in chunks:
                assert not parts.flags.writeable
                assert parts.shape == (len(sizes), 40, 40)
                recorded.append(parts)
        for i, parts in enumerate(recorded):
            for other in recorded[i + 1:]:
                assert not np.shares_memory(parts, other)

    def test_a_replay_of_other_batches_raises(self):
        tape = self._record()
        sizes = self.SIZES
        # another trial seed, or fewer steps
        for streams, fewer in ((self._streams(seed=2), sizes),
                               (self._streams(), sizes[:-1])):
            with pytest.raises(ContractViolation, match="cannot replay"):
                with self.ORACLE.feeds(streams, fewer, tape):
                    pass
        other = StochasticOracle(self.ORACLE.mean_map,
                                 MatrixPerturbation(40, 40, 0.2), rng_seed=4)
        with pytest.raises(ContractViolation, match="cannot replay"):
            with other.feeds(self._streams(), sizes, tape):
                pass
        with self.ORACLE.feeds(self._streams(), sizes, tape) as (feed, _):
            feed.next(1)
            with pytest.raises(ContractViolation, match="holds 3 samples"):
                feed.next(4)
        # a refused replay adds no entry
        assert len(tape) == 1

    @pytest.mark.parametrize("served", [0, 5, 11])
    def test_a_run_that_stops_early_registers_nothing(self, served):
        tape = {}
        with pytest.raises(RuntimeError, match="stopped"):
            with self.ORACLE.feeds(self._streams(), self.SIZES,
                                   tape) as feeds:
                for n in self.SIZES[:served]:
                    for feed in feeds:
                        feed.next(n)
                raise RuntimeError("stopped")
        assert tape == {}
        # nor does one that returns before its last step
        with self.ORACLE.feeds(self._streams(), self.SIZES, tape) as feeds:
            for n in self.SIZES[:served]:
                for feed in feeds:
                    feed.next(n)
        assert tape == {}


@pytest.mark.parametrize("n", [2, 3, 2**31 + 1, 2**53 + 1, 2**62 - 1])
def test_zero_d_batch_size_divides_as_an_int(n):
    # batch_mean takes n as a 0-d int64 array too, and its mean must
    # divide by the double a Python int rounds to
    oracle = gaussian_oracle(sigma=0.9, seed=8)
    x = np.array([0.1, -0.2, 0.3, 0.4])
    want, got = (batch_mean(oracle, x, size,
                            one_step(oracle.noise_model, oracle.stream(0, 0),
                                     n, 4))
                 for size in (n, np.array(n, dtype=np.int64)))
    assert np.array_equal(got, want)
