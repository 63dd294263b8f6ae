"""Stochastic first-order oracle and the sample-budget ledger.

A :class:`StochasticOracle` pairs a mean map ``F`` with a noise model so
that single samples ``G(x, xi)`` are unbiased (``E[G(x, xi)] = F(x)``)
with variance bounded uniformly over the feasible set. It is problem
data: a run charges its own :class:`BudgetCounter` its planned cost
once, before its first draw (so a run that raises mid-way has already
charged its whole run), and :func:`batch_mean` only averages.

Randomness is counter-based: a run's streams draw from Philox generators
keyed by ``(rng_seed, seed, stream_id)`` with the run's own ``seed``, so
repeated trials and the two batch kinds of one iteration never share
draws.

A :class:`SampleStream` has Philox fill each array it is handed with
the next values of its noise model's distribution. How a stream's
draws are split into fills does not change a single value. Philox makes
one 64-bit word per double and keeps its unused words between calls,
and ``random`` and ``standard_normal`` fill their output one element
after the other, so filling ``a`` values and then ``b`` values gives
the numbers one fill of ``a + b`` gives. A U(-1, 1) fill, ``random``
then ``2u - 1``, has the bits of ``uniform``'s ``-1.0 + 2.0 * u``: both
are exact for every ``u`` on the 2**-53 grid.

A solver fixes its batch sizes before its first draw, as one list
(:func:`~svilab.schedule.sizes_within`), and reads each stream through a
:class:`Feed` of that list. The feed prepares the part of the coming
batches that does not depend on the iterate, a chunk of steps at a
time, in one numpy pass over one fill of an array made for the chunk.
A chunk's length depends on the size list alone: the steps of at most
``BLOCK`` drawn values, or one step. Its parts are the Gaussian noise
parts of the batch means, ``(sigma * sqrt(n) * z) / n``, or the scaled
sums of a run of equal-size batches of payoff perturbations. A payoff
batch past a block is summed in groups of about 2**18 values, and each
group is drawn ``PART`` values at a time into one buffer whose first
row carries the group's sum so far, so only 512 KB of drawn values are
held at a time. ``noise_sum`` then returns the noise part of one batch
mean, the mean minus ``F(x)``: a Gaussian step's is its prepared row,
and a payoff step's is formed at the iterate and divided by ``n``, in a
noise vector that the feed keeps for the run (:attr:`Feed.scratch`).
:func:`batch_mean` adds ``F(x)`` to it at once.
The bits do not move either: the chunk takes the values that feeds of
one step each, ``Feed(noise, stream, (n,), dim)`` for every batch in
turn, would take, in the same order, and forms each step's part with
the same floating-point operations in the same order (an axis-0 sum
adds its rows one after the other, so a part's sum from the carried row
goes on where the group's sum stopped). A noise model reads a stream
only through a feed.

A run's two streams are independent, but :meth:`StochasticOracle.feeds`
hands both feeds the run's one size list and prepares both on the run's
own thread, one chunk at a time as the run reaches it: a run starts no
thread and loads no executor. A run's scratch lives on its feeds, which
only its thread reads: the mean map's views of the run's buffers and the
noise model's vectors. The map and the noise model keep nothing between
calls.

Runs that would read the same batches (same noise model, dimension,
stream keys and batch sizes, as the rows of one extragradient trial
seed in the harness) can share them through a tape, a dict that
:meth:`StochasticOracle.feeds` fills. The first run's feeds record each
chunk they prepare, made read-only; the feeds of the others replay
those chunks, so those runs draw nothing. A replayed part is the
part the recording run read, so not a bit moves either. The tape's key
and each replayed step's size are the one test of "the same batches":
a replay that fails either raises :class:`ContractViolation`.
"""

from __future__ import annotations

import math
import numbers
import operator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, ContractViolation
from .maps import _halves

__all__ = [
    "generator",
    "SampleStream",
    "Feed",
    "BudgetCounter",
    "ZeroNoise",
    "AdditiveGaussian",
    "MatrixPerturbation",
    "StochasticOracle",
    "batch_mean",
    "ledger",
]


def _check_key(key):
    """Raise :class:`ContractViolation` unless every entry of ``key`` is
    an integer in ``[0, 2**64)``."""
    if not all(isinstance(v, numbers.Integral) and 0 <= v < 2**64
               for v in key):
        raise ContractViolation(
            f"stream keys must be integers in [0, 2**64); got {key}")


def generator(*key):
    """Philox generator keyed by ``key``, integers in ``[0, 2**64)``;
    equal keys give equal draws. Any other key raises
    :class:`ContractViolation`."""
    _check_key(key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


# drawn values per chunk of steps, a block: 128 KB of doubles. A batch
# past a block is a chunk of one step
BLOCK = 2**14
# values per part of a payoff group summed past a block: 512 KB of
# doubles, a quarter of a core's 2 MB L2
PART = 2**16


class SampleStream:
    """The values of one stream in the order a run draws them.

    ``fill(out)`` writes a generator's next ``out.size`` values into
    ``out``; a noise model's ``sampler(gen)`` gives it for ``gen``.
    ``served`` counts the values the stream has served, and ``key`` is
    the Philox key it reads.
    """

    __slots__ = ("_fill", "served", "key")

    def __init__(self, fill, key):
        self._fill = fill
        self.served = 0
        self.key = key

    def take_into(self, out):
        """Write the next ``out.size`` values into ``out``, a C-contiguous
        float64 array, in its element order, and return it."""
        self.served += out.size
        self._fill(out)
        return out


class Feed:
    """The batches of one stream for a run whose batch sizes are known.

    ``sizes`` is the run's list of batch sizes in order, and the feed
    keeps the index of the first step it has not prepared.
    ``noise.prepare(stream, sizes, at, dim)`` forms the
    iterate-independent parts of a chunk of steps from index ``at`` on
    and returns their count and their parts, an array made for the
    chunk or the only view of one. :meth:`next` serves the parts one
    step after the other, so the stream is read only for the steps of
    ``sizes`` and in their order.

    A feed with a ``tape``, a list, appends each chunk it prepares to it
    as ``(sizes, parts)``, the parts made read-only. A feed without a
    stream replays such a list: it serves the recorded chunks in order,
    reads no stream and prepares nothing. :meth:`StochasticOracle.feeds`
    keeps a run's two lists in its tape.

    A run's scratch lives on its feeds, which one run reads on one
    thread, so no other run sees it; the problem's map, set, noise model
    and oracle keep nothing between calls. ``scratch`` is the noise
    model's: what it builds for the run between calls, such as
    ``MatrixPerturbation``'s noise vector. ``views`` is the mean map's:
    the views a ``BimatrixMap`` keeps of the run's point and output
    buffers (:mod:`svilab.maps`). Each starts as a tuple whose first
    entry is no point.
    """

    __slots__ = ("_noise", "_stream", "_sizes", "_at", "_dim", "_chunk",
                 "_tape", "scratch", "views")

    def __init__(self, noise, stream, sizes, dim, tape=None):
        self._noise = noise
        self._stream = stream
        self._sizes = sizes
        self._at = 0
        self._dim = dim
        self._chunk = iter(())
        self._tape = iter(tape) if stream is None else tape
        self.scratch = (None,)
        self.views = (None, None, None, None)

    def next(self, n):
        """The prepared part of the next step's batch, which must hold
        ``n`` samples. The caller only reads it: a taped part is
        read-only."""
        for size, part in self._chunk:
            break
        else:
            size, part = self._refill()
        if n != size:
            raise ContractViolation(
                f"the feed's next batch holds {size} samples, not {n}")
        return part

    def _refill(self):
        # let the used chunk go before the next one is made
        self._chunk = iter(())
        if self._stream is None:
            sizes, parts = next(self._tape, (None, None))
            if sizes is None:
                raise ContractViolation("the feed has no step left")
        else:
            at = self._at
            if at == len(self._sizes):
                raise ContractViolation("the feed has no step left")
            count, parts = self._noise.prepare(self._stream, self._sizes,
                                               at, self._dim)
            self._at = at + count
            sizes = self._sizes[at:self._at]
            if self._tape is not None:
                # no reader can change what the tape replays
                parts.flags.writeable = False
                self._tape.append((sizes, parts))
        self._chunk = zip(sizes, parts)
        return next(self._chunk)


class BudgetCounter:
    """Mutable ledger of single-sample oracle evaluations.

    ``consumed`` only ever grows and never exceeds ``limit``, a positive
    whole number or ``math.inf``; any other limit (a fraction, zero, a
    negative number, ``-math.inf``, nan) raises ``ValueError`` naming
    it. A whole float such as ``1e6`` is kept as the int it equals.
    :meth:`charge` takes an integer (``operator.index``), so a fraction
    raises ``TypeError`` rather than being rounded. A request that would
    overshoot raises :class:`BudgetExhausted` and leaves the counter
    untouched. A solver charges it once per run, its planned cost,
    before its first draw.
    """

    def __init__(self, limit):
        if limit != math.inf:
            whole = limit
            if isinstance(whole, float) and whole.is_integer():
                whole = int(whole)
            try:
                whole = operator.index(whole)
            except TypeError:
                whole = 0
            if whole < 1:
                raise ValueError("budget limit must be a positive whole"
                                 f" number or math.inf; got {limit!r}")
            limit = whole
        self.limit = limit
        self.consumed = 0

    @property
    def remaining(self):
        return self.limit - self.consumed

    def charge(self, n):
        n = operator.index(n)
        if n < 0:
            raise ContractViolation("cannot charge a negative sample count")
        if self.consumed + n > self.limit:
            raise BudgetExhausted(self.consumed, n, self.limit)
        self.consumed += n

    def __repr__(self):
        return f"BudgetCounter(consumed={self.consumed}, limit={self.limit})"


@dataclass(frozen=True)
class ZeroNoise:
    """Degenerate noise model: samples equal the mean map exactly."""

    def variance_bound(self, dim):
        return 0.0

    def sampler(self, gen):
        # its noise_sum reads no feed, so it prepares nothing
        # and its streams are never read
        return None

    def noise_sum(self, x, n, feed):
        """Zeros: the noise part of every batch mean."""
        return np.zeros_like(x)


@dataclass(frozen=True)
class AdditiveGaussian:
    """Additive isotropic Gaussian noise with standard deviation ``sigma``."""

    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be nonnegative")
        object.__setattr__(self, "sigma", float(self.sigma))

    def variance_bound(self, dim):
        return self.sigma**2 * dim

    def sampler(self, gen):
        """Fill of standard normal values from ``gen``."""
        def fill(out):
            gen.standard_normal(out=out)
        return fill

    def prepare(self, stream, sizes, at, dim):
        # the sum of n iid N(0, sigma^2 I) vectors is N(0, n sigma^2 I),
        # so a single scaled draw has exactly the right law. One multiply
        # scales a chunk of steps, each row by its own sigma * sqrt(n),
        # and one division turns each sum into its mean. Each n is
        # rounded to the nearest double, as math.sqrt and a division by
        # n round it, and np.sqrt is correctly rounded like math.sqrt;
        # dividing by 1.0 is exact
        steps = sizes[at:at + max(1, BLOCK // dim)]
        count = len(steps)
        counts = np.array(steps, dtype=np.float64)[:, None]
        parts = stream.take_into(np.empty((count, dim)))
        parts *= self.sigma * np.sqrt(counts)
        parts /= counts
        return count, parts

    def noise_sum(self, x, n, feed):
        """The noise part of the mean of ``n`` samples at ``x``,
        ``(sigma * sqrt(n) * z) / n``: the batch mean minus ``F(x)``.
        It is ``feed``'s next prepared row, which the caller only reads.
        """
        return feed.next(n)


@dataclass(frozen=True)
class MatrixPerturbation:
    """Payoff-matrix noise for the bimatrix game.

    Each sample perturbs the mean payoff matrix by ``scale * E`` with E
    entries i.i.d. uniform on [-1, 1], so the sampled map at z = (x, y)
    gains the term ``scale * (E^T y, -E x)``.

    The model keeps nothing between calls: the halves of a run's point
    and its noise vector live on the run's feed (:attr:`Feed.scratch`).
    """

    rows: int
    cols: int
    scale: float

    def __post_init__(self):
        if int(self.rows) < 1 or int(self.cols) < 1:
            raise ValueError("matrix dimensions must be positive")
        if not (np.isfinite(self.scale) and self.scale >= 0):
            raise ValueError("scale must be nonnegative")
        object.__setattr__(self, "rows", int(self.rows))
        object.__setattr__(self, "cols", int(self.cols))
        object.__setattr__(self, "scale", float(self.scale))
        # matrices per summed group of a batch past one block: about
        # 2**18 values (2 MB), each group drawn PART values at a time
        object.__setattr__(self, "_chunk",
                           max(1, 262144 // (self.rows * self.cols)))
        object.__setattr__(self, "_scale", np.array(self.scale))

    def variance_bound(self, dim):
        # E|E_ij|^2 = 1/3; on the product of simplices |x|, |y| <= 1
        return self.scale**2 * (self.rows + self.cols) / 3.0

    def sampler(self, gen):
        """Fill of ``gen.uniform(-1.0, 1.0, size)``'s values, in place."""
        def fill(out):
            gen.random(out=out)
            out *= 2.0
            out -= 1.0
        return fill

    def prepare(self, stream, sizes, at, dim):
        # the scaled sums E_1 + ... + E_n of the coming batches
        rows, cols = self.rows, self.cols
        size = rows * cols
        n = sizes[at]
        count = 1
        if n * size > BLOCK:
            parts = self._sum(stream, n)[None]
        else:
            # the run of equal sizes from index at that a block holds;
            # summing the middle axis adds each step's matrices in the
            # order a (n, rows, cols) sum over its first axis adds them
            stop = min(len(sizes) - at, BLOCK // (n * size))
            while count < stop and sizes[at + count] == n:
                count += 1
            drawn = stream.take_into(np.empty((count, n, rows, cols)))
            if n == 1:
                parts = drawn.reshape(count, rows, cols)
            else:
                parts = drawn.sum(axis=1)
        parts *= self._scale
        return count, parts

    def _sum(self, stream, n):
        # one batch past a block: the sums of its groups of _chunk
        # matrices, added in order. A group is drawn a part of at most
        # PART values at a time into rows 1.. of one buffer, and row 0
        # carries the group's sum so far, so each part's axis-0 sum goes
        # on adding the matrices in the order one axis-0 sum over the
        # whole group adds them
        rows, cols = self.rows, self.cols
        size = rows * cols
        part = min(n, self._chunk, max(1, PART // size))
        buf = np.empty((part + 1, rows, cols))
        e_sum = None
        left = n
        while left > 0:
            group = min(left, self._chunk)
            left -= group
            first = 1  # row 0 carries nothing yet
            while group > 0:
                k = min(group, part)
                group -= k
                stream.take_into(buf[1:k + 1])
                g_sum = buf[first:k + 1].sum(axis=0)
                buf[0] = g_sum
                first = 0
            if e_sum is None:
                e_sum = g_sum
            else:
                e_sum += g_sum
        return e_sum

    def noise_sum(self, z, n, feed):
        """The noise part of the mean of ``n`` samples at ``z``, the batch
        mean minus ``F(z)``: ``(S^T y, -S x) / n`` for ``feed``'s next
        part ``S``, the batch's sum of ``scale * E``. It is written into
        and returned as the feed's noise vector, which the feed's next
        ``noise_sum`` overwrites: the caller reads it at once.
        """
        e_sum = feed.next(n)
        cols = self.cols
        # the feed's point and noise vector with their halves: the vector
        # made on the feed's first call, the point split when it changes
        kept = feed.scratch
        if z is not kept[0]:
            if kept[-1] is None:
                out = np.empty(self.rows + cols)
                kept = None, None, None, out[:cols], out[cols:], out
            kept = feed.scratch = (*_halves(z, cols), *kept[3:])
        _, head, tail, out_head, out_tail, out = kept
        # ndarray.dot is np.dot without its dispatch wrapper; y.dot(S)
        # gives the bits of S.T.dot(y) without a transposed view
        tail.dot(e_sum, out_head)
        e_sum.dot(head, out_tail)
        np.negative(out_tail, out=out_tail)
        if n > 1:
            out /= n
        return out


@dataclass(frozen=True, eq=False)
class StochasticOracle:
    """Sampled map ``G(x, xi)`` with mean ``mean_map`` and bounded noise.

    Problem data only: the run that samples it supplies the seed of its
    streams and charges its own ledger. An ``rng_seed`` that is not a
    stream key (:func:`generator`) raises :class:`ContractViolation`.
    ``mean_map`` must take ``out`` and ``feed`` as the maps of
    :mod:`svilab.maps` do: :func:`batch_mean` calls it as
    ``mean_map(x, out=..., feed=...)``.
    """

    mean_map: object
    noise_model: object
    rng_seed: int

    def __post_init__(self):
        _check_key((self.rng_seed,))

    def stream(self, seed, stream_id):
        """Fresh :class:`SampleStream` of run ``seed``'s stream
        ``stream_id`` in the noise model's distribution, keyed by
        ``(rng_seed, seed, stream_id)``."""
        key = (self.rng_seed, seed, stream_id)
        gen = generator(*key)
        return SampleStream(self.noise_model.sampler(gen), key)

    @contextmanager
    def feeds(self, streams, sizes, tape=None):
        """The :class:`Feed` of each of a run's stream pair ``streams``,
        both for the run's list of batch sizes ``sizes`` and both
        prepared on the calling thread.

        A ``tape``, a dict, shares those batches among the runs that
        would read the same ones. Its key is the run's noise model,
        dimension, two stream keys and the length of ``sizes``; its
        value, the two streams' lists of ``(sizes, parts)`` chunks, each
        ``parts`` an owned, read-only array. An empty tape records: it
        gets its one entry only once the run leaves the block having
        served every step of ``sizes``, so a run that raises or stops
        early leaves it empty. A tape holding the run's key is replayed:
        the feeds serve its chunks and read no stream, so the run draws
        nothing, and every part has the bits the recording run read. A
        tape recorded under another key raises
        :class:`ContractViolation`, and so does a replayed step of
        another size (:meth:`Feed.next`)."""
        noise, dim = self.noise_model, self.mean_map.dimension
        if tape is None:
            records = (None, None)
        else:
            key = (noise, dim, streams[0].key, streams[1].key, len(sizes))
            if tape:
                if key not in tape:
                    raise ContractViolation(
                        f"a tape recorded for {next(iter(tape))} cannot"
                        f" replay {key}")
                yield tuple(Feed(noise, None, (), dim, chunks)
                            for chunks in tape[key])
                return
            records = ([], [])
        fed = tuple(Feed(noise, stream, sizes, dim, chunks)
                    for stream, chunks in zip(streams, records))
        yield fed
        # recorded only if each feed prepared and served every step
        if tape is not None and all(
                feed._at == len(sizes) and next(feed._chunk, None) is None
                for feed in fed):
            tape[key] = records

    @property
    def variance_bound(self):
        return self.noise_model.variance_bound(self.mean_map.dimension)


def batch_mean(oracle, x, n, feed, *, out=None):
    """Average of ``n`` fresh samples ``G(x, xi_j)``, the next batch of
    ``feed`` (a :class:`Feed`): ``F(x)``, which the mean map forms with
    the views it keeps on ``feed``, plus the noise model's ``noise_sum``,
    the noise part of the mean.

    The mean is written into ``out``, a float64 vector of ``x``'s size
    that does not overlap ``x``, and returned; without ``out`` it is a
    fresh array. Either way the caller may overwrite it. ``n`` is an
    integer or a 0-d integer array; anything else raises TypeError.
    Charges nothing: the solver pays for its whole run before its first
    draw.
    """
    count = operator.index(n)
    if count < 1:
        raise ContractViolation(f"batch size must be >= 1, got {count}")
    # a call through __call__ itself: calling the instance with a keyword
    # goes through the type's call slot, which costs about 0.35 us more
    estimate = oracle.mean_map.__call__(x, out=out, feed=feed)
    estimate += oracle.noise_model.noise_sum(x, count, feed)
    return estimate


def ledger(budget):
    """The counter a solver charges: ``budget`` itself, or a fresh one
    with no cap when it is None."""
    return BudgetCounter(math.inf) if budget is None else budget
