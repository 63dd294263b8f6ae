"""Stochastic first-order oracle and the sample-budget ledger.

A :class:`StochasticOracle` pairs a mean map ``F`` with a noise model so
that single samples ``G(x, xi)`` are unbiased (``E[G(x, xi)] = F(x)``)
with variance bounded uniformly over the feasible set. It is problem
data: a run charges its own :class:`BudgetCounter` for each step before
drawing, and :func:`batch_mean` only averages.

Randomness is counter-based: a run's streams draw from Philox generators
keyed by ``(rng_seed, seed, stream_id)`` with the run's own ``seed``, so
repeated trials and the two batch kinds of one iteration never share
draws.

A :class:`SampleStream` draws in blocks: it has Philox fill ``BLOCK``
values of its noise model's distribution at a time and serves each
batch as a slice of the current block, so a batch of a few samples
costs a slice, not a call into numpy's generator. This does not change
a single value. Philox makes one 64-bit word per double and keeps its
unused words between calls, and ``random`` and ``standard_normal``
fill their output one element after the other, so filling ``a`` values
and then ``b`` values gives the numbers one fill of ``a + b`` gives.
A U(-1, 1) fill, ``random`` then ``2u - 1``, has the bits of ``uniform``'s
``-1.0 + 2.0 * u``: both are exact for every ``u`` on the 2**-53 grid.

A solver knows its batch sizes before its first draw, so it reads each
stream through a :class:`Feed` of those sizes. The feed prepares the
part of the coming batches that does not depend on the iterate, for the
steps that fit in what is left of the stream's block, in one numpy pass
(a step across the block's end is a chunk of its own, and the only one
copied): the Gaussian noise parts of the batch means,
``(sigma * sqrt(n) * z) / n``, or the scaled sums of a run of
equal-size batches of payoff perturbations. A payoff batch past a
block is summed in groups of about 2**18 values, and each group is
drawn ``PART`` values at a time into one buffer whose first row carries
the group's sum so far, so only 512 KB of drawn values are held at a
time. ``noise_sum`` then returns the noise part of one batch mean, the
mean minus ``F(x)``: a Gaussian step's is its prepared row, and a
payoff step's is formed at the iterate and divided by ``n``.
:func:`batch_mean` adds ``F(x)`` to it.
The bits do not move either: the chunk takes the values that
step-by-step draws would take, in the same order, and forms each step's
part with the same floating-point operations in the same order (an
axis-0 sum adds its rows one after the other, so a part's sum from the
carried row goes on where the group's sum stopped); a bare stream
passed to ``noise_sum`` is read as a feed of one step.

A run's two streams are independent, so :meth:`StochasticOracle.feeds`
gives the second one's feed a helper thread of the run's own. That feed
runs ahead: once a chunk it served drew more than one ``BLOCK`` of
values (a batch past a block), it has the helper prepare its next step
while the run goes on, and Philox fills with the GIL released, so the
two streams fill on two cores. The helper is then the stream's only
reader until the run asks for that step, and it reads the values the
run would read, in the same order, with the same operations, so not a
bit moves either. The helper, and the import of ``concurrent.futures``,
come with the feed's first run-ahead: a run whose batches all fit in a
block starts no thread and loads no executor.

Runs that would read the same batches (same noise model, dimension,
stream keys and batch sizes, as the rows of one extragradient trial
seed in the harness) can share them through a :class:`Tape`. The first
run's feeds record each chunk they prepare, as owned, read-only arrays;
the feeds of the others replay those chunks, so those runs draw nothing.
Neither kind starts a helper: the recording run fills for its whole
group, so it fills on its own thread, and its time does not depend on
the load of a second core. A replayed part is the part the recording
run read, so not a bit moves either.
"""

from __future__ import annotations

import math
import numbers
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import BudgetExhausted, ContractViolation

__all__ = [
    "generator",
    "SampleStream",
    "Feed",
    "Tape",
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


# values per Philox block: 128 KB of doubles
BLOCK = 2**14
# values per part of a payoff group summed past a block: 512 KB of
# doubles, a quarter of a core's 2 MB L2
PART = 2**16
_EMPTY = np.empty(0)


class SampleStream:
    """The values of one stream in the order a run draws them.

    ``fill(out)`` writes a generator's next ``out.size`` values into
    ``out``; a noise model's ``sampler(gen)`` gives it for ``gen``. The
    stream fills one ``BLOCK`` at a time and serves :meth:`take` from
    the current block. :meth:`take_into` serves a caller's array: the
    block's leftover values first, then what remains from a fresh block,
    which it keeps, or, if that is at least one block, a fill of the
    array itself. A :meth:`take` that does not fit the block is a
    :meth:`take_into` of a fresh array. ``served`` counts the values it
    has served, and ``key`` is the Philox key it reads.
    """

    __slots__ = ("_fill", "_block", "_next", "served", "key")

    def __init__(self, fill, key):
        self._fill = fill
        self._block = _EMPTY
        self._next = 0
        self.served = 0
        self.key = key

    @property
    def room(self):
        """How many values :meth:`take` can serve next without a copy."""
        return self._block.size - self._next or BLOCK

    def take(self, count):
        """The next ``count`` values. The result may be a view of the
        block; the stream never serves those values again, so the caller
        may overwrite them."""
        start = self._next
        end = start + count
        if end > self._block.size:
            if start < self._block.size or count >= BLOCK:
                return self.take_into(np.empty(count))
            self._refill()
            start, end = 0, count
        self.served += count
        self._next = end
        return self._block[start:end]

    def take_into(self, out):
        """Write the next ``out.size`` values into ``out``, a contiguous
        float64 vector, and return it."""
        self.served += out.size
        start = self._next
        left = min(self._block.size - start, out.size)
        out[:left] = self._block[start:start + left]
        self._next = start + left
        rest = out[left:]
        if rest.size >= BLOCK:
            self._block, self._next = _EMPTY, 0
            self._fill(rest)
        elif rest.size:
            self._refill()
            self._next = rest.size
            rest[...] = self._block[:rest.size]
        return out

    def _refill(self):
        self._block = np.empty(BLOCK)
        self._fill(self._block)
        self._next = 0


class Feed:
    """The batches of one stream for a run whose batch sizes are known.

    ``sizes`` gives the run's batch sizes in order; the feed reads it
    once, as far as it has prepared. ``noise.prepare(stream, first,
    sizes, dim)`` forms the iterate-independent parts of a chunk of
    steps, the first of size ``first`` and the rest read from ``sizes``,
    and returns their sizes, their parts and the size it read past the
    chunk, or None. :meth:`next` serves the parts one step after the
    other, so the stream is read only for the steps of ``sizes`` and in
    their order.

    A feed with a ``helper``, an executor of one thread, runs ahead:
    once the chunk it serves drew more than one ``BLOCK`` of values, it
    reads the next size itself and submits that step's ``prepare`` to
    the helper. At most one chunk is in flight, and the feed takes its
    result before it prepares anything else, so while a prepare is in
    flight the helper is the stream's only reader, and the stream is
    still read in the order of ``sizes``.

    A feed with a ``tape``, a list, appends each chunk it prepares to it
    as ``(sizes, parts)``, the parts copied if they view a stream block
    or a summing buffer, and read-only. A feed without a stream replays
    such a ``tape``: it serves the recorded chunks in order, reads no
    stream and prepares nothing.
    """

    __slots__ = ("_noise", "_stream", "_sizes", "_dim", "_ahead", "_chunk",
                 "_helper", "_pending", "_served", "_tape")

    def __init__(self, noise, stream, sizes, dim, helper=None, tape=None):
        self._noise = noise
        self._stream = stream
        self._sizes = iter(sizes)
        self._dim = dim
        self._ahead = None
        self._chunk = iter(())
        self._helper = helper
        self._pending = None
        self._served = 0 if stream is None else stream.served
        self._tape = iter(tape) if stream is None else tape

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
        # let the used chunk, and the stream block it may view, go first
        self._chunk = iter(())
        if self._stream is None:
            sizes, parts = next(self._tape, (None, None))
            if sizes is None:
                raise ContractViolation("the feed has no step left")
        else:
            if self._pending is None:
                first = self._next_size()
                if first is None:
                    raise ContractViolation("the feed has no step left")
                chunk = self._noise.prepare(self._stream, first, self._sizes,
                                            self._dim)
            else:
                chunk, self._pending = self._pending.result(), None
            sizes, parts, self._ahead = chunk
            if self._tape is not None:
                parts = _owned(parts)
                self._tape.append((sizes, parts))
            if self._helper is not None:
                self._run_ahead()
        self._chunk = zip(sizes, parts)
        return next(self._chunk)

    def _next_size(self):
        first, self._ahead = self._ahead, None
        return next(self._sizes, None) if first is None else first

    def _run_ahead(self):
        served, self._served = self._served, self._stream.served
        if self._served - served <= BLOCK:
            return
        # this thread reads the size and the helper reads none: sizes may
        # walk a Schedule, whose shared size list only its walker extends
        first = self._next_size()
        if first is not None:
            self._pending = self._helper.submit(
                self._noise.prepare, self._stream, first, (), self._dim)


class _Helper:
    """A feed's helper: an executor of one thread, created at the first
    :meth:`submit`, so a run that never runs ahead imports no
    ``concurrent.futures`` and starts no thread. :meth:`close` joins the
    thread, if there is one."""

    __slots__ = ("_pool",)

    def __init__(self):
        self._pool = None

    def submit(self, fn, *args):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=1)
        return self._pool.submit(fn, *args)

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()


def _owned(parts):
    # a tape's copy of a chunk's parts: it keeps no stream block or
    # summing buffer alive, and no reader can change what it replays
    if parts.base is not None:
        parts = parts.copy()
    parts.flags.writeable = False
    return parts


class Tape:
    """The prepared chunks of one run's two streams, for the runs that
    would read the same batches.

    Handed blank to :meth:`StochasticOracle.feeds`, a tape records each
    stream's chunks as its feed prepares them, both on the calling
    thread, with no helper. It is registered, with
    the run's ``key`` (noise model, dimension, the two stream keys and
    the step count), only once the run has served all its steps, so a
    run that raises leaves it blank. A registered tape is replayed: the
    run's feeds serve its chunks and read no stream, so the run draws
    nothing and starts no helper, and every part has the bits the
    recording run read. A replay whose key differs raises
    :class:`ContractViolation`, and so does a step of another size
    (:meth:`Feed.next`). ``streams`` holds the two streams' lists of
    ``(sizes, parts)``, each ``parts`` an owned, read-only array.
    """

    __slots__ = ("key", "streams")

    def __init__(self):
        self.key = None
        self.streams = None


def _prepared(noise, x, n, source):
    # a bare stream is a feed of the one batch asked for
    if type(source) is SampleStream:
        source = Feed(noise, source, (n,), x.size)
    return source.next(n)


class BudgetCounter:
    """Mutable ledger of single-sample oracle evaluations.

    ``consumed`` only ever grows and never exceeds ``limit``, a positive
    integer or ``math.inf``. A request that would overshoot raises
    :class:`BudgetExhausted` and leaves the counter untouched.
    """

    def __init__(self, limit):
        if limit != math.inf:
            limit = int(limit)
        if not limit > 0:
            raise ValueError("budget limit must be positive")
        self.limit = limit
        self.consumed = 0

    @property
    def remaining(self):
        return self.limit - self.consumed

    def charge(self, n):
        n = int(n)
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
        # its noise_sum reads no stream or feed, so it prepares nothing
        # and its streams are never read
        return None

    def noise_sum(self, x, n, stream):
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

    def prepare(self, stream, first, sizes, dim):
        # the sum of n iid N(0, sigma^2 I) vectors is N(0, n sigma^2 I),
        # so a single scaled draw has exactly the right law. One multiply
        # scales a chunk of steps, each row by its own sigma * sqrt(n),
        # and one division turns each sum into its mean. Each n is
        # rounded to the nearest double, as math.sqrt and a division by
        # n round it, and np.sqrt is correctly rounded like math.sqrt;
        # dividing by 1.0 is exact
        steps = [first, *islice(sizes, max(1, stream.room // dim) - 1)]
        counts = np.array(steps, dtype=np.float64)[:, None]
        parts = stream.take(len(steps) * dim).reshape(len(steps), dim)
        parts *= self.sigma * np.sqrt(counts)
        parts /= counts
        return steps, parts, None

    def noise_sum(self, x, n, source):
        """The noise part of the mean of ``n`` samples at ``x``,
        ``(sigma * sqrt(n) * z) / n``: the batch mean minus ``F(x)``.
        It is the step's prepared row, which the caller only reads.
        """
        return _prepared(self, x, n, source)


@dataclass(frozen=True)
class MatrixPerturbation:
    """Payoff-matrix noise for the bimatrix game.

    Each sample perturbs the mean payoff matrix by ``scale * E`` with E
    entries i.i.d. uniform on [-1, 1], so the sampled map at z = (x, y)
    gains the term ``scale * (E^T y, -E x)``.
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

    def prepare(self, stream, first, sizes, dim):
        # the scaled sums E_1 + ... + E_n of the coming batches
        rows, cols = self.rows, self.cols
        size = rows * cols
        n = first
        count, ahead = 1, None
        if n * size > BLOCK:
            parts = self._sum(stream, n)[None]
        else:
            # the run of equal sizes from first that the stream's block
            # holds; summing the middle axis adds each step's matrices in
            # the order a (n, rows, cols) sum over its first axis adds them
            room = stream.room // (n * size)
            for m in sizes:
                if m != n or count >= room:
                    ahead = m
                    break
                count += 1
            drawn = stream.take(count * n * size)
            if n == 1:
                parts = drawn.reshape(count, rows, cols)
            else:
                parts = drawn.reshape(count, n, rows, cols).sum(axis=1)
        parts *= self._scale
        return [n] * count, parts, ahead

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
        flat = buf.reshape(-1)
        e_sum = None
        left = n
        while left > 0:
            group = min(left, self._chunk)
            left -= group
            first = 1  # row 0 carries nothing yet
            while group > 0:
                k = min(group, part)
                group -= k
                stream.take_into(flat[size:(k + 1) * size])
                g_sum = buf[first:k + 1].sum(axis=0)
                buf[0] = g_sum
                first = 0
            if e_sum is None:
                e_sum = g_sum
            else:
                e_sum += g_sum
        return e_sum

    def noise_sum(self, z, n, source):
        """The noise part of the mean of ``n`` samples at ``z``,
        ``scale * (E^T y, -E x) / n`` for the batch's sum ``E``: the
        batch mean minus ``F(z)``, as a fresh array.
        """
        e_sum = _prepared(self, z, n, source)
        cols = self.cols
        out = np.empty(z.size)
        tail = out[cols:]
        # ndarray.dot is np.dot without its dispatch wrapper
        e_sum.T.dot(z[cols:], out[:cols])
        e_sum.dot(z[:cols], tail)
        np.negative(tail, out=tail)
        if n > 1:
            out /= n
        return out


@dataclass(frozen=True, eq=False)
class StochasticOracle:
    """Sampled map ``G(x, xi)`` with mean ``mean_map`` and bounded noise.

    Problem data only: the run that samples it supplies the seed of its
    streams and charges its own ledger. An ``rng_seed`` that is not a
    stream key (:func:`generator`) raises :class:`ContractViolation`.
    ``mean_map`` must take ``out`` as the maps of :mod:`svilab.maps` do:
    :func:`batch_mean` calls it as ``mean_map(x, out=...)``.
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

    def feed(self, stream, sizes, helper=None, tape=None):
        """:class:`Feed` of ``stream`` for batches of ``sizes``, the
        batch sizes of one stream's draws in the order a run makes them,
        running ahead on ``helper`` if one is given and recording into
        or, without a stream, replaying ``tape``."""
        return Feed(self.noise_model, stream, sizes, self.mean_map.dimension,
                    helper, tape)

    @contextmanager
    def feeds(self, streams, schedule, steps, tape=None):
        """The feeds of a run's stream pair ``streams``, each for the
        first ``steps`` sizes of ``schedule``. The first stream is
        prepared on the calling thread; the second's feed runs ahead on
        the run's one helper thread, so at most two threads are busy.
        The helper is created, and ``concurrent.futures`` imported, at
        the feed's first run-ahead, so a run whose batches all fit in a
        block has none. It is joined on exit, also when the run raises:
        it never outlives the run.

        With a :class:`Tape`, a blank tape records the two feeds'
        chunks and is registered when the run leaves the block having
        served all ``steps`` steps; a registered tape of the same key is
        replayed instead. Neither starts a helper: a recording run
        prepares both streams on the calling thread, so the time of the
        run that fills for its whole group does not hang on whether a
        second core is free."""
        if tape is None:
            records = (None, None)
        else:
            key = (self.noise_model, self.mean_map.dimension,
                   streams[0].key, streams[1].key, steps)
            if tape.key is not None:
                if key != tape.key:
                    raise ContractViolation(
                        f"a tape recorded for {tape.key} cannot replay"
                        f" {key}")
                yield tuple(self.feed(None, (), tape=chunks)
                            for chunks in tape.streams)
                return
            records = ([], [])
        helper = _Helper() if tape is None else None
        fed = (self.feed(streams[0], islice(schedule, steps), tape=records[0]),
               self.feed(streams[1], islice(schedule, steps), helper,
                         records[1]))
        try:
            yield fed
        finally:
            if helper is not None:
                helper.close()
        # registered only if each feed prepared and served every step
        if tape is not None and all(
                sum(len(sizes) for sizes, _ in chunks) == steps
                and next(feed._chunk, None) is None
                for feed, chunks in zip(fed, records)):
            tape.key, tape.streams = key, records

    @property
    def variance_bound(self):
        return self.noise_model.variance_bound(self.mean_map.dimension)


def batch_mean(oracle, x, n, stream, *, out=None):
    """Average of ``n`` fresh samples ``G(x, xi_j)`` from ``stream``, a
    :class:`SampleStream` or a :class:`Feed`: ``F(x)`` plus the noise
    model's ``noise_sum``, the noise part of the mean.

    The mean is written into ``out``, a float64 vector of ``x``'s size
    that does not overlap ``x``, and returned; without ``out`` it is a
    fresh array. Either way the caller may overwrite it. ``n`` is an
    integer or a 0-d integer array; anything else raises TypeError.
    Charges nothing: the solver pays for a step's batches before drawing
    the first of them.
    """
    count = operator.index(n)
    if count < 1:
        raise ContractViolation(f"batch size must be >= 1, got {count}")
    # a call through __call__ itself: calling the instance with a keyword
    # goes through the type's call slot, which costs about 0.35 us more
    estimate = oracle.mean_map.__call__(x, out=out)
    estimate += oracle.noise_model.noise_sum(x, count, stream)
    return estimate


def ledger(budget):
    """The counter a solver charges: ``budget`` itself, or a fresh one
    with no cap when it is None."""
    return BudgetCounter(math.inf) if budget is None else budget
