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

A :class:`SampleStream` draws in blocks: it asks Philox for ``BLOCK``
values of its noise model's distribution at a time and serves each
batch as a slice of the current block, so a batch of a few samples
costs a slice, not a call into numpy's generator. This does not change
a single value. Philox makes one 64-bit word per double and keeps its
unused words between calls, and ``uniform`` and ``standard_normal``
fill their output one element after the other, so drawing ``a`` values
and then ``b`` values gives the numbers one draw of ``a + b`` gives.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BudgetExhausted, ContractViolation

__all__ = [
    "generator",
    "SampleStream",
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
_EMPTY = np.empty(0)


class SampleStream:
    """The values of one stream in the order a run draws them.

    ``draw(size)`` returns the next ``size`` values of a generator; a
    noise model's ``sampler(gen)`` gives it for ``gen``. The stream
    calls it for one ``BLOCK`` at a time and serves :meth:`take` from
    the current block. A request at least one block long is drawn
    directly, after the block's leftover values, and is not kept.
    """

    __slots__ = ("_draw", "_block", "_next")

    def __init__(self, draw):
        self._draw = draw
        self._block = _EMPTY
        self._next = 0

    def take(self, count):
        """The next ``count`` values. The result may be a view of the
        block; the stream never serves those values again, so the caller
        may overwrite them."""
        start = self._next
        end = start + count
        block = self._block
        if end <= block.size:
            self._next = end
            return block[start:end]
        left = block[start:]
        if count < BLOCK:
            self._block = block = self._draw(BLOCK)
            self._next = count - left.size
            fresh = block[:self._next]
            return np.concatenate((left, fresh)) if left.size else fresh
        self._block, self._next = _EMPTY, 0
        if not left.size:
            return self._draw(count)
        # the leftover values, then fresh ones a block at a time: a whole
        # direct draw would sit next to its copy, two buffers of the
        # request's size that the allocator frees to the system and
        # faults back in on each such request
        out = np.empty(count)
        filled = left.size
        out[:filled] = left
        while filled < count:
            piece = min(BLOCK, count - filled)
            out[filled:filled + piece] = self._draw(piece)
            filled += piece
        return out


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
        # its noise_sum draws nothing, so its streams are never read
        return None

    def noise_sum(self, x, n, stream):
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
        return gen.standard_normal

    def noise_sum(self, x, n, stream):
        # the sum of n iid N(0, sigma^2 I) vectors is N(0, n sigma^2 I),
        # so a single scaled draw has exactly the right law
        return (self.sigma * math.sqrt(n)) * stream.take(x.size)


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
        # matrices per take: about 2 MB of doubles at a time
        object.__setattr__(self, "_chunk",
                           max(1, 262144 // (self.rows * self.cols)))

    def variance_bound(self, dim):
        # E|E_ij|^2 = 1/3; on the product of simplices |x|, |y| <= 1
        return self.scale**2 * (self.rows + self.cols) / 3.0

    def sampler(self, gen):
        return partial(gen.uniform, -1.0, 1.0)

    def noise_sum(self, z, n, stream):
        rows, cols = self.rows, self.cols
        size = rows * cols
        if n == 1:
            e_sum = stream.take(size).reshape(rows, cols)
        else:
            c = min(n, self._chunk)
            e_sum = stream.take(c * size).reshape(c, rows, cols).sum(axis=0)
            left = n - c
            while left > 0:
                c = min(left, self._chunk)
                e_sum += stream.take(c * size).reshape(c, rows, cols).sum(axis=0)
                left -= c
        e_sum *= self.scale
        out = np.empty(z.size)
        tail = out[cols:]
        # ndarray.dot is np.dot without its dispatch wrapper
        e_sum.T.dot(z[cols:], out[:cols])
        e_sum.dot(z[:cols], tail)
        np.negative(tail, out=tail)
        return out


@dataclass(frozen=True, eq=False)
class StochasticOracle:
    """Sampled map ``G(x, xi)`` with mean ``mean_map`` and bounded noise.

    Problem data only: the run that samples it supplies the seed of its
    streams and charges its own ledger. An ``rng_seed`` that is not a
    stream key (:func:`generator`) raises :class:`ContractViolation`.
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
        gen = generator(self.rng_seed, seed, stream_id)
        return SampleStream(self.noise_model.sampler(gen))

    @property
    def variance_bound(self):
        return self.noise_model.variance_bound(self.mean_map.dimension)


def batch_mean(oracle, x, n, stream):
    """Average of ``n`` fresh samples ``G(x, xi_j)`` from ``stream``,
    as a new array.

    Charges nothing: the solver pays for a step's batches before drawing
    the first of them.
    """
    n = int(n)
    if n < 1:
        raise ContractViolation(f"batch size must be >= 1, got {n}")
    # noise_sum returns a fresh buffer, so the average is formed in place
    estimate = oracle.noise_model.noise_sum(x, n, stream)
    if n > 1:
        estimate /= n
    estimate += oracle.mean_map(x)
    return estimate


def ledger(budget):
    """The counter a solver charges: ``budget`` itself, or a fresh one
    with no cap when it is None."""
    return BudgetCounter(math.inf) if budget is None else budget
