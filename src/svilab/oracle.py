"""Stochastic first-order oracle and the sample-budget ledger.

A :class:`StochasticOracle` pairs a mean map ``F`` with a noise model so
that single samples ``G(x, xi)`` are unbiased (``E[G(x, xi)] = F(x)``)
with variance bounded uniformly over the feasible set. It is problem
data: a run charges its own :class:`BudgetCounter` for each step before
drawing, and :func:`batch_mean` only averages.

Randomness is counter-based: a run's streams are Philox generators keyed
by ``(rng_seed, seed, stream_id)`` with the run's own ``seed``, so
repeated trials and the two batch kinds of one iteration never share
draws.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, ContractViolation

__all__ = [
    "generator",
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

    def noise_sum(self, x, n, stream):
        # the sum of n iid N(0, sigma^2 I) vectors is N(0, n sigma^2 I),
        # so a single scaled draw has exactly the right law
        return (self.sigma * np.sqrt(n)) * stream.standard_normal(x.size)


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
        # matrices per uniform draw: about 2 MB of doubles at a time
        object.__setattr__(self, "_chunk",
                           max(1, 262144 // (self.rows * self.cols)))

    def variance_bound(self, dim):
        # E|E_ij|^2 = 1/3; on the product of simplices |x|, |y| <= 1
        return self.scale**2 * (self.rows + self.cols) / 3.0

    def noise_sum(self, z, n, stream):
        rows, cols = self.rows, self.cols
        if n == 1:
            e_sum = stream.uniform(-1.0, 1.0, (rows, cols))
        else:
            c = min(n, self._chunk)
            e_sum = stream.uniform(-1.0, 1.0, (c, rows, cols)).sum(axis=0)
            left = n - c
            while left > 0:
                c = min(left, self._chunk)
                e_sum += stream.uniform(-1.0, 1.0, (c, rows, cols)).sum(axis=0)
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
        """Fresh generator of run ``seed``'s stream ``stream_id``, keyed
        by ``(rng_seed, seed, stream_id)``."""
        return generator(self.rng_seed, seed, stream_id)

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
