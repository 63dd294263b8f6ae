"""Stochastic first-order oracle with budget accounting.

A :class:`StochasticOracle` pairs a mean map ``F`` with a noise model so
that single samples ``G(x, xi)`` are unbiased (``E[G(x, xi)] = F(x)``)
with variance bounded uniformly over the feasible set. Batches are
averaged by :func:`batch_mean`, which also advances the oracle's
:class:`BudgetCounter`: a batch either fits in the remaining budget or
is refused wholesale.

Randomness is counter-based: every stream is keyed by
``(rng_seed, trial, stream_id)`` through a Philox generator, so parallel
trials and the two batch kinds inside one solver iteration never share
draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetExhausted, ContractViolation
from .maps import ShiftedMap

__all__ = [
    "SampleStream",
    "BudgetCounter",
    "ZeroNoise",
    "AdditiveGaussian",
    "MatrixPerturbation",
    "StochasticOracle",
    "batch_mean",
    "shift",
]

_MASK64 = (1 << 64) - 1


class SampleStream:
    """Counter-based random stream keyed by (seed, *key)."""

    def __init__(self, seed, *key):
        entropy = tuple(int(v) & _MASK64 for v in (seed, *key))
        self._rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))

    def standard_normal(self, size):
        return self._rng.standard_normal(size)

    def uniform(self, low, high, size):
        return self._rng.uniform(low, high, size)


class BudgetCounter:
    """Mutable ledger of single-sample oracle evaluations.

    ``consumed`` only ever grows and never exceeds ``limit``. A request
    that would overshoot raises :class:`BudgetExhausted` and leaves the
    counter untouched.
    """

    def __init__(self, limit):
        limit = int(limit)
        if limit <= 0:
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

    def variance_bound(self, dim):
        # E|E_ij|^2 = 1/3; on the product of simplices |x|, |y| <= 1
        return self.scale**2 * (self.rows + self.cols) / 3.0

    def noise_sum(self, z, n, stream):
        cols = self.cols
        if n == 1:
            e_sum = stream.uniform(-1.0, 1.0, (self.rows, cols))
        else:
            e_sum = np.zeros((self.rows, cols))
            chunk = max(1, 262144 // (self.rows * cols))
            left = n
            while left > 0:
                c = min(left, chunk)
                e_sum += stream.uniform(-1.0, 1.0, (c, self.rows, cols)).sum(axis=0)
                left -= c
        e_sum *= self.scale
        out = np.empty_like(z)
        np.matmul(e_sum.T, z[cols:], out=out[:cols])
        np.matmul(e_sum, z[:cols], out=out[cols:])
        np.negative(out[cols:], out=out[cols:])
        return out


@dataclass(frozen=True, eq=False)
class StochasticOracle:
    """Sampled map ``G(x, xi)`` with mean ``mean_map`` and bounded noise.

    ``trial`` partitions randomness across repeated runs of one
    experiment cell; ``budget`` (optional) is the counter charged by
    :func:`batch_mean`. Both are carried as plain fields so oracles stay
    cheap to clone.
    """

    mean_map: object
    noise_model: object
    rng_seed: int
    trial: int = 0
    budget: BudgetCounter = None

    def stream(self, stream_id):
        """Fresh sample stream keyed by (rng_seed, trial, stream_id)."""
        return SampleStream(self.rng_seed, self.trial, stream_id)

    def for_trial(self, trial):
        return replace(self, trial=int(trial))

    def with_budget(self, counter):
        return replace(self, budget=counter)

    @property
    def variance_bound(self):
        return self.noise_model.variance_bound(self.mean_map.dimension)


def batch_mean(oracle, x, n, stream):
    """Average of ``n`` fresh samples ``G(x, xi_j)`` from ``stream``.

    Returns ``(estimate, calls)`` with ``calls = n``. Charges the
    oracle's budget (when attached) before drawing; a refused charge
    propagates :class:`BudgetExhausted` with the counter unchanged.
    """
    n = int(n)
    if n < 1:
        raise ContractViolation(f"batch size must be >= 1, got {n}")
    if oracle.budget is not None:
        oracle.budget.charge(n)
    # noise_sum returns a fresh buffer, so the average is formed in place
    estimate = oracle.noise_model.noise_sum(x, n, stream)
    if n > 1:
        estimate /= n
    estimate += oracle.mean_map(x)
    return estimate, n


def shift(oracle, lam, center):
    """Oracle of the proximal subproblem ``G(x, xi) + (1/lam)(x - center)``.

    The mean map gains ``1/lam`` in both mu and lipschitz; the noise
    model and the budget counter are shared with the base oracle.
    """
    return replace(oracle, mean_map=ShiftedMap(oracle.mean_map, lam, center))
