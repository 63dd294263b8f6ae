"""Test problems: stochastic bimatrix games and affine strongly monotone SVIs.

Both constructors are pure functions of their seed. Reference solutions
are certified by the natural residual of the mean map, never by matching
externally reported values.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .detsolve import solve_deterministic_vi
from .maps import AffineMap, BimatrixMap
from .oracle import (AdditiveGaussian, MatrixPerturbation, StochasticOracle,
                     ZeroNoise, _check_key, generator)
from .sets import Box, Product, Simplex

__all__ = [
    "BimatrixSpec",
    "ProblemInstance",
    "make_bimatrix",
    "bimatrix_from_payoff",
    "make_affine_strongly_monotone",
    "reference_solution",
    "z_saddle_value",
]

# seed-derivation tags so instance data never collides with sample streams
_PAYOFF_TAG = 101
_AFFINE_TAG = 202


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """An SVI instance: oracle, feasible set, and optional reference data."""

    oracle: StochasticOracle
    feasible_set: object
    reference_solution: np.ndarray = None
    reference_saddle_value: float = None

    @property
    def mean_map(self):
        """The oracle's mean map, so the two can never disagree."""
        return self.oracle.mean_map

    @property
    def dimension(self):
        return self.mean_map.dimension

    @property
    def payoff_mean(self):
        """Mean payoff matrix for bimatrix instances, else None."""
        m = self.mean_map
        return m.payoff if isinstance(m, BimatrixMap) else None

    def with_reference(self, point, value=None):
        return replace(self, reference_solution=point, reference_saddle_value=value)


@dataclass(frozen=True)
class BimatrixSpec:
    """Generator parameters for a stochastic bimatrix game.

    ``n``, ``m`` and ``seed`` must be integers (numpy integers included);
    a fractional value is refused, never truncated. The seed obeys the
    oracle's stream-key rule, integers in ``[0, 2**64)``.
    """

    n: int
    m: int
    target_lipschitz: float
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) for v in (self.n, self.m)):
            raise ValueError(f"n and m must be integers; got {self.n!r},"
                             f" {self.m!r}")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be at least 1")
        _check_key((self.seed,))
        if not (np.isfinite(self.target_lipschitz) and self.target_lipschitz > 0):
            raise ValueError("target_lipschitz must be positive")
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError("noise_scale must be nonnegative")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "target_lipschitz", float(self.target_lipschitz))
        object.__setattr__(self, "noise_scale", float(self.noise_scale))
        object.__setattr__(self, "seed", int(self.seed))


def bimatrix_from_payoff(payoff, noise_scale=0.0, seed=0, with_reference=True,
                         reference_tol=1e-10):
    """Bimatrix game instance for an explicitly given mean payoff matrix.

    The sampled payoff is ``payoff + noise_scale * E`` with E entries
    i.i.d. uniform on [-1, 1]. The feasible set is the product of the two
    probability simplices. When ``with_reference`` is set, a saddle point
    is computed deterministically and stored with its value.
    """
    payoff = np.asarray(payoff, dtype=np.float64)
    mean_map = BimatrixMap(payoff)
    m, n = payoff.shape
    if noise_scale > 0:
        noise = MatrixPerturbation(m, n, noise_scale)
    else:
        noise = ZeroNoise()
    problem = ProblemInstance(
        oracle=StochasticOracle(mean_map, noise, rng_seed=seed),
        feasible_set=Product(Simplex(n), Simplex(m)),
    )
    if with_reference:
        point, value = reference_solution(problem, reference_tol)
        problem = problem.with_reference(point, value)
    return problem


def make_bimatrix(spec, with_reference=True, reference_tol=1e-10):
    """Seeded stochastic bimatrix game.

    The mean payoff is drawn entrywise uniform on [0, 1] and rescaled so
    its spectral norm equals ``spec.target_lipschitz``, which is then the
    Lipschitz constant of the (skew, merely monotone) mean map.
    """
    rng = generator(spec.seed, _PAYOFF_TAG)
    raw = rng.uniform(0.0, 1.0, (spec.m, spec.n))
    raw *= spec.target_lipschitz / np.linalg.norm(raw, 2)
    return bimatrix_from_payoff(
        raw,
        noise_scale=spec.noise_scale,
        seed=spec.seed,
        with_reference=with_reference,
        reference_tol=reference_tol,
    )


def make_affine_strongly_monotone(n, mu, lipschitz, sigma, seed):
    """Affine SVI ``F(x) = Ax + b`` on the box [-1, 1]^n with known root.

    ``A`` is an orthogonal conjugation of a diagonal matrix whose
    spectrum fills [mu, lipschitz] exactly, so the declared (mu, L)
    metadata is tight. ``b`` places the unconstrained root strictly
    inside the box, making it the exact VI solution.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0 < mu <= lipschitz):
        raise ValueError("need 0 < mu <= lipschitz")
    if n == 1 and mu != lipschitz:
        raise ValueError("n=1 admits a single eigenvalue; set mu == lipschitz")
    if not sigma >= 0:
        raise ValueError("sigma must be nonnegative")
    rng = generator(seed, _AFFINE_TAG)
    spectrum = np.linspace(mu, lipschitz, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * spectrum) @ q.T
    root = rng.uniform(-0.5, 0.5, n)
    b = -(a @ root)
    mean_map = AffineMap(a, b, mu=float(mu), lipschitz=float(lipschitz))
    noise = AdditiveGaussian(sigma) if sigma > 0 else ZeroNoise()
    return ProblemInstance(
        oracle=StochasticOracle(mean_map, noise, rng_seed=seed),
        feasible_set=Box(-np.ones(n), np.ones(n)),
        reference_solution=root,
    )


def reference_solution(problem, tol=1e-10):
    """High-accuracy deterministic solution of the mean-map VI.

    :func:`~svilab.detsolve.solve_deterministic_vi` certifies the point
    to natural residual ``tol`` at ``gamma = 1/L`` (cap 1e7 steps, then
    :class:`~svilab.errors.NoConvergence`); on the shipped problems, affine
    on boxes and simplices, its exact face solve ends a table-1 solve
    after 185 map calls. Returns the point and, for bimatrix problems,
    the mean saddle value ``<A x*, y*>``. Consumes no stochastic budget.
    """
    point = solve_deterministic_vi(problem.mean_map, problem.feasible_set, tol)
    value = None
    payoff = problem.payoff_mean
    if payoff is not None:
        n = payoff.shape[1]
        value = float(z_saddle_value(payoff, point[:n], point[n:]))
    return point, value


def z_saddle_value(payoff, x, y):
    """Bilinear payoff value ``<A x, y>``."""
    return float(y @ (payoff @ x))
