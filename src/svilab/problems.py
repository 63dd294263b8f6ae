"""Test problems: stochastic bimatrix games and affine strongly monotone SVIs.

Both constructors are pure functions of their seed. Reference solutions
are certified by the natural residual of the mean map, never by matching
externally reported values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .detsolve import solve_deterministic_vi
from .errors import ContractViolation
from .maps import AffineMap, BimatrixMap
from .oracle import AdditiveGaussian, MatrixPerturbation, StochasticOracle, ZeroNoise
from .sets import Box, Product, Simplex

__all__ = [
    "BimatrixSpec",
    "ProblemInstance",
    "make_bimatrix",
    "bimatrix_from_payoff",
    "make_affine_strongly_monotone",
    "reference_solution",
    "z_saddle_value",
    "write_matrix",
    "read_matrix",
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
    """Generator parameters for a stochastic bimatrix game."""

    n: int
    m: int
    target_lipschitz: float
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if int(self.n) < 1 or int(self.m) < 1:
            raise ValueError("n and m must be at least 1")
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
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((spec.seed, _PAYOFF_TAG)))
    )
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
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, _AFFINE_TAG)))
    )
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

    Runs deterministic extragradient until the natural residual at
    ``gamma = 1/L`` is at most ``tol`` (cap 1e7 steps, then
    :class:`~svilab.errors.NoConvergence`). Returns the point and, for
    bimatrix problems, the mean saddle value ``<A x*, y*>``. Consumes no
    stochastic budget.
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


def write_matrix(path, array):
    """Serialize a matrix to flat text: a dimension header line, then one
    row per line with full-precision decimal entries."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ContractViolation("only 1-D or 2-D arrays serialize")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{arr.shape[0]} {arr.shape[1]}\n")
        for row in arr:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_matrix(path):
    """Read a matrix written by :func:`write_matrix` (always 2-D)."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ContractViolation(f"{path}: malformed dimension header")
        rows, cols = int(header[0]), int(header[1])
        data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    if data.shape != (rows, cols):
        raise ContractViolation(
            f"{path}: header says {rows}x{cols}, body is {data.shape[0]}x{data.shape[1]}"
        )
    return data
