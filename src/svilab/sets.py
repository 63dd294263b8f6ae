"""Feasible sets and Euclidean projections.

Every set exposes ``dimension``, ``project``, ``contains`` and
``random_point``. Projections are exact (closed-form or sort-based), and
``project`` validates its input: a non-finite entry or a length mismatch
raises :class:`~svilab.errors.ContractViolation`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

__all__ = ["Box", "Ball", "Simplex", "Product", "project_simplex"]


def _checked(v, dim=None):
    """Return ``v`` as a finite 1-D float64 array of length ``dim``."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractViolation(f"expected a 1-D vector, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise ContractViolation(f"expected length {dim}, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ContractViolation("vector contains non-finite entries")
    return arr


def _simplex_core(v):
    # v: validated float64 vector. The threshold search runs over Python
    # floats: for the short blocks used throughout (<= 20 coordinates)
    # one interpreted pass costs less than the dozen numpy dispatches of
    # a sort/cumsum/nonzero form. It does the same IEEE operations in the
    # same order as that form (running sum, then the test and the
    # threshold at the last passing index), so results are bit-identical.
    s = 0.0
    tau = 0.0
    for k, u in enumerate(sorted(v.tolist(), reverse=True), 1):
        s += u
        if u * k > s - 1.0:
            tau = (s - 1.0) / k
    return np.maximum(v - tau, 0.0)


def project_simplex(v):
    """Project ``v`` onto the probability simplex.

    Sort-based algorithm of Duchi et al. (ICML 2008), O(n log n): sort
    descending, find the largest prefix whose running threshold keeps
    its last entry positive, then shift and clip.

    The cost is one C-level sort of the entries as Python floats, one
    interpreted pass over them, and one vectorised shift-and-clip. That
    is fast for the blocks of at most 20 coordinates that every shipped
    config, test and example uses. The interpreted pass grows with the
    dimension: measured against a fully vectorised numpy form it is
    slower from about 50 coordinates and 7-9x slower at 1000.

    Parameters
    ----------
    v : array_like
        Point to project, any real vector.

    Returns
    -------
    numpy.ndarray
        The unique closest point with nonnegative entries summing to one.
    """
    v = _checked(v)
    if v.size == 0:
        raise ContractViolation("cannot project an empty vector")
    return _simplex_core(v)


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box ``{x : lo <= x <= hi}``."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lo and hi must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("box requires lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self):
        return self.lo.size

    def project(self, v):
        return self._project(_checked(v, self.dimension))

    def _project(self, v):
        return np.minimum(np.maximum(v, self.lo), self.hi)

    def contains(self, v, tol=1e-12):
        v = _checked(v, self.dimension)
        return bool(np.all(v >= self.lo - tol) and np.all(v <= self.hi + tol))

    def random_point(self, rng):
        return rng.uniform(self.lo, self.hi)


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball with the given center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("center must be a finite 1-D array")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dimension(self):
        return self.center.size

    def project(self, v):
        return self._project(_checked(v, self.dimension))

    def _project(self, v):
        d = v - self.center
        dist = float(np.linalg.norm(d))
        if dist <= self.radius:
            return v.copy()
        return self.center + (self.radius / dist) * d

    def contains(self, v, tol=1e-12):
        v = _checked(v, self.dimension)
        return bool(np.linalg.norm(v - self.center) <= self.radius + tol)

    def random_point(self, rng):
        d = rng.standard_normal(self.dimension)
        norm = np.linalg.norm(d)
        if norm == 0.0:
            return self.center.copy()
        # radius scaled by u^(1/n) gives a uniform draw over the ball
        r = self.radius * rng.uniform() ** (1.0 / self.dimension)
        return self.center + (r / norm) * d


@dataclass(frozen=True)
class Simplex:
    """Probability simplex ``{x >= 0 : sum(x) = 1}`` in ``dim`` coordinates."""

    dim: int

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("simplex dimension must be at least 1")
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def dimension(self):
        return self.dim

    def project(self, v):
        return _simplex_core(_checked(v, self.dim))

    def _project(self, v):
        return _simplex_core(v)

    def contains(self, v, tol=1e-12):
        v = _checked(v, self.dim)
        return bool(np.all(v >= -tol) and abs(float(v.sum()) - 1.0) <= tol)

    def random_point(self, rng):
        return rng.dirichlet(np.ones(self.dim))


@dataclass(frozen=True, eq=False)
class Product:
    """Cartesian product of sets; projection acts blockwise."""

    blocks: tuple

    def __init__(self, *blocks):
        # accept Product(a, b) and Product([a, b])
        if len(blocks) == 1 and isinstance(blocks[0], (list, tuple)):
            blocks = tuple(blocks[0])
        if not blocks:
            raise ValueError("product needs at least one block")
        object.__setattr__(self, "blocks", tuple(blocks))
        # Python-int slices: numpy-int bounds would be converted on every
        # call of the projection
        slices = []
        start = 0
        for b in self.blocks:
            stop = start + int(b.dimension)
            slices.append(slice(start, stop))
            start = stop
        object.__setattr__(self, "_slices", tuple(slices))
        # per-block projector without re-validation; third-party blocks
        # that only define project() fall back to the checked one
        object.__setattr__(
            self, "_fast", tuple(getattr(b, "_project", b.project) for b in self.blocks)
        )

    @property
    def dimension(self):
        return self._slices[-1].stop

    def project(self, v):
        return self._project(_checked(v, self.dimension))

    def _project(self, v):
        out = np.empty_like(v)
        for sl, p in zip(self._slices, self._fast):
            out[sl] = p(v[sl])
        return out

    def contains(self, v, tol=1e-12):
        v = _checked(v, self.dimension)
        return all(b.contains(v[sl], tol) for b, sl in zip(self.blocks, self._slices))

    def random_point(self, rng):
        return np.concatenate([b.random_point(rng) for b in self.blocks])
