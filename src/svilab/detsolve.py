"""Deterministic forward-backward-forward splitting on a mean map, with an
exact affine finish.

Shared backend for reference solutions, resolvent evaluations and the
gap maximiser. Not a benchmark scheme: no oracle, no budget, the map is
evaluated exactly.

Each step of Tseng's splitting takes ``y = P(z - a F(z))`` and then
``z+ = y - a (F(y) - F(z))``: two map calls and one projection. ``z+``
may leave the set, so the map is evaluated off it; every map here is
defined on the whole space. A residual check reads the start point
first, then the latest ``y``, so every point it certifies is feasible.

Every such VI here is affine on a product of boxes and simplices. Each
residual check solves it on the iterate's active face (simplex zeros,
box coordinates at a bound): a square linear system, the KKT equations
of the free coordinates plus one multiplier per simplex (von Stengel,
*Algorithmic Game Theory*, ch. 3). It reads the iterate only where it
is fixed, at exactly 0 or a bound, so its point depends on the face
alone and an early try moves no returned bit. That point is returned
only if its natural residual at ``gamma = 1/L`` is at most ``tol``, the
certificate every returned point carries.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence
from .sets import Box, Product, Simplex

__all__ = ["solve_deterministic_vi"]

# residuals are certified at gamma = 1/L regardless of the internal step;
# forward-backward-forward splitting converges for any step below 1/L
# (Tseng, SIAM J. Control Optim. 38(2), 2000)
_STEP_FRACTION = 0.9
# residual check cadence; a check reuses the map value of the point it
# reads, so sparse checks keep the loop at two map evaluations and one
# projection per step
_CHECK_EVERY = 10


class _FaceFinish:
    """Exact solve of an affine VI on the active face of an iterate.

    Holds the map's ``matrix`` and ``offset`` and the set's blocks. A
    face is tried again only after the iterate has left it: the face
    of the last attempt gives None.
    """

    def __init__(self, matrix, offset, blocks):
        self._matrix = matrix
        self._offset = offset
        self._blocks = blocks
        self._simplices = [sl for sl, block in blocks
                           if isinstance(block, Simplex)]
        self._tried = np.empty(0)

    @classmethod
    def of(cls, mean_map, feasible_set):
        """The finish, or None unless the map is affine and every block of
        the set is a ``Box`` or a ``Simplex``."""
        if isinstance(feasible_set, Product):
            parts = list(zip(feasible_set._slices, feasible_set.blocks))
        else:
            parts = [(slice(0, feasible_set.dimension), feasible_set)]
        if not all(isinstance(block, (Box, Simplex)) for _, block in parts):
            return None
        try:
            return cls(mean_map.matrix, mean_map.offset, parts)
        except AttributeError:
            return None

    def candidate(self, z):
        """KKT point of the map on the face of ``z``, or None when that
        face was tried last, the system is singular or its solution is not
        finite."""
        fixed = np.zeros(z.size, dtype=bool)
        for sl, block in self._blocks:
            zs = z[sl]
            if isinstance(block, Simplex):
                fixed[sl] = zs == 0.0
            else:
                fixed[sl] = (zs == block.lo) | (zs == block.hi)
        # a face is its fixed coordinates and the bound each one sits at
        pinned = np.where(fixed, z, np.nan)
        if np.array_equal(pinned, self._tried, equal_nan=True):
            return None
        self._tried = pinned
        free = np.flatnonzero(~fixed)
        k = free.size
        size = k + len(self._simplices)
        # unknowns: the free coordinates, then one multiplier t per
        # simplex; rows: F_i(z) = t (free simplex i), F_i(z) = 0 (free box
        # i), then each simplex sums to 1 (its fixed coordinates are 0)
        system = np.zeros((size, size))
        system[:k, :k] = self._matrix[np.ix_(free, free)]
        rhs = np.ones(size)
        rhs[:k] = -(self._offset
                    + self._matrix @ np.where(fixed, z, 0.0))[free]
        for row, sl in enumerate(self._simplices, start=k):
            system[row, :k] = (free >= sl.start) & (free < sl.stop)
            system[:k, row] = -system[row, :k]
        try:
            solution = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(solution)):
            return None
        out = z.copy()
        out[free] = solution[:k]
        return out


def solve_deterministic_vi(mean_map, feasible_set, tol, z0=None,
                           max_steps=10**7):
    """Solve VI(X, F) for an exactly evaluated map F.

    Runs forward-backward-forward splitting with step ``0.9/L`` until the
    natural residual at ``gamma = 1/L`` drops to ``tol``; a start point
    that already meets it is returned unchanged. Raises
    :class:`~svilab.errors.NoConvergence` when ``max_steps`` iterations
    do not reach the tolerance.

    For an affine map (one with ``matrix`` and ``offset``) on a
    ``Box``, ``Simplex`` or ``Product`` of them, each residual check
    also solves the VI on the iterate's face unless that face was tried
    last (see the module docstring), and returns the projected solution
    if its natural residual at ``gamma = 1/L`` is at most ``tol``. Any
    other map or set runs the splitting alone; every returned point
    carries the same certificate.

    Parameters
    ----------
    mean_map : monotone map with ``lipschitz`` metadata
    feasible_set : set with ``project``
    tol : float
        Natural-residual target, must be positive.
    z0 : array_like, optional
        Start point; defaults to the projection of the origin.
    max_steps : int
        Iteration cap.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    lip = mean_map.lipschitz
    step = _STEP_FRACTION / lip if lip > 0 else 1.0
    res_gamma = 1.0 / lip if lip > 0 else 1.0
    if z0 is None:
        z = feasible_set.project(np.zeros(mean_map.dimension))
    else:
        z = feasible_set.project(np.asarray(z0, dtype=np.float64))
    project = feasible_set.project
    norm = np.linalg.norm
    finish = _FaceFinish.of(mean_map, feasible_set)
    fz = mean_map(z)
    # the start is checked first and returned as it is; every later check
    # reads the latest forward-backward point y, which is feasible
    y, fy = z, fz
    for it in range(max_steps):
        if it % _CHECK_EVERY == 0:
            r = norm(y - project(y - res_gamma * fy))
            if r <= tol:
                return y
            if finish is not None:
                c = finish.candidate(y)
                if c is not None:
                    c = project(c)
                    if norm(c - project(c - res_gamma * mean_map(c))) <= tol:
                        return c
        y = project(z - step * fz)
        fy = mean_map(y)
        z = y - step * (fy - fz)
        fz = mean_map(z)
    r = norm(y - project(y - res_gamma * fy))
    if r <= tol:
        return y
    raise NoConvergence(
        f"forward-backward-forward splitting did not reach residual {tol:g} "
        f"in {max_steps} steps (last residual {r:.3e})"
    )
