"""Deterministic extragradient on a mean map.

Shared backend for reference solutions and resolvent evaluations. Not a
benchmark scheme: no oracle, no budget, the map is evaluated exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

__all__ = ["solve_deterministic_vi"]

# residuals are certified at gamma = 1/L regardless of the internal step;
# 0.7 < 1/sqrt(2), the classical extragradient stepsize bound
_STEP_FRACTION = 0.7
# residual check cadence; the check reuses the map value of the current
# iterate, so sparse checks keep the loop at two map evaluations per step
_CHECK_EVERY = 10


def solve_deterministic_vi(mean_map, feasible_set, tol, z0=None,
                           max_steps=10**7):
    """Solve VI(X, F) for an exactly evaluated map F.

    Runs extragradient with step ``0.7/L`` until the natural residual at
    ``gamma = 1/L`` drops to ``tol``. Raises
    :class:`~svilab.errors.NoConvergence` when ``max_steps`` iterations
    do not reach the tolerance.

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
    for it in range(max_steps):
        fz = mean_map(z)
        if it % _CHECK_EVERY == 0:
            r = norm(z - project(z - res_gamma * fz))
            if r <= tol:
                return z
        half = project(z - step * fz)
        z = project(z - step * mean_map(half))
    fz = mean_map(z)
    r = norm(z - project(z - res_gamma * fz))
    if r <= tol:
        return z
    raise NoConvergence(
        f"extragradient did not reach residual {tol:g} in {max_steps} steps "
        f"(last residual {r:.3e})"
    )
