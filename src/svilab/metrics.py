"""Progress measures for SVI runs.

All metrics evaluate the mean map directly and consume no stochastic
budget: they are instrumentation, not part of a scheme's oracle
complexity. The gap and the Yosida residual each solve an auxiliary
deterministic VI with :func:`~svilab.detsolve.solve_deterministic_vi`,
certified by natural residual. Both auxiliary maps are affine when the
mean map is (the gap's maximiser map, and the resolvent's ``ShiftedMap``
of an affine or bimatrix map), so on boxes and simplices those solves
end with the exact face solve, under the same certificate.
"""

from __future__ import annotations

import numpy as np

from .detsolve import solve_deterministic_vi
from .errors import MetricUnavailable, NoConvergence
from .maps import AffineMap, ShiftedMap
from .problems import z_saddle_value
from .trace import TraceRow

__all__ = [
    "YOSIDA_TOL",
    "natural_residual",
    "strongly_monotone_gap",
    "yosida_residual",
    "saddle_gap",
    "evaluate_point",
]

# natural residual to which trace rows certify each auxiliary solve
YOSIDA_TOL = 1e-10


def _clamp(v):
    # tolerate tiny negative round-off, reject anything materially negative
    if v < 0.0:
        if v < -1e-12:
            raise MetricUnavailable(f"metric came out negative: {v:.3e}")
        return 0.0
    return v


def natural_residual(x, mean_map, feasible_set, gamma):
    """Norm of ``x - project(x - gamma F(x))``; zero iff x solves the VI."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    x = np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(x - feasible_set.project(x - gamma * mean_map(x))))


def strongly_monotone_gap(x, mean_map, feasible_set):
    """Gap value ``sup_y <F(y), x-y> + (mu/2)|y-x|^2`` for affine maps.

    The inner objective ``h`` is concave exactly when the map is affine
    with mu > 0 (its Hessian is ``mu I - (A + A^T)``, at most ``-mu I``);
    for any other map the supremum cannot be trusted and
    :class:`MetricUnavailable` is raised. The maximizer solves the VI of
    ``-grad h``, the affine map ``(A + A^T - mu I) y + b + mu x - A^T x``
    (strongly monotone with modulus at least mu), certified to natural
    residual ``YOSIDA_TOL`` like the Yosida resolvent.
    """
    if not isinstance(mean_map, AffineMap) or mean_map.mu <= 0:
        raise MetricUnavailable(
            "gap is defined here only for affine maps with mu > 0"
        )
    x = np.asarray(x, dtype=np.float64)
    a, b, mu = mean_map.matrix, mean_map.offset, mean_map.mu
    neg_grad = AffineMap(a + a.T - mu * np.eye(x.size), b + mu * x - a.T @ x)
    try:
        y = solve_deterministic_vi(neg_grad, feasible_set, YOSIDA_TOL, z0=x)
    except NoConvergence as exc:
        raise MetricUnavailable(f"gap solve failed: {exc}") from exc
    fy = a @ y + b
    val = float(fy @ (x - y) + 0.5 * mu * np.dot(y - x, y - x))
    return _clamp(val)


def yosida_residual(u, lam, problem):
    """Norm of the Yosida map ``(u - J_lam(u)) / lam``.

    The resolvent ``J_lam(u)`` solves the deterministic shifted VI on the
    mean map; the solve is certified to natural residual ``YOSIDA_TOL``.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    u = np.asarray(u, dtype=np.float64)
    shifted = ShiftedMap(problem.mean_map, lam, u)
    try:
        j = solve_deterministic_vi(
            shifted, problem.feasible_set, YOSIDA_TOL,
            z0=problem.feasible_set.project(u),
        )
    except Exception as exc:  # noqa: BLE001 - nonconvergence surfaces as unavailability
        raise MetricUnavailable(f"resolvent solve failed: {exc}") from exc
    return float(np.linalg.norm(u - j) / lam)


def saddle_gap(x, y, problem):
    """Absolute deviation of the mean payoff value from the reference."""
    payoff = problem.payoff_mean
    if payoff is None or problem.reference_saddle_value is None:
        raise MetricUnavailable("saddle gap needs a bimatrix problem with reference value")
    return abs(z_saddle_value(payoff, x, y) - problem.reference_saddle_value)


def evaluate_point(problem, point, recorder, outer_k, inner_k, calls):
    """The :class:`~svilab.trace.TraceRow` of ``point`` at one iteration.

    Always computed: the natural residual at step 1/L of the mean map
    (1 when L = 0) and, given reference data, the squared distance to
    it and the bimatrix saddle gap. ``recorder.gap`` and
    ``recorder.yosida_lam`` each add an auxiliary solve to
    ``YOSIDA_TOL`` (the gap's maximizer; the resolvent); either stays
    empty where it is unavailable.
    """
    point = np.asarray(point, dtype=np.float64)
    lip = problem.mean_map.lipschitz
    res = natural_residual(point, problem.mean_map, problem.feasible_set,
                           1.0 / lip if lip > 0 else 1.0)
    row = TraceRow(outer_k, inner_k, calls, natural_residual=res)
    if problem.reference_solution is not None:
        d = point - problem.reference_solution
        row.dist_ref_sq = float(np.dot(d, d))
    payoff = problem.payoff_mean
    if payoff is not None and problem.reference_saddle_value is not None:
        n = payoff.shape[1]
        row.saddle_gap = saddle_gap(point[:n], point[n:], problem)
    if recorder.gap:
        try:
            row.gap = strongly_monotone_gap(point, problem.mean_map,
                                            problem.feasible_set)
        except MetricUnavailable:
            pass
    if recorder.yosida_lam is not None:
        try:
            row.yosida_sq = yosida_residual(point, recorder.yosida_lam,
                                            problem) ** 2
        except MetricUnavailable:
            pass
    return row
