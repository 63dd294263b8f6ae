"""Output checks for one benchmark cell.

Every cell is checked three ways:

* its ledger (the budget counter the harness handed the solver) and the
  ``calls`` of its final trace row both equal the analytic schedule sum,
  rebuilt here from the public ``schedule_cost``, ``inner_iterations``
  and ``eg_sample_size``;
* its trace has the recorded row count and final ``outer_k`` and
  ``inner_k``, which do not depend on the trial seed;
* at the default workload seed, its final row matches the recorded
  values within :data:`REL_TOL` (reference-free columns) or
  :data:`REF_ABS_TOL` on top of that (columns measured against the
  certified reference solution, which is only certified to natural
  residual ``reference_tol``).
"""

from __future__ import annotations

import math

from svilab.errors import ScheduleOverflow
from svilab.extragradient import eg_sample_size
from svilab.ppawss import PpawssConfig, inner_iterations
from svilab.vs_ave import rate_q, sample_size, schedule_cost

REL_TOL = 1e-9
REF_ABS_TOL = 1e-8
FLOAT_FIELDS = ("natural_residual", "gap", "yosida_sq")
REFERENCE_FIELDS = ("saddle_gap", "dist_ref_sq")
SHAPE_FIELDS = ("rows", "outer_k", "inner_k", "calls")


def _fitting_total(budget, cost_of):
    """Sum of per-iteration costs while the running total fits the budget."""
    total = 0
    k = 0
    while True:
        try:
            cost = cost_of(k)
        except ScheduleOverflow:
            return total
        if total + cost > budget:
            return total
        total += cost
        k += 1


def expected_ledger(config, scheme, row, lipschitz):
    """Analytic oracle-call total of one cell whose iteration counts are
    left to the budget (the workload configs pin none).

    ``lipschitz`` is the Lipschitz constant of the built problem's mean
    map, which PPAWSS uses for its inner rate.
    """
    params = config.scheme_params[scheme]
    budget = config.budget
    if scheme == "ppawss":
        outer = PpawssConfig(lam=params["lambda"][row], eta=params["eta"],
                             alpha=params["alpha"], beta=params["beta"],
                             outer_iterations=1)
        q = outer.inner_q(lipschitz)
        rho = q ** params["beta"]
        total = 0
        k = 0
        while True:
            ell = inner_iterations(k, q, params["alpha"], params["min_inner"])
            left = budget - total
            try:
                need = schedule_cost(ell, rho, 1, stop_at=left)
            except ScheduleOverflow:
                break
            if need > left:
                break
            total += need
            k += 1
        return total
    if scheme == "extragradient":
        def cost_of(k):
            return 2 * eg_sample_size(k, params["theta"], params["mu_shift"],
                                      params["b"])
    elif scheme == "vs_ave":
        rho = (params["rho"][row] if params["rho"] else
               rate_q(config.lipschitz[row] / config.mu,
                      params["q_rule"]) ** 1.001)

        def cost_of(k):
            return 2 * sample_size(k, rho, params["min_batch"])
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return _fitting_total(budget, cost_of)


def final_row(trace):
    """Shape and final values of a trace, as recorded in recorded.json."""
    row = trace.final
    record = {"rows": len(trace.rows), "outer_k": row.outer_k,
              "inner_k": row.inner_k, "calls": row.calls}
    for name in FLOAT_FIELDS + REFERENCE_FIELDS:
        record[name] = getattr(row, name, None)
    return record


def _close(got, want, abs_tol):
    if got is None or want is None:
        return got is None and want is None
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=abs_tol)


def check_cell(trace, ledger, expected, shape=None, recorded=None):
    """Problems found in one cell's output; an empty list means it passed.

    ``trace`` is the cell's trace as read back from its CSV, ``ledger``
    the calls its budget counter charged, ``expected`` the analytic
    total. ``shape`` holds the recorded seed-independent fields and
    ``recorded`` the full recorded final row (default seed only).
    """
    if trace.final is None:
        return ["trace has no rows"]
    got = final_row(trace)
    problems = []
    if ledger != expected:
        problems.append(f"ledger charged {ledger}, schedule sum is {expected}")
    if got["calls"] != expected:
        problems.append(f"final row calls {got['calls']}, schedule sum is "
                        f"{expected}")
    residual = got["natural_residual"]
    if residual is None or not (math.isfinite(residual) and residual >= 0):
        problems.append(f"final natural residual is {residual!r}")
    for name in SHAPE_FIELDS if shape else ():
        if got[name] != shape[name]:
            problems.append(f"{name} is {got[name]}, recorded {shape[name]}")
    for name in FLOAT_FIELDS + REFERENCE_FIELDS if recorded else ():
        abs_tol = REF_ABS_TOL if name in REFERENCE_FIELDS else 0.0
        if not _close(got[name], recorded[name], abs_tol):
            problems.append(f"final {name} is {got[name]!r}, recorded "
                            f"{recorded[name]!r}")
    return problems
