"""Acceptance checks for the solver library and benchmark harness.

Eight criteria, one test each, run in order. Every test prints a single
PASS or FAIL line with the measured numbers; a FAIL line is always
accompanied by a failing assertion so the suite result stays honest.
"""

import csv
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from svilab import (
    BimatrixSpec,
    BudgetCounter,
    PpawssConfig,
    Recorder,
    VsAveConfig,
    make_affine_strongly_monotone,
    make_bimatrix,
    parse_config,
    run_experiment,
    run_ppawss,
    run_vs_ave,
)
from svilab.maps import AffineMap
from svilab.metrics import strongly_monotone_gap
from svilab.oracle import batch_mean
from svilab.ppawss import inner_iterations
from svilab.problems import bimatrix_from_payoff
from svilab.sets import Ball, Box, Product, Simplex
from svilab.vs_ave import rate_q, sample_size, schedule_cost
from feeds import one_step
from qp_oracle import (
    project_ball_bruteforce,
    project_box_bruteforce,
    project_simplex_bruteforce,
)

_HERE = os.path.dirname(__file__)


def _verdict(capsys, label, ok, detail, elapsed, limit):
    in_time = elapsed < limit
    status = "PASS" if (ok and in_time) else "FAIL"
    with capsys.disabled():
        print(f"\n[{status}] {label}: {detail}"
              f" ({elapsed:.1f}s, limit {limit:.0f}s)")
    assert in_time, f"{label} exceeded the {limit:.0f}s limit: {elapsed:.1f}s"
    assert ok, f"{label}: {detail}"


def test_criterion_1_projections_match_brute_force(capsys):
    """Closed-form projections agree with KKT enumeration to 1e-8."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    for dim in (1, 2, 3, 4):
        simplex = Simplex(dim)
        for _ in range(100):
            v = rng.uniform(-2.0, 2.0, dim)
            diff = simplex.project(v) - project_simplex_bruteforce(v)
            worst = max(worst, float(np.linalg.norm(diff)))
            count += 1
    for dim in (1, 2, 3, 4):
        lo = -rng.uniform(0.5, 2.0, dim)
        hi = rng.uniform(0.5, 2.0, dim)
        box = Box(lo, hi)
        for _ in range(50):
            v = rng.uniform(-3.0, 3.0, dim)
            diff = box.project(v) - project_box_bruteforce(v, lo, hi)
            worst = max(worst, float(np.linalg.norm(diff)))
            count += 1
    for dim in (1, 2, 3, 4):
        center = rng.uniform(-1.0, 1.0, dim)
        radius = float(rng.uniform(0.5, 1.5))
        ball = Ball(center, radius)
        for _ in range(50):
            v = rng.uniform(-3.0, 3.0, dim)
            diff = ball.project(v) - project_ball_bruteforce(v, center, radius)
            worst = max(worst, float(np.linalg.norm(diff)))
            count += 1
    product = Product([Simplex(2), Box(np.array([-1.0, 0.0]),
                                       np.array([1.0, 2.0]))])
    for _ in range(200):
        v = rng.uniform(-2.0, 3.0, 4)
        expected = np.concatenate([
            project_simplex_bruteforce(v[:2]),
            project_box_bruteforce(v[2:], [-1.0, 0.0], [1.0, 2.0]),
        ])
        worst = max(worst, float(np.linalg.norm(product.project(v) - expected)))
        count += 1
    assert count == 1000
    _verdict(capsys, "criterion 1 (projection correctness)",
             worst <= 1e-8, f"1000 vectors, max deviation {worst:.2e}",
             time.perf_counter() - t0, 10.0)


def test_criterion_2_linear_rate_under_noise(capsys):
    """Mean squared error of the averaged iterate contracts near q."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for kappa in (2.0, 10.0):
        q = rate_q(kappa)
        config = VsAveConfig(mu=1.0, lipschitz=kappa, rho=q**1.001,
                             max_iterations=60)
        base = make_affine_strongly_monotone(n=10, mu=1.0, lipschitz=kappa,
                                             sigma=1.0, seed=333)
        dists = np.zeros((20, 60))
        for s in range(20):
            _, trace = run_vs_ave(base, np.zeros(10), config, None, seed=s)
            dists[s] = [row.dist_ref_sq for row in trace.rows]
        mean_sq = dists.mean(axis=0)
        ks = np.arange(10, 61)
        slope = np.polyfit(ks, np.log(mean_sq[ks - 1]), 1)[0]
        decay = math.exp(slope)
        details.append(f"kappa={kappa:g}: decay {decay:.4f}"
                       f" (bound {q + 0.1:.4f})")
        ok = ok and decay <= q + 0.1
    _verdict(capsys, "criterion 2 (stochastic linear rate)", ok,
             "; ".join(details), time.perf_counter() - t0, 120.0)


def test_criterion_3_iteration_complexity(capsys):
    """Iterations to reach squared error 1e-4 stay under 1.5 kappa ln(1/eps)."""
    t0 = time.perf_counter()
    eps = 1e-4
    details = []
    ok = True
    for kappa in (2.0, 10.0, 50.0):
        bound = 1.5 * kappa * math.log(1.0 / eps)
        q = rate_q(kappa)
        cap = int(math.ceil(bound)) + 10
        config = VsAveConfig(mu=1.0, lipschitz=kappa, rho=q**1.001,
                             max_iterations=cap)
        problem = make_affine_strongly_monotone(n=10, mu=1.0, lipschitz=kappa,
                                                sigma=0.0, seed=47)
        _, trace = run_vs_ave(problem, np.zeros(10), config, None)
        hit = next((row.outer_k for row in trace.rows
                    if row.dist_ref_sq <= eps), None)
        details.append(f"kappa={kappa:g}: {hit} iters"
                       f" (bound {bound:.0f})")
        ok = ok and hit is not None and hit <= bound
    _verdict(capsys, "criterion 3 (iteration complexity)", ok,
             "; ".join(details), time.perf_counter() - t0, 60.0)


def test_criterion_4_yosida_decay_slope(capsys):
    """Squared Yosida residual along the outer loop decays like 1/K."""
    t0 = time.perf_counter()
    # n = m = 5, lam = 10, eta = 1 are pinned; the remaining free
    # parameters come from a grid search minimizing |slope + 1|
    problem = make_bimatrix(BimatrixSpec(n=5, m=5, target_lipschitz=11.8,
                                         noise_scale=0.0, seed=0))
    config = PpawssConfig(lam=10.0, eta=1.0, alpha=1.001, beta=1.001,
                          outer_iterations=200)
    _, trace = run_ppawss(problem, np.zeros(10), config, None,
                          recorder=Recorder(yosida_lam=10.0))
    ks = np.array([row.outer_k for row in trace.rows])
    ys = np.array([row.yosida_sq for row in trace.rows])
    mask = (ks >= 10) & (ys > 0)
    slope = np.polyfit(np.log(ks[mask]), np.log(ys[mask]), 1)[0]
    ok = -1.3 <= slope <= -0.7
    _verdict(capsys, "criterion 4 (proximal-point 1/K rate)", ok,
             f"log-log slope {slope:.3f} over K in [10, 200]"
             f" (target -1 +/- 0.3)", time.perf_counter() - t0, 120.0)


@pytest.mark.slow
def test_criterion_5_benchmark_medians(capsys, tmp_path, monkeypatch):
    """Shipped benchmark at budget 1e6: scheme comparison and gap window."""
    # the 60 cells on the usable cores: every cell owns its file, and
    # its samples are keyed by its seed whether it draws or replays
    # them, so the outputs are those of a serial run
    monkeypatch.setenv("SVILAB_THREADS", str(len(os.sched_getaffinity(0))))
    t0 = time.perf_counter()
    with open(os.path.join(_HERE, "..", "configs", "table1.cfg")) as fh:
        config = parse_config(fh.read())
    config = replace(config, budget=10**6,
                     output_path=str(tmp_path / "bench"))
    run_experiment(config)
    medians = {}
    with open(tmp_path / "bench" / "summary.csv") as fh:
        for row in csv.DictReader(fh):
            medians[(row["L"], row["scheme"])] = float(row["median"])
    wins = sum(medians[(lip, "ppawss")] < medians[(lip, "extragradient")]
               for lip in ("7.05", "70.5", "705"))
    pp1 = medians[("7.05", "ppawss")]
    eg1 = medians[("7.05", "extragradient")]
    window = (1e-6 <= pp1 <= 1e-2) and (1e-6 <= eg1 <= 1e-2)
    ok = wins >= 2 and window
    _verdict(
        capsys, "criterion 5 (benchmark medians)", ok,
        f"ppawss wins {wins}/3 rows (need >= 2);"
        f" L=7.05 medians ppawss {pp1:.2e} / extragradient {eg1:.2e}"
        f" (window [1e-6, 1e-2] {'ok' if window else 'violated'})",
        time.perf_counter() - t0, 900.0,
    )


def test_criterion_6_oracle_statistics(capsys):
    """Batch means are unbiased with variance falling like 1/N."""
    t0 = time.perf_counter()
    sigma, d = 1.0, 6
    problem = make_affine_strongly_monotone(n=d, mu=1.0, lipschitz=3.0,
                                            sigma=sigma, seed=77)
    oracle = problem.oracle
    x = problem.feasible_set.project(np.full(d, 0.3))
    truth = problem.mean_map(x)

    noise = oracle.noise_model
    estimate = batch_mean(oracle, x, 200000,
                          one_step(noise, oracle.stream(0, 11), 200000, d))
    bias = float(np.linalg.norm(estimate - truth))
    bias_bound = 4.0 * sigma * math.sqrt(d / 200000.0)

    reps = 3000
    ratio_ok = True
    ratios = []
    for n in (1, 4, 16, 64):
        sq = 0.0
        s = oracle.stream(0, 100 + n)
        for _ in range(reps):
            est = batch_mean(oracle, x, n, one_step(noise, s, n, d))
            err = est - truth
            sq += float(err @ err)
        v = sq / reps
        ratios.append(v * n / (d * sigma**2))
    ratio_ok = all(0.9 <= r <= 1.1 for r in ratios)

    game = bimatrix_from_payoff([[1.0, 0.2], [0.0, 0.8]], noise_scale=0.5,
                                seed=3, with_reference=False)
    z = game.feasible_set.project(np.array([0.3, 0.7, 0.6, 0.4]))
    g_truth = game.mean_map(z)
    g_noise = game.oracle.noise_model
    g_est = batch_mean(game.oracle, z, 200000,
                       one_step(g_noise, game.oracle.stream(0, 12), 200000, 4))
    g_bias = float(np.linalg.norm(g_est - g_truth))
    var_bound = game.oracle.variance_bound
    s = game.oracle.stream(0, 13)
    sq = 0.0
    for _ in range(reps):
        est = batch_mean(game.oracle, z, 1, one_step(g_noise, s, 1, 4))
        err = est - g_truth
        sq += float(err @ err)
    g_var = sq / reps

    ok = (bias <= bias_bound and ratio_ok and g_bias <= 0.05
          and g_var <= var_bound)
    _verdict(
        capsys, "criterion 6 (oracle statistics)", ok,
        f"gaussian bias {bias:.3e} (<= {bias_bound:.3e});"
        f" N*var/(d sigma^2) in [{min(ratios):.3f}, {max(ratios):.3f}]"
        f" (need [0.9, 1.1]); matrix-noise bias {g_bias:.3e},"
        f" variance {g_var:.3f} <= bound {var_bound:.3f}",
        time.perf_counter() - t0, 30.0,
    )


def test_criterion_7_gap_function(capsys):
    """Gap vanishes at the solution and dominates the squared distance."""
    t0 = time.perf_counter()
    box1 = Box(np.array([-1.0]), np.array([1.0]))
    identity = AffineMap(np.array([[1.0]]), np.array([0.0]))
    g_half = strongly_monotone_gap([0.5], identity, box1)
    hand_ok = abs(g_half - 0.125) <= 1e-8

    problem = make_affine_strongly_monotone(n=6, mu=0.7, lipschitz=3.0,
                                            sigma=0.0, seed=11)
    fmap = problem.mean_map
    feasible = problem.feasible_set
    star = problem.reference_solution
    g_star = strongly_monotone_gap(star, fmap, feasible)
    rng = np.random.default_rng(17)
    lower_ok = True
    for _ in range(100):
        x = feasible.project(rng.uniform(-1.5, 1.5, 6))
        g = strongly_monotone_gap(x, fmap, feasible)
        dist_sq = float(np.dot(x - star, x - star))
        if g < 0.5 * fmap.mu * dist_sq - 1e-8:
            lower_ok = False
            break
    ok = hand_ok and g_star <= 1e-8 and lower_ok
    _verdict(
        capsys, "criterion 7 (gap function)", ok,
        f"g(0.5) = {g_half:.9f} (want 0.125); g(x*) = {g_star:.2e}"
        f" (<= 1e-8); lower bound on 100 points"
        f" {'holds' if lower_ok else 'violated'}",
        time.perf_counter() - t0, 30.0,
    )


def test_criterion_8_reproducibility_and_ledger(capsys, tmp_path):
    """Reruns are byte-identical and call counts match the schedules."""
    t0 = time.perf_counter()
    config_text = """\
[problem]
kind = bimatrix
n = 3
m = 2
lipschitz = 2.0
noise = 0.1

[run]
budget = 3000
seeds = 0,1

[scheme.ppawss]
lambda = 5.0

[scheme.extragradient]
"""
    contents = {}
    for label in ("first", "second"):
        config = parse_config(config_text)
        config = replace(config, output_path=str(tmp_path / label))
        run_experiment(config)
        contents[label] = {
            name: (tmp_path / label / name).read_bytes()
            for name in os.listdir(tmp_path / label)
        }
    identical = contents["first"] == contents["second"]

    affine = make_affine_strongly_monotone(n=4, mu=1.0, lipschitz=2.0,
                                           sigma=1.0, seed=5)
    vs_config = VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.6,
                            max_iterations=14)
    vs_budget = BudgetCounter(10**6)
    _, vs_trace = run_vs_ave(affine, np.zeros(4), vs_config, vs_budget)
    vs_expected = schedule_cost(14, 0.6)
    vs_ok = (vs_trace.final.calls == vs_expected
             and vs_budget.consumed == vs_expected)

    game = bimatrix_from_payoff([[1.0, -1.0], [-1.0, 1.0]], noise_scale=0.1,
                                seed=0)
    pp_config = PpawssConfig(lam=5.0, eta=1.0, alpha=1.001, beta=1.001,
                             outer_iterations=6)
    pp_budget = BudgetCounter(10**6)
    _, pp_trace = run_ppawss(game, np.zeros(4), pp_config, pp_budget)
    q = pp_config.inner_q(game.mean_map.lipschitz)
    rho = q**pp_config.beta
    pp_expected = sum(
        schedule_cost(inner_iterations(k, q, pp_config.alpha, 1), rho)
        for k in range(6)
    )
    pp_ok = (pp_trace.final.calls == pp_expected
             and pp_budget.consumed == pp_expected)

    ok = identical and vs_ok and pp_ok
    _verdict(
        capsys, "criterion 8 (reproducibility and ledger)", ok,
        f"rerun files byte-identical: {identical};"
        f" averaging-scheme calls {vs_trace.final.calls}"
        f" == schedule {vs_expected}: {vs_ok};"
        f" proximal-scheme calls {pp_trace.final.calls}"
        f" == schedule {pp_expected}: {pp_ok}",
        time.perf_counter() - t0, 30.0,
    )
