"""Problem generators: game structure, metadata tightness, references."""

from __future__ import annotations

import os

import numpy as np
import pytest

from svilab import (
    BimatrixSpec,
    BudgetCounter,
    VsAveConfig,
    make_affine_strongly_monotone,
    make_bimatrix,
    run_vs_ave,
)
from svilab.errors import ContractViolation
from svilab.metrics import natural_residual
from svilab.oracle import AdditiveGaussian, MatrixPerturbation, ZeroNoise
from svilab.problems import bimatrix_from_payoff, reference_solution, z_saddle_value

from qp_oracle import contains

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class TestBimatrix:
    def test_map_is_skew(self):
        prob = make_bimatrix(
            BimatrixSpec(n=6, m=4, target_lipschitz=3.0), with_reference=False
        )
        f = prob.mean_map
        rng = np.random.default_rng(0)
        for _ in range(1000):
            z1 = rng.standard_normal(10)
            z2 = rng.standard_normal(10)
            assert abs(float(np.dot(f(z1) - f(z2), z1 - z2))) <= 1e-10

    @pytest.mark.parametrize("lip", [7.05, 70.5, 705.0])
    def test_spectral_norm_hits_target(self, lip):
        prob = make_bimatrix(
            BimatrixSpec(n=20, m=10, target_lipschitz=lip, seed=777),
            with_reference=False,
        )
        assert np.linalg.norm(prob.payoff_mean, 2) == pytest.approx(lip, rel=1e-6)
        assert prob.mean_map.lipschitz == pytest.approx(lip, rel=1e-6)

    def test_payoff_nonnegative(self):
        prob = make_bimatrix(BimatrixSpec(n=5, m=5, target_lipschitz=2.0),
                             with_reference=False)
        assert np.all(prob.payoff_mean >= 0.0)

    def test_seeded_and_distinct(self):
        a = make_bimatrix(BimatrixSpec(n=4, m=3, target_lipschitz=1.0, seed=1),
                          with_reference=False)
        b = make_bimatrix(BimatrixSpec(n=4, m=3, target_lipschitz=1.0, seed=1),
                          with_reference=False)
        c = make_bimatrix(BimatrixSpec(n=4, m=3, target_lipschitz=1.0, seed=2),
                          with_reference=False)
        assert np.array_equal(a.payoff_mean, b.payoff_mean)
        assert not np.array_equal(a.payoff_mean, c.payoff_mean)

    def test_noise_model_selection(self):
        noisy = make_bimatrix(
            BimatrixSpec(n=3, m=2, target_lipschitz=1.0, noise_scale=0.2),
            with_reference=False,
        )
        clean = make_bimatrix(
            BimatrixSpec(n=3, m=2, target_lipschitz=1.0, noise_scale=0.0),
            with_reference=False,
        )
        assert isinstance(noisy.oracle.noise_model, MatrixPerturbation)
        assert isinstance(clean.oracle.noise_model, ZeroNoise)

    @pytest.mark.parametrize("field", ["n", "m"])
    def test_fractional_size_rejected(self, field):
        # refused, not truncated to 2
        kwargs = {"n": 2, "m": 3, "target_lipschitz": 1.0, field: 2.5}
        with pytest.raises(ValueError, match="n and m must be integers"):
            BimatrixSpec(**kwargs)

    @pytest.mark.parametrize("seed", [1.5, 2.0, -1, 2**64])
    def test_seed_follows_the_stream_key_rule(self, seed):
        with pytest.raises(ContractViolation, match="stream keys"):
            BimatrixSpec(n=2, m=3, target_lipschitz=1.0, seed=seed)

    def test_numpy_integers_accepted(self):
        spec = BimatrixSpec(n=np.int64(2), m=np.int32(3),
                            target_lipschitz=1.0, seed=np.uint64(2**63))
        assert (spec.n, spec.m, spec.seed) == (2, 3, 2**63)
        assert all(type(v) is int for v in (spec.n, spec.m, spec.seed))

    def test_singleton_game(self):
        prob = make_bimatrix(BimatrixSpec(n=1, m=1, target_lipschitz=1.0))
        assert np.allclose(prob.reference_solution, [1.0, 1.0])

    def test_matching_pennies_equilibrium(self, pennies_problem):
        assert np.allclose(pennies_problem.reference_solution, 0.5, atol=1e-9)
        assert abs(pennies_problem.reference_saddle_value) <= 1e-9

    def test_reference_is_certified(self):
        prob = make_bimatrix(
            BimatrixSpec(n=5, m=4, target_lipschitz=2.0, seed=3),
            reference_tol=1e-10,
        )
        r = natural_residual(
            prob.reference_solution, prob.mean_map, prob.feasible_set,
            1.0 / prob.mean_map.lipschitz,
        )
        assert r <= 1e-10
        assert contains(prob.feasible_set, prob.reference_solution, tol=1e-9)


class TestAffine:
    def test_spectrum_fills_range_exactly(self):
        prob = make_affine_strongly_monotone(n=8, mu=1.0, lipschitz=3.0,
                                             sigma=0.0, seed=0)
        a = prob.mean_map.matrix
        eigs = np.linalg.eigvalsh(0.5 * (a + a.T))
        assert eigs[0] == pytest.approx(1.0, abs=1e-9)
        assert eigs[-1] == pytest.approx(3.0, abs=1e-9)
        assert prob.mean_map.mu == 1.0
        assert prob.mean_map.lipschitz == 3.0

    def test_root_is_interior_solution(self):
        prob = make_affine_strongly_monotone(n=6, mu=0.5, lipschitz=2.0,
                                             sigma=1.0, seed=4)
        root = prob.reference_solution
        assert np.all(np.abs(root) <= 0.5)
        assert np.allclose(prob.mean_map(root), 0.0, atol=1e-12)
        r = natural_residual(root, prob.mean_map, prob.feasible_set, 0.5)
        assert r <= 1e-12

    def test_identity_case(self):
        prob = make_affine_strongly_monotone(n=3, mu=2.0, lipschitz=2.0,
                                             sigma=0.0, seed=1)
        assert np.allclose(prob.mean_map.matrix, 2.0 * np.eye(3), atol=1e-12)

    def test_one_dimensional_needs_equal_constants(self):
        with pytest.raises(ValueError):
            make_affine_strongly_monotone(n=1, mu=1.0, lipschitz=2.0,
                                          sigma=0.0, seed=0)
        prob = make_affine_strongly_monotone(n=1, mu=2.0, lipschitz=2.0,
                                             sigma=0.0, seed=0)
        assert prob.dimension == 1

    def test_noise_model_selection(self):
        noisy = make_affine_strongly_monotone(n=2, mu=1.0, lipschitz=2.0,
                                              sigma=0.5, seed=0)
        assert isinstance(noisy.oracle.noise_model, AdditiveGaussian)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_affine_strongly_monotone(n=0, mu=1.0, lipschitz=2.0, sigma=0, seed=0)
        with pytest.raises(ValueError):
            make_affine_strongly_monotone(n=2, mu=0.0, lipschitz=2.0, sigma=0, seed=0)
        with pytest.raises(ValueError):
            make_affine_strongly_monotone(n=2, mu=3.0, lipschitz=2.0, sigma=0, seed=0)
        # the seed keys a random stream, so it must lie in [0, 2**64)
        with pytest.raises(ContractViolation):
            make_affine_strongly_monotone(n=3, mu=1.0, lipschitz=2.0, sigma=0.1, seed=-3)

    def test_solvable_by_vs_ave(self):
        # deterministic run reaches the root quickly on a mild instance;
        # 120 iterations keeps rho^-k inside the schedule's integer range
        prob = make_affine_strongly_monotone(n=5, mu=1.0, lipschitz=3.0,
                                             sigma=0.0, seed=2)
        cfg = VsAveConfig(mu=1.0, lipschitz=3.0, rho=0.75, max_iterations=120)
        averaged, trace = run_vs_ave(prob, np.zeros(5), cfg, None)
        assert not trace.truncated
        assert np.linalg.norm(averaged - prob.reference_solution) <= 1e-6


def read_fixture(name):
    """A frozen matrix: a dimension header line, then one row per line."""
    return np.loadtxt(os.path.join(FIXTURES, name), skiprows=1, ndmin=2)


class TestStoredInstance:
    """The benchmark instance is pinned; drift in the generator fails here."""

    def test_payoff_matches_generator(self):
        stored = read_fixture("bimatrix_seed777_L7.05_payoff.txt")
        prob = make_bimatrix(
            BimatrixSpec(n=20, m=10, target_lipschitz=7.05, noise_scale=0.1,
                         seed=777),
            with_reference=False,
        )
        assert np.array_equal(stored, prob.payoff_mean)

    def test_reference_certified_from_file(self):
        payoff = read_fixture("bimatrix_seed777_L7.05_payoff.txt")
        point = read_fixture("bimatrix_seed777_L7.05_reference.txt")[0]
        value = read_fixture("bimatrix_seed777_L7.05_value.txt")[0, 0]
        prob = bimatrix_from_payoff(payoff, with_reference=False)
        r = natural_residual(point, prob.mean_map, prob.feasible_set,
                             1.0 / prob.mean_map.lipschitz)
        assert r <= 1e-9
        assert z_saddle_value(payoff, point[:20], point[20:]) == pytest.approx(
            value, abs=1e-12)


def test_reference_solution_returns_value_for_games(pennies_problem):
    point, value = reference_solution(pennies_problem, tol=1e-10)
    assert np.allclose(point, 0.5, atol=1e-9)
    assert abs(value) <= 1e-9


def test_z_saddle_value():
    payoff = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    assert z_saddle_value(payoff, x, y) == pytest.approx(3.0)
