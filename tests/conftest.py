"""Shared fixtures: small deterministic problem instances."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from svilab import make_affine_strongly_monotone
from svilab.problems import bimatrix_from_payoff

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


@pytest.fixture(scope="session")
def pennies_problem():
    """Matching pennies with its exact mixed equilibrium (0.5, 0.5)."""
    return bimatrix_from_payoff(PENNIES, noise_scale=0.0, seed=0)


@pytest.fixture(scope="session")
def affine_problem():
    """Strongly monotone affine instance with a known interior root."""
    return make_affine_strongly_monotone(n=6, mu=0.7, lipschitz=3.0, sigma=0.0, seed=11)


@pytest.fixture
def fast_switching():
    """The interpreter switches threads as often as it can during the
    test: a thread test's races get the most chances to show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)
