"""Limit heat equation: separation-of-variables and steady-state oracles."""

import numpy as np
import pytest

from linkages.errors import DegenerateFriction
from linkages.grids import SpaceGrid
from linkages.limit import step_limit

SG = SpaceGrid(nx=31)
LAM = (2.0 - 2.0 * np.cos(np.pi * SG.dx)) / SG.dx**2


def test_decay_matches_discrete_factor():
    dt = 1e-3
    mu10 = np.full(SG.n_nodes, 0.5)
    z = step_limit(np.sin(np.pi * SG.x) / np.pi, mu10, dt, SG)
    # one implicit Euler step divides the sine mode by 1 + 2 dt lam exactly
    expected = np.sin(np.pi * SG.x) / np.pi / (1.0 + 2.0 * dt * LAM)
    np.testing.assert_allclose(z, expected, atol=1e-13)


def test_decay_matches_separation_of_variables():
    dt, T = 1e-3, 0.05
    mu10 = np.full(SG.n_nodes, 0.5)
    z = np.sin(np.pi * SG.x) / np.pi
    for _ in range(int(T / dt)):
        z = step_limit(z, mu10, dt, SG)
    exact = np.exp(-2.0 * np.pi**2 * T) * np.sin(np.pi * SG.x) / np.pi
    np.testing.assert_allclose(z, exact, atol=3.0 * (dt + SG.dx**2))


def test_zero_state_stays_zero():
    z = step_limit(np.zeros(SG.n_nodes), np.full(SG.n_nodes, 0.5), 1e-2, SG)
    assert np.all(z == 0.0)


def test_steady_state_with_source():
    dt = 1e-2
    S = np.pi**2 * np.sin(np.pi * SG.x)
    z = np.zeros(SG.n_nodes)
    for _ in range(2000):
        z = step_limit(z, np.full(SG.n_nodes, 0.5), dt, SG, source=S)
    np.testing.assert_allclose(z, np.sin(np.pi * SG.x), atol=1.0 * SG.dx**2)


def test_maximum_principle_and_l2_contraction():
    rng = np.random.default_rng(23)
    z = np.zeros(SG.n_nodes)
    z[1:-1] = rng.normal(size=SG.nx)
    for _ in range(20):
        prev = z.copy()
        z = step_limit(z, np.full(SG.n_nodes, 0.5), 5e-3, SG)
        assert np.max(np.abs(z)) <= np.max(np.abs(prev)) + 1e-14
        assert np.linalg.norm(z) <= np.linalg.norm(prev) + 1e-14


def test_fully_degenerate_falls_back_to_steady():
    S = np.pi**2 * np.sin(np.pi * SG.x)
    z = step_limit(np.zeros(SG.n_nodes), np.zeros(SG.n_nodes), 1e-2, SG, source=S)
    np.testing.assert_allclose(z, np.sin(np.pi * SG.x), atol=1.0 * SG.dx**2)


def test_partially_degenerate_raises():
    mu10 = np.full(SG.n_nodes, 0.5)
    mu10[5] = 0.0
    with pytest.raises(DegenerateFriction):
        step_limit(np.zeros(SG.n_nodes), mu10, 1e-2, SG, source=np.ones(SG.n_nodes))
