"""Delay-position solver: oracles, equivalence, energy structure."""

import numpy as np
import pytest

from conftest import capture_at, dense_solve, make_config

from linkages import diagnostics as dg
from linkages.config import PastData, validate_config
from linkages.grids import AgeGrid, SpaceGrid, build_grids
from linkages.kinetics import init_density, moment
from linkages.position import (
    PositionHistory,
    initial_position,
    step_position,
    volterra_residual,
)
from linkages import presets
from linkages.simulate import run_weak

EPS = 0.05
SG = SpaceGrid(nx=31)
AG = AgeGrid(da=0.01, a_max=10.0)
SIN_PAST = PastData(fn=presets.past_data_fn("sin_pi"))
EXP_DECAY = lambda x, a: np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float))


def discrete_sin_eigenvalue(sgrid):
    return (2.0 - 2.0 * np.cos(np.pi * sgrid.dx)) / sgrid.dx**2


def test_initial_position_sine_eigenfunction():
    rho = init_density(EXP_DECAY, SG, AG)
    z = initial_position(rho, SIN_PAST, EPS, SG, AG)
    # sin(pi x) is a discrete eigenvector: exact closed form for the solve
    mu0 = moment(rho, AG, 0)
    coeff = mu0 - AG.w[0] * rho[:, 0]
    lam = discrete_sin_eigenvalue(SG)
    exact = coeff[1] * np.sin(np.pi * SG.x) / np.pi / (coeff[1] + EPS * lam)
    np.testing.assert_allclose(z, exact, atol=1e-12)
    # continuum formula from the full-population coefficient, O(dx^2) + O(da)
    approx = mu0[1] * np.sin(np.pi * SG.x) / np.pi / (mu0[1] + EPS * np.pi**2)
    np.testing.assert_allclose(z, approx, atol=5e-3)


def test_initial_position_zero_past():
    rho = init_density(EXP_DECAY, SG, AG)
    z = initial_position(rho, PastData(fn=presets.past_data_fn("zero")), EPS, SG, AG)
    np.testing.assert_allclose(z, 0.0, atol=1e-14)


def test_initial_position_small_scale_limit():
    rho = init_density(EXP_DECAY, SG, AG)
    zp0 = SIN_PAST(SG.x, 0.0)
    devs = []
    for eps in (1e-2, 1e-3, 1e-4):
        z = initial_position(rho, SIN_PAST, eps, SG, AG)
        devs.append(np.max(np.abs(z - zp0)))
    assert devs[0] > devs[1] > devs[2]
    # deviation shrinks proportionally to eps
    assert devs[2] / devs[0] == pytest.approx(1e-2, rel=0.1)


def test_step_position_poisson_reduction():
    # with no bonds the delay operator vanishes: -Lap z = S
    rho = np.zeros((SG.n_nodes, AG.n_nodes))
    hist = PositionHistory(np.zeros(SG.n_nodes), PastData(fn=presets.past_data_fn("zero")), EPS, SG, AG)
    S = np.pi**2 * np.sin(np.pi * SG.x)
    z = step_position(rho, hist, EPS, SG, AG, source=S)
    lam = discrete_sin_eigenvalue(SG)
    np.testing.assert_allclose(z, np.pi**2 / lam * np.sin(np.pi * SG.x), atol=1e-11)
    np.testing.assert_allclose(z, np.sin(np.pi * SG.x), atol=1.0 * SG.dx**2)


def test_step_position_zero_history():
    rho = init_density(EXP_DECAY, SG, AG)
    hist = PositionHistory(np.zeros(SG.n_nodes), PastData(fn=presets.past_data_fn("zero")), EPS, SG, AG)
    z = step_position(rho, hist, EPS, SG, AG)
    np.testing.assert_allclose(z, 0.0, atol=1e-14)


def test_step_position_drifts_to_zero():
    # frozen nonharmonic history: the only steady state on (0,1) is 0
    rho = init_density(lambda x, a: 0.5 * EXP_DECAY(x, a), SG, AG)
    zstar = np.sin(np.pi * SG.x) * 0.3
    hist = PositionHistory(zstar, PastData(fn=lambda x, t: 0.3 * np.sin(np.pi * np.asarray(x))), EPS, SG, AG)
    z = step_position(rho, hist, EPS, SG, AG)
    assert np.max(np.abs(z)) < np.max(np.abs(zstar))


def test_volterra_residual_of_step_output():
    vcfg = validate_config(make_config(nx=31, final_time=0.05))
    capture = capture_at({40})
    run_weak(vcfg, output_stride=1000, diag_stride=0, observers=[capture])
    cap, = capture.captures
    sg, ag, _ = build_grids(vcfg)

    class Aligned:
        def __init__(self, m):
            self._m = m

        def matrix(self):
            return self._m

    r = volterra_residual(Aligned(cap.delayed_z), cap.rho, cap.z, vcfg.epsilon, sg, ag)
    scale = max(np.max(np.abs(cap.z)) * 1.0 / vcfg.epsilon, 1.0)
    assert np.max(np.abs(r)) <= 1e-9 * scale


def test_volterra_residual_zero_field():
    rho = init_density(EXP_DECAY, SG, AG)
    z = np.zeros(SG.n_nodes)
    hist = PositionHistory(z, PastData(fn=presets.past_data_fn("zero")), EPS, SG, AG)
    r = volterra_residual(hist, rho, z, EPS, SG, AG)
    np.testing.assert_allclose(r, 0.0, atol=1e-14)


def test_volterra_residual_linearity_in_perturbation():
    rho = init_density(EXP_DECAY, SG, AG)
    z0 = np.zeros(SG.n_nodes)
    hist = PositionHistory(z0, PastData(fn=presets.past_data_fn("zero")), EPS, SG, AG)
    delta = 1e-3
    zp = delta * np.sin(np.pi * SG.x)
    r = volterra_residual(hist, rho, zp, EPS, SG, AG)
    mu0 = moment(rho, AG, 0)
    lam = discrete_sin_eigenvalue(SG)
    expected = delta * (mu0[1:-1] / EPS + lam) * np.sin(np.pi * SG.x[1:-1])
    np.testing.assert_allclose(r, expected, rtol=1e-10)


def test_step_position_matches_dense_oracle():
    rng = np.random.default_rng(5)
    sg = SpaceGrid(nx=12)
    ag = AgeGrid(da=0.1, a_max=10.0)
    rho = rng.uniform(0.0, 0.05, (sg.n_nodes, ag.n_nodes))
    past = PastData(fn=lambda x, t: np.sin(np.pi * np.asarray(x)) * (1.0 + 0.2 * t))
    z0 = past(sg.x, 0.0)
    hist = PositionHistory(z0, past, EPS, sg, ag)
    Z = hist.matrix().copy()
    z = step_position(rho, hist, EPS, sg, ag)
    mu0 = rho @ ag.w
    coeff = mu0 - ag.w[0] * rho[:, 0]
    rhs = np.einsum("j,xj,jx->x", ag.w[1:], rho[:, 1:], Z[:-1])[1:-1]
    z_ref = dense_solve(coeff[1:-1], EPS, rhs, sg.nx)
    np.testing.assert_allclose(z, z_ref, atol=1e-12)


def test_energy_decay_along_weak_run():
    vcfg = validate_config(make_config(nx=31, final_time=0.05))
    res = run_weak(vcfg, output_stride=100, diag_stride=1)
    assert res.ok, res.violations
    E = [r.energy for r in res.records]
    assert all(b <= a + 1e-6 * abs(E[0]) for a, b in zip(E[:-1], E[1:]))


def test_minimization_property():
    # the computed position minimizes the discrete energy
    vcfg = validate_config(make_config(nx=31, final_time=0.05))
    capture = capture_at({25})
    run_weak(vcfg, output_stride=1000, diag_stride=0, observers=[capture])
    cap, = capture.captures
    sg, ag, _ = build_grids(vcfg)
    rng = np.random.default_rng(17)
    e0 = dg.energy(cap.z, cap.delayed_z, cap.rho, vcfg.epsilon, sg, ag)
    for _ in range(100):
        v = rng.uniform(-1.0, 1.0, sg.nx)
        v /= np.max(np.abs(v))
        zp = cap.z.copy()
        zp[1:-1] += 1e-3 * v
        assert dg.energy(zp, cap.delayed_z, cap.rho, vcfg.epsilon, sg, ag) >= e0
