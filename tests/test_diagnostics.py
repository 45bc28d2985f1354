"""Observables: energy, dissipation, population functionals, errors."""

import numpy as np
import pytest

from linkages.config import PastData, RateModel, validate_config
from linkages.diagnostics import (
    convergence_error,
    dissipation,
    energy,
    energy_from_elongation,
    lyapunov_H,
    rho_convergence_H,
    stability_functional,
)
from linkages.errors import GridMismatch
from linkages.grids import AgeGrid, SpaceGrid, build_grids
from linkages.kinetics import init_density, limit_density
from linkages import presets
from conftest import make_config
from linkages.simulate import run_weak

SG = SpaceGrid(nx=63)
AG = AgeGrid(da=0.01, a_max=10.0)
HALF_EXP = lambda x, a: 0.5 * np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float))


def zero_delayed():
    return np.zeros((AG.n_nodes, SG.n_nodes))


def test_energy_zero_field():
    rho = init_density(HALF_EXP, SG, AG)
    assert energy(np.zeros(SG.n_nodes), zero_delayed(), rho, 0.05, SG, AG) == 0.0


def test_energy_gradient_term():
    # frozen z = sin(pi x)/pi: the delay entries vanish, leaving
    # (1/2) int cos^2(pi x) = 1/4 up to O(dx^2)
    rho = init_density(HALF_EXP, SG, AG)
    z = np.sin(np.pi * SG.x) / np.pi
    delayed = np.tile(z, (AG.n_nodes, 1))
    e = energy(z, delayed, rho, 0.05, SG, AG)
    assert e == pytest.approx(0.25, abs=10 * SG.dx**2)


def test_energy_constant_history_drops_delay():
    rho = init_density(HALF_EXP, SG, AG)
    z = np.sin(np.pi * SG.x) / np.pi
    delayed = np.tile(z, (AG.n_nodes, 1))
    e_with = energy(z, delayed, rho, 0.05, SG, AG)
    empty = np.zeros_like(rho)
    e_without = energy(z, delayed, empty, 0.05, SG, AG)
    assert e_with == pytest.approx(e_without, abs=1e-15)


def test_energy_source_term():
    rho = init_density(HALF_EXP, SG, AG)
    z = np.sin(np.pi * SG.x) / np.pi
    delayed = np.tile(z, (AG.n_nodes, 1))
    S = np.pi**2 * np.sin(np.pi * SG.x)
    e = energy(z, delayed, rho, 0.05, SG, AG, source=S)
    # load term subtracts int S z = pi int sin^2 = pi/2
    assert e == pytest.approx(0.25 - np.pi / 2, abs=1e-3)


def test_energy_from_elongation_consistency():
    eps = 0.05
    rho = init_density(HALF_EXP, SG, AG)
    z = np.sin(np.pi * SG.x) / np.pi
    rng = np.random.default_rng(1)
    delayed = z[None, :] - eps * rng.uniform(0, 1, (AG.n_nodes, SG.n_nodes))
    delayed[:, 0] = delayed[:, -1] = 0.0
    delayed[0] = z
    u = (z[None, :] - delayed).T / eps
    e1 = energy(z, delayed, rho, eps, SG, AG)
    e2 = energy_from_elongation(z, rho, u, eps, SG, AG)
    assert e1 == pytest.approx(e2, rel=1e-12)


def test_dissipation_cases():
    rho = init_density(HALF_EXP, SG, AG)
    zeta = np.ones((SG.n_nodes, AG.n_nodes))
    zero_u = np.zeros((SG.n_nodes, AG.n_nodes))
    assert dissipation(rho, zero_u, zeta, SG, AG) == 0.0
    # u = a: int 0.5 a^2 e^-a over the cut domain = 1 - 61 e^-10 per unit x
    u = np.tile(AG.a, (SG.n_nodes, 1))
    val = dissipation(rho, u, zeta, SG, AG)
    assert val == pytest.approx(1.0 - 61.0 * np.exp(-10.0), abs=5e-4)
    # quadratic homogeneity
    u2 = 2.0 * u
    assert dissipation(rho, u2, zeta, SG, AG) == pytest.approx(4.0 * val, rel=1e-13)


def test_lyapunov_cases():
    assert np.all(lyapunov_H(np.zeros((3, AG.n_nodes)), AG) == 0.0)
    f = np.exp(-AG.a)[None, :]
    np.testing.assert_allclose(lyapunov_H(f, AG), 2.0 * (1.0 - np.exp(-10.0)), atol=1e-4)
    # signed block profile: the signed integral cancels, the absolute one adds
    g = np.where(AG.a < 1.0, 1.0, np.where(AG.a < 2.0, -1.0, 0.0))[None, :]
    h = lyapunov_H(g, AG)
    assert h[0] == pytest.approx(2.0, abs=4 * AG.da)


def test_stability_functional_cases():
    rho = init_density(HALF_EXP, SG, AG)
    zero_u = np.zeros((SG.n_nodes, AG.n_nodes))
    assert stability_functional(rho, zero_u, SG, AG) == 0.0
    u = np.tile(AG.a, (SG.n_nodes, 1))
    val = stability_functional(rho, u, SG, AG)
    # int 0.5 a e^-a = (1 - 11 e^-10)/2 per unit x
    assert val == pytest.approx(0.5 * (1.0 - 11.0 * np.exp(-10.0)), abs=5e-4)
    rho2 = 2.0 * rho
    assert stability_functional(rho2, u, SG, AG) == pytest.approx(2.0 * val, rel=1e-13)


def test_rho_convergence_H_identical():
    rho = init_density(HALF_EXP, SG, AG)
    assert np.all(rho_convergence_H(rho, rho, AG) == 0.0)


def test_rho_convergence_H_initial_value():
    rho = init_density(lambda x, a: np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float)), SG, AG)
    ld = limit_density(1.0, np.ones(AG.n_nodes), AG)
    h = rho_convergence_H(rho, ld.rho0[None, :], AG)
    direct = lyapunov_H(rho - ld.rho0[None, :], AG)
    np.testing.assert_allclose(h, direct, atol=1e-15)


def test_rho_convergence_H_decays_at_kinetic_rate():
    # constant rates: residual terms vanish and H decays like e^{-t/eps}
    vcfg = validate_config(make_config(nx=7, final_time=0.25))
    sg, ag, ts = build_grids(vcfg)
    res = run_weak(vcfg, output_stride=100, diag_stride=100)
    rate = vcfg.rate_model
    ld = limit_density(rate.beta_values(sg.x, 0.0), rate.zeta_field(sg.x, ag.a, 0.0), ag)
    h_final = rho_convergence_H(res.final_rho, ld.rho0, ag)
    rho_I = init_density(vcfg.initial_density, sg, ag)
    h0 = rho_convergence_H(rho_I, ld.rho0, ag)
    envelope = h0 * np.exp(-1.0 * vcfg.final_time / vcfg.epsilon)
    assert np.all(h_final <= envelope * (1.0 + 0.05) + 1e-6)


def test_convergence_error_cases():
    times = 11
    sg = SpaceGrid(nx=9)
    a = np.zeros((times, sg.n_nodes))
    assert convergence_error(a, a, 0.1, sg) == 0.0
    b = a + 3.0  # constant difference c on the unit cylinder -> exactly c
    assert convergence_error(b, a, 0.1, sg) == pytest.approx(3.0, rel=1e-14)
    with pytest.raises(GridMismatch):
        convergence_error(a, a[:-1], 0.1, sg)
