"""Fully coupled system: elongation transport, velocity solve, profiles."""

import warnings

import numpy as np
import pytest

from conftest import dense_solve, make_config

from linkages.config import PastData, RateModel, SourceModel, validate_config
from linkages.coupled import (
    CoupledState,
    asymptotic_profile,
    coupled_step,
    init_elongation,
    mu_ode_residual,
    riccati_gamma2,
    riccati_p,
    solve_velocity,
    step_elongation,
)
from linkages.errors import NonpositiveGamma1
from linkages.grids import AgeGrid, SpaceGrid, build_grids
from linkages.kinetics import init_density, moment
from linkages.position import PositionHistory
from linkages import presets
from linkages.simulate import run_coupled

EPS = 0.05
SG = SpaceGrid(nx=15)
AG = AgeGrid(da=0.05, a_max=10.0)
RATE = RateModel(zeta_kind="lipschitz", zeta_M=np.inf)
HALF_EXP = lambda x, a: 0.5 * np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float))


def coupled_cfg(**overrides):
    fn, dfn = presets.source_fns("constant(1.0)")
    base = dict(
        mode="coupled",
        epsilon=0.02,
        da=0.02,
        nx=15,
        final_time=0.2,
        rate_model=RateModel(zeta_kind="lipschitz", zeta_M=np.inf),
        past_data=PastData(fn=presets.past_data_fn("zero")),
        initial_density=presets.initial_density_fn("exp_decay(0.9)"),
        source=SourceModel(fn=fn, dfn=dfn),
    )
    base.update(overrides)
    return make_config(**base)


def validate_quiet(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate_config(cfg)


def test_init_elongation_constant_past():
    past = PastData(fn=presets.past_data_fn("sin_pi"))
    z0 = past(SG.x, 0.0)
    u = init_elongation(z0, past, EPS, SG, AG)
    np.testing.assert_allclose(u, 0.0, atol=1e-14)


def test_init_elongation_growing_past():
    past = PastData(fn=presets.past_data_fn("sin_pi_growing(1.0)"))
    z0 = 0.5 * np.sin(np.pi * SG.x) / np.pi
    u = init_elongation(z0, past, EPS, SG, AG)
    assert np.all(u[:, 0] == 0.0)  # unstretched newborns at the corner
    for j in (1, 3, AG.na):
        expected = (z0 - np.sin(np.pi * SG.x) / np.pi * (1.0 - EPS * AG.a[j])) / EPS
        expected[0] = expected[-1] = 0.0
        np.testing.assert_allclose(u[:, j], expected, atol=1e-12)


def test_init_elongation_triangle_bound():
    past = PastData(
        fn=presets.past_data_fn("sin_pi_growing(1.0)"),
        lipschitz=presets.past_lipschitz_fn("sin_pi(1.0)"),
    )
    z0 = 0.5 * np.sin(np.pi * SG.x) / np.pi
    u = init_elongation(z0, past, EPS, SG, AG)
    c_zp = past.lipschitz(SG.x)
    gap0 = np.abs(z0 - past(SG.x, 0.0)) / EPS
    bound = gap0[:, None] + c_zp[:, None] * AG.a[None, :]
    assert np.all(np.abs(u) <= bound + 1e-12)


def test_step_elongation_pure_shift():
    vals = np.random.default_rng(2).uniform(0.0, 1.0, (SG.n_nodes, AG.n_nodes))
    vals[0] = vals[-1] = 0.0
    new = step_elongation(vals, np.zeros(SG.n_nodes), AG)
    np.testing.assert_allclose(new[:, 1:], vals[:, :-1], atol=1e-15)
    assert np.all(new[:, 0] == 0.0)


def test_step_elongation_constant_velocity():
    G = 0.7
    u = np.zeros((SG.n_nodes, AG.n_nodes))
    g = np.full(SG.n_nodes, G)
    new = step_elongation(u, g, AG)
    np.testing.assert_allclose(new[1:-1, 1:], AG.da * G, atol=1e-15)
    # iterating fills in the linear-in-age profile u = G a
    for _ in range(AG.na):
        new = step_elongation(new, g, AG)
    np.testing.assert_allclose(
        new[1:-1, :], G * AG.a[None, :] * np.ones((SG.nx, 1)), atol=1e-12
    )


def test_solve_velocity_zero_stretch():
    rho = init_density(HALF_EXP, SG, AG)
    u = np.zeros((SG.n_nodes, AG.n_nodes))
    g = solve_velocity(rho, u, RATE.zeta_of_u(u), None, EPS, SG, AG)
    np.testing.assert_allclose(g, 0.0, atol=1e-14)


def test_solve_velocity_poisson_reduction():
    rho = np.zeros((SG.n_nodes, AG.n_nodes))
    u = np.zeros((SG.n_nodes, AG.n_nodes))
    dSdt = np.pi**2 * np.sin(np.pi * SG.x)
    g = solve_velocity(rho, u, RATE.zeta_of_u(u), dSdt, EPS, SG, AG)
    np.testing.assert_allclose(g, np.sin(np.pi * SG.x), atol=1.0 * SG.dx**2)


def test_solve_velocity_linear_stretch_profile():
    # zeta(u) = 1+|u|, rho = e^-a/2, u = G a: the load integral has the
    # closed form G/2 [ (1-11e^-10) + 2G (1 - 61 e^-10) ] on the cut domain
    G = 0.8
    ag = AgeGrid(da=0.005, a_max=10.0)
    rho = init_density(HALF_EXP, SG, ag)
    u = G * ag.a[None, :] * np.ones((SG.n_nodes, 1))
    zeta_u = RATE.zeta_of_u(u)
    quad = ((zeta_u * rho * u) @ ag.w)[1]
    analytic = 0.5 * G * ((1.0 - 11.0 * np.exp(-10.0)) + 2.0 * G * (1.0 - 61.0 * np.exp(-10.0)))
    assert quad == pytest.approx(analytic, abs=5e-5)
    g = solve_velocity(rho, u, RATE.zeta_of_u(u), None, EPS, SG, ag)
    mu0 = moment(rho, ag, 0)
    g_ref = dense_solve(mu0[1:-1], EPS, np.full(SG.nx, quad), SG.nx)
    np.testing.assert_allclose(g[1:-1], g_ref[1:-1], atol=1e-10)


def test_coupled_step_zero_state_stays_zero():
    ag = AgeGrid(da=0.02, a_max=10.0)
    rho = np.zeros((SG.n_nodes, ag.n_nodes))
    u = np.zeros((SG.n_nodes, ag.n_nodes))
    past = PastData(fn=presets.past_data_fn("zero"))
    hist = PositionHistory(np.zeros(SG.n_nodes), past, EPS, SG, ag)
    rate = RateModel(zeta_kind="lipschitz", zeta_M=np.inf, beta=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)), beta_m=0.0, beta_M=0.0)
    state = CoupledState(
        rho=rho, u=u, z=np.zeros(SG.n_nodes), g=np.zeros(SG.n_nodes),
        hist=hist, t=0.0, truncation_k=np.inf,
    )
    state = coupled_step(state, None, rate, EPS, SG, ag)
    assert np.all(state.z == 0.0) and np.all(state.g == 0.0)
    assert np.all(state.rho == 0.0) and np.all(state.u == 0.0)


def test_positivity_preserved():
    vcfg = validate_quiet(coupled_cfg(final_time=0.1))
    res = run_coupled(vcfg, diag_stride=0)
    assert res.u_min >= -1e-12
    assert res.ok


def test_velocity_matches_position_difference_quotient():
    # cross-check of the two formulations: g from the elliptic balance vs
    # the difference quotient of the directly solved position, O(dt) apart
    gaps = []
    for da in (0.04, 0.02):
        vcfg = validate_quiet(coupled_cfg(da=da, final_time=0.1))
        sg, ag, ts = build_grids(vcfg)
        zs = []
        res = run_coupled(vcfg, diag_stride=0, observers=[lambda n, st: zs.append(st.z.copy())])
        g_fd = (zs[-1] - zs[-2]) / ts.dt
        gaps.append(np.max(np.abs(res.final.g - g_fd)) / max(np.max(np.abs(res.final.g)), 1e-12))
    assert gaps[0] < 0.2
    assert gaps[1] < 0.75 * gaps[0]


def test_mu_ode_residual_zero_state():
    ag = AgeGrid(da=0.02, a_max=10.0)
    rho = np.zeros((SG.n_nodes, ag.n_nodes))
    u = np.zeros((SG.n_nodes, ag.n_nodes))
    past = PastData(fn=presets.past_data_fn("zero"))
    hist = PositionHistory(np.zeros(SG.n_nodes), past, EPS, SG, ag)
    st = CoupledState(rho=rho, u=u, z=np.zeros(SG.n_nodes), g=np.zeros(SG.n_nodes), hist=hist, t=0.0, truncation_k=np.inf)
    r = mu_ode_residual(st, st, None, np.zeros(SG.n_nodes), EPS, SG, ag)
    np.testing.assert_allclose(r, 0.0, atol=1e-14)


def test_mu_ode_residual_steady_profile():
    # mu = beta/(beta+1) and -Lap z = S make the balance vanish identically
    from linkages.elliptic import assemble, solve

    ag = AgeGrid(da=0.02, a_max=10.0)
    beta = 1.0
    # exponential age profile scaled to mass exactly beta/(beta+1)
    shape = np.exp(-ag.a)
    scale = (beta / (beta + 1.0)) / float(shape @ ag.w)
    rho = np.tile(scale * shape, (SG.n_nodes, 1))
    S = np.full(SG.n_nodes, 2.0)
    z = solve(assemble(np.zeros(SG.nx), 1.0, SG), S[1:-1])
    u = np.zeros((SG.n_nodes, ag.n_nodes))
    past = PastData(fn=presets.past_data_fn("zero"))
    hist = PositionHistory(z, past, EPS, SG, ag)
    st = CoupledState(rho=rho, u=u, z=z, g=np.zeros(SG.n_nodes), hist=hist, t=0.0, truncation_k=np.inf)
    fn, dfn = presets.source_fns("constant(2.0)")
    src = SourceModel(fn=fn, dfn=dfn)
    r = mu_ode_residual(st, st, src, np.full(SG.n_nodes, beta), EPS, SG, ag)
    np.testing.assert_allclose(r, 0.0, atol=1e-9)


def test_mu_ode_residual_shrinks_under_refinement():
    norms = []
    for da in (0.04, 0.02):
        vcfg = validate_quiet(coupled_cfg(da=da, final_time=0.1))
        sg, ag, ts = build_grids(vcfg)
        n_pair = int(0.05 / ts.dt)
        pair = {}  # coupled_step returns a fresh state, so keeping references suffices

        def keep(n, st):
            if n in (n_pair - 1, n_pair):
                pair[n] = st

        run_coupled(vcfg, diag_stride=0, observers=[keep])
        prev, nxt = pair[n_pair - 1], pair[n_pair]
        beta = vcfg.rate_model.beta_values(sg.x, nxt.t)
        r = mu_ode_residual(prev, nxt, vcfg.source, beta, vcfg.epsilon, sg, ag)
        norms.append(np.max(np.abs(r)))
    assert norms[1] < 0.7 * norms[0]


def test_asymptotic_profile():
    mu_inf, z_inf = asymptotic_profile(1.0, np.pi**2 * np.sin(np.pi * SG.x), SG)
    np.testing.assert_allclose(mu_inf, 0.5, atol=1e-14)
    np.testing.assert_allclose(z_inf, np.sin(np.pi * SG.x), atol=1.0 * SG.dx**2)
    mu0_inf, _ = asymptotic_profile(0.0, np.zeros(SG.n_nodes), SG)
    np.testing.assert_allclose(mu0_inf, 0.0, atol=1e-15)


def test_riccati_gamma2_values():
    assert riccati_gamma2(0.0, 1.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert riccati_gamma2(10.0, 1.0, 0.0, 1.0) == pytest.approx(10.0, abs=1e-15)
    expected = (0.5 + np.sqrt(0.25 + 4.0)) / 2.0
    assert riccati_gamma2(0.0, 1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.2808, abs=1e-4)
    with pytest.raises(NonpositiveGamma1):
        riccati_gamma2(0.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("diag_stride", [0, 5])
def test_zeta_of_u_once_per_step(monkeypatch, diag_stride):
    # two calls at start-up (velocity, Riccati bound), one per step, one per record
    vcfg = validate_quiet(coupled_cfg(final_time=0.02))
    n_steps = build_grids(vcfg)[2].n_steps
    zeta, calls = vcfg.rate_model.zeta, []
    monkeypatch.setattr(vcfg.rate_model, "zeta", lambda u: calls.append(1) or zeta(u))
    run_coupled(vcfg, diag_stride=diag_stride)
    n_records = n_steps // diag_stride + 1 if diag_stride else 0
    assert len(calls) == n_steps + 2 + n_records


def test_riccati_monitor_stays_below_bound():
    vcfg = validate_quiet(coupled_cfg(final_time=0.2))
    res = run_coupled(vcfg, diag_stride=10)
    assert not res.soft_flags, res.soft_flags
    assert all(rec.p <= res.gamma2 * (1 + 1e-9) for rec in res.records)
    assert not res.ever_truncated


def test_stability_functional_decays_with_constant_source():
    # dS/dt = 0: int int rho |u| is nonincreasing along the coupled flow
    vcfg = validate_quiet(coupled_cfg(final_time=0.2))
    res = run_coupled(vcfg, diag_stride=1)
    Q = [rec.stability for rec in res.records]
    assert all(b <= a * (1 + 1e-6) + 1e-15 for a, b in zip(Q[:-1], Q[1:]))
