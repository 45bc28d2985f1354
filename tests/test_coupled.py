"""Fully coupled system: elongation transport, velocity solve, profiles."""

import copy
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import dense_solve, make_config

from linkages.cli import coupled_config, detachment_config
from linkages.config import Inputs, PastData, RateModel, SourceModel, validate_config
from linkages.coupled import (
    OMEGA,
    CoupledState,
    coupled_step,
    riccati_gamma2,
    solve_velocity,
)
from linkages.diagnostics import elongation_from_history, stretch_integrals
from linkages.errors import NonpositiveGamma1
from linkages.grids import AgeGrid, SpaceGrid, build_grids
from linkages.kinetics import BirthRing, CohortRing, decay, init_density
from linkages.position import PositionHistory, sample_past, solve_balance
from linkages import coupled, diagnostics, elliptic, presets
from linkages.simulate import DETACHMENT_TIMES, run_coupled, run_detachment
from oracles import age_order, moment, mu_ode_residual

EPS = 0.05
SG = SpaceGrid(nx=15)
AG = AgeGrid(da=0.05, a_max=10.0)
RATE = RateModel(zeta_kind="lipschitz", zeta_M=np.inf)
HALF_EXP = lambda x, a: 0.5 * np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float))


def coupled_cfg(**overrides):
    fn, dfn = presets.source_fns("constant(1.0)")
    base = dict(
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


def level_zero(past):
    """z and the stretch u, in age order, of run_coupled's level-0 state on SG and AG."""
    vcfg = validate_quiet(coupled_cfg(epsilon=EPS, da=AG.da, final_time=2 * EPS * AG.da, past_data=past))
    first = []
    run_coupled(vcfg, diag_stride=0, observers=[lambda n, st: first.append((st.z.copy(), st.u)) if n == 0 else None])
    return first[0]


def test_init_elongation_constant_past():
    past = PastData(fn=presets.past_data_fn("sin_pi"))
    z0 = past(SG.x, 0.0)
    hist = PositionHistory(z0, sample_past(past, EPS, SG, AG))
    u = elongation_from_history(z0, hist, EPS, np.empty((SG.n_nodes, AG.n_nodes)))
    np.testing.assert_allclose(u, 0.0, atol=1e-14)


GROWING_PAST = PastData(
    fn=presets.past_data_fn("sin_pi_growing(1.0)"),
    lipschitz=presets.past_lipschitz_fn("sin_pi(1.0)"),
)


def test_init_elongation_growing_past():
    z0, u = level_zero(GROWING_PAST)
    assert np.all(u[:, 0] == 0.0)  # unstretched newborns at the corner
    assert np.all(u[[0, -1]] == 0.0)  # and on the Dirichlet rows
    for j in (1, 3, AG.na):
        expected = (z0 - np.sin(np.pi * SG.x) / np.pi * (1.0 - EPS * AG.a[j])) / EPS
        expected[0] = expected[-1] = 0.0
        np.testing.assert_allclose(u[:, j], expected, atol=1e-12)


def test_init_elongation_triangle_bound():
    z0, u = level_zero(GROWING_PAST)
    c_zp = GROWING_PAST.lipschitz(SG.x)
    gap0 = np.abs(z0 - GROWING_PAST(SG.x, 0.0)) / EPS
    bound = gap0[:, None] + c_zp[:, None] * AG.a[None, :]
    assert np.all(np.abs(u) <= bound + 1e-12)


def bond_free(ag, u):
    """A coupled state without bonds (rho = 0, beta = 0) that carries the stretch u, and its Inputs (no load)."""
    hist = PositionHistory(np.zeros(SG.n_nodes), np.zeros((SG.n_nodes, ag.n_nodes)))
    rate = RateModel(zeta_kind="lipschitz", zeta_M=np.inf, beta=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)), beta_m=0.0, beta_M=0.0)
    state = CoupledState(
        rho=np.zeros((SG.n_nodes, ag.n_nodes)), u=u, z=np.zeros(SG.n_nodes), g=np.zeros(SG.n_nodes),
        hist=hist, t=0.0, truncation_k=np.inf, agrid=ag,
    )
    return state, Inputs(rate, None, EPS, SG, ag)


def test_step_elongation_pure_shift():
    # zero velocity: every cohort keeps its stretch and ages one cell, and
    # newborns are unstretched; the second step takes the zero-velocity shortcut
    vals = np.random.default_rng(2).uniform(0.0, 1.0, (SG.n_nodes, AG.n_nodes))
    vals[0] = vals[-1] = 0.0
    st, inputs = bond_free(AG, vals.copy())
    for _ in range(2):
        st = coupled_step(st, inputs, SG, AG)
        assert np.all(st.g == 0.0)
    assert np.array_equal(st.u[:, 2:], vals[:, :-2])
    assert np.all(st.u[:, :2] == 0.0)


def test_step_elongation_constant_velocity():
    G = 0.7
    st, inputs = bond_free(AG, np.zeros((SG.n_nodes, AG.n_nodes)))
    g = np.full(SG.n_nodes, G)
    g[0] = g[-1] = 0.0  # a velocity field vanishes at the Dirichlet nodes
    st.g = g
    st = coupled_step(st, inputs, SG, AG)
    np.testing.assert_allclose(st.u[1:-1, 1:], AG.da * G, atol=1e-15)
    # iterating fills in the linear-in-age profile u = G a
    for _ in range(AG.na):
        st.g = g
        st = coupled_step(st, inputs, SG, AG)
    np.testing.assert_allclose(
        st.u[1:-1, :], G * AG.a[None, :] * np.ones((SG.nx, 1)), atol=1e-12
    )
    assert np.all(st.u[[0, -1], :] == 0.0)


def cancelling_lanes():
    """A bond-free state with two cohorts stretched by +1 and -1, one step on: their load lanes cancel in the age sum."""
    u = np.zeros((SG.n_nodes, AG.n_nodes))
    u[1:-1, AG.na - 2], u[1:-1, 5] = 1.0, -1.0
    st, inputs = bond_free(AG, u)
    st.rho_ring[1:-1, AG.na - 2] = st.rho_ring[1:-1, 5] = 0.25
    return coupled_step(st, inputs, SG, AG), inputs


def test_cancelling_load_lanes_are_not_a_zero_load():
    # the lanes zeta rho u of two cohorts stretched by +1 and -1 cancel in the
    # age sum, so g = 0, but the older one reaches the half-weight end cell
    # next: the load no longer sums to zero, and the step must form it
    st, inputs = cancelling_lanes()
    assert np.all(st.g == 0.0) and not st.quiet
    st = coupled_step(st, inputs, SG, AG)
    assert np.all(st.g[1:-1] < 0.0)


def test_solve_velocity_zero_stretch():
    rho = init_density(HALF_EXP, SG, AG)
    u = np.zeros((SG.n_nodes, AG.n_nodes))
    g = solve_velocity(rho, rho @ AG.w, u, RATE.zeta_of_u(u), None, EPS, SG, AG.w)
    np.testing.assert_allclose(g, 0.0, atol=1e-14)


def test_solve_velocity_poisson_reduction():
    rho = np.zeros((SG.n_nodes, AG.n_nodes))
    u = np.zeros((SG.n_nodes, AG.n_nodes))
    dSdt = np.pi**2 * np.sin(np.pi * SG.x)
    g = solve_velocity(rho, rho @ AG.w, u, RATE.zeta_of_u(u), dSdt, EPS, SG, AG.w)
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
    mu0 = moment(rho, ag, 0)
    g = solve_velocity(rho, mu0, u, RATE.zeta_of_u(u), None, EPS, SG, ag.w)
    g_ref = dense_solve(mu0[1:-1], EPS, np.full(SG.nx, quad), SG.nx)
    np.testing.assert_allclose(g[1:-1], g_ref[1:-1], atol=1e-10)


def test_coupled_step_zero_state_stays_zero():
    ag = AgeGrid(da=0.02, a_max=10.0)
    rho = np.zeros((SG.n_nodes, ag.n_nodes))
    u = np.zeros((SG.n_nodes, ag.n_nodes))
    hist = PositionHistory(np.zeros(SG.n_nodes), np.zeros((SG.n_nodes, ag.n_nodes)))
    rate = RateModel(zeta_kind="lipschitz", zeta_M=np.inf, beta=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)), beta_m=0.0, beta_M=0.0)
    state = CoupledState(
        rho=rho, u=u, z=np.zeros(SG.n_nodes), g=np.zeros(SG.n_nodes),
        hist=hist, t=0.0, truncation_k=np.inf, agrid=ag,
    )
    state = coupled_step(state, Inputs(rate, None, EPS, SG, ag), SG, ag)
    assert np.all(state.z == 0.0) and np.all(state.g == 0.0)
    assert np.all(state.rho == 0.0) and np.all(state.u == 0.0)


def test_coupled_step_equals_its_unfused_composition():
    # tear-off state under a load of 1e4 that grows, so that the velocity and
    # the stretch of young bonds are not zero; most survival lanes underflow
    fn, dfn = presets.source_fns("linear_in_t(10000.0, 1000000.0)")
    vcfg = validate_quiet(detachment_config(nx=8, final_time=5e-5, source=SourceModel(fn=fn, dfn=dfn)))
    sg, ag, _ = build_grids(vcfg)
    rate, src, eps = vcfg.rate_model, vcfg.source, vcfg.epsilon
    st = run_coupled(vcfg, diag_stride=0).final
    assert np.all(st.g[1:-1] != 0.0) and st.hist.head != 0
    old = copy.deepcopy(st)
    new = coupled_step(st, Inputs(rate, src, eps, sg, ag), sg, ag)
    assert new is st

    # the same step in the cohort frame, one operation and temporary at a
    # time, with the weights rolled by the new head h
    t = old.t + eps * ag.da
    h = (old.hist.head - 1) % old.hist.depth
    g_old = np.clip(old.g, -old.truncation_k, old.truncation_k)
    u = old.u_ring + ag.da * g_old[:, None]
    u[:, h] = 0.0
    zeta_u = rate.zeta_of_u(u)
    assert np.mean(-ag.da * zeta_u <= -746.0) >= 0.5
    rho = old.rho_ring * np.exp(-ag.da * zeta_u)
    w = np.roll(ag.w, h)
    lag = np.where(np.arange(w.size) == h, 0.0, w)
    m = rho @ lag
    beta = rate.beta_values(sg.x, old.t, z=old.z)
    rho[:, h] = beta * (1.0 - m) / (1.0 + beta * ag.w[0])
    mu0 = ag.w[0] * rho[:, h] + m
    rhs = ((zeta_u * rho * u) @ w)[1:-1] + eps * src.ddt(sg.x, t)[1:-1]
    g = elliptic.solve(mu0[1:-1], eps, rhs, sg)
    hist = copy.deepcopy(old.hist)
    z = solve_balance(np.einsum("j,xj,xj->x", lag, rho, hist.buf), m, eps, sg, eps * src(sg.x, t)[1:-1])
    hist.push(z)
    bits = lambda a: np.ascontiguousarray(a).view(np.int64)
    for got, want in ((new.u_ring, u), (new.zeta, zeta_u), (new.rho_ring, rho), (new.mu0, mu0),
                      (new.g, g), (new.z, z), (new.hist.buf, hist.buf)):
        assert np.array_equal(bits(got), bits(want))
    assert new.t == t and new.hist.head == h

    # the step in the age frame: shift, survival at the arrival cell,
    # renewal, solves; its age sums run in another order
    u_a = np.zeros_like(u)
    u_a[:, 1:] = old.u[:, :-1] + ag.da * g_old[:, None]
    zeta_a = rate.zeta_of_u(u_a)
    rho_a = np.empty_like(u_a)
    rho_a[:, 1:] = old.rho[:, :-1] * np.exp(-ag.da * zeta_a[:, 1:])
    m_a = rho_a[:, 1:] @ ag.w[1:]
    rho_a[:, 0] = beta * (1.0 - m_a) / (1.0 + beta * ag.w[0])
    mu0_a = rho_a @ ag.w
    g_a = solve_velocity(rho_a, mu0_a, u_a, zeta_a, src.ddt(sg.x, t), eps, sg, ag.w)
    hist_a = copy.deepcopy(old.hist)  # its age-ordered snapshots, anchors of the ages j >= 1
    rhs_a = np.einsum("j,xj,xj->x", ag.w[1:], rho_a[:, 1:], age_order(hist_a)[:, :-1])
    z_a = solve_balance(rhs_a, mu0_a - ag.w[0] * rho_a[:, 0], eps, sg, eps * src(sg.x, t)[1:-1])
    hist_a.push(z_a)
    assert np.array_equal(new.u, u_a)
    for got, want in ((new.rho, rho_a), (new.mu0, mu0_a), (new.g, g_a), (new.z, z_a)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def plant_frozen_stretch(st, rate, ag, col):
    """Give lane (1, col), col not the newborns', a frozen stretch 0.1 under the smallest positive density.

    Its load lane zeta*rho*u underflows to 0, so a quiet state stays quiet,
    and it steps by exp(-da*zeta(0.1)), not by the newborns' factor: a live
    cohort off the birth ring's survival factor.  zeta and surv are formed
    afresh, as the full step forms them.
    """
    st.u_ring[1, col], st.rho_ring[1, col] = 0.1, 5e-324
    st.zeta = rate.zeta_of_u(st.u_ring)
    decay(st.zeta, ag.da, out=st.surv)
    assert rate.zeta_of_u(0.1) * 5e-324 * 0.1 == 0.0


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def full_step(st, inputs, sg, ag):
    """A cohort step that takes neither shortcut.

    With the quiet flag cleared the step is not calm: it forms every
    survival factor and the load, and solves.
    """
    st.quiet = False
    return coupled_step(st, inputs, sg, ag)


# S = 1e4 + 1e6 max(t - 3.25e-4, 0): constant until 3.25e-4, growing after
GROWING_LATE = SourceModel(
    fn=lambda x, t: np.full_like(x, 1e4 + 1e6 * max(t - 3.25e-4, 0.0)),
    dfn=lambda x, t: np.full_like(x, 1e6 if t >= 3.25e-4 else 0.0),
)


@pytest.mark.parametrize("load, velocity_solves, calm", [
    pytest.param(SourceModel(*presets.source_fns("constant(10000.0)")), 0, [30, 31, 32, 33, 34],
                 id="constant(10000.0)-0"),
    pytest.param(SourceModel(*presets.source_fns("linear_in_t(10000.0, 1000000.0)")), 5, [0] * 5,
                 id="linear_in_t(10000.0, 1000000.0)-5"),
    pytest.param(GROWING_LATE, 3, [30, 31, 0, 0, 0], id="growing_from_3.25e-4-3"),
])
def test_torn_off_step_shortcuts_change_no_bit(monkeypatch, load, velocity_solves, calm):
    # after the tear-off g is exactly 0: under a constant load every step
    # is calm and takes the shortcuts, under a growing load none is, and
    # under a load that starts to grow at the third step the first two are
    # calm and the third, the first step that is not calm after a calm
    # stretch, forms the load and solves, as do the two after it; full
    # (quiet cleared by full_step) is never calm.  A live cohort with a
    # frozen stretch, planted right after the tear-off, keeps the run off
    # the birth ring, so every step here is a cohort step
    vcfg = validate_quiet(detachment_config(nx=24, final_time=3e-4))
    sg, ag, _ = build_grids(vcfg)
    rate, eps = vcfg.rate_model, vcfg.epsilon
    plant = lambda n, st: plant_frozen_stretch(st, rate, ag, (st.hist.head + 1) % st.hist.depth) if n == 1 else None
    st = run_coupled(vcfg, diag_stride=0, observers=[plant]).final
    assert st.quiet and not np.any(st.g) and st.hist.head != 0 and not isinstance(st.ring, BirthRing)
    full, inputs = copy.deepcopy(st), Inputs(rate, load, eps, sg, ag)
    solves, calms = [], []
    solve = elliptic.solve
    monkeypatch.setattr(elliptic, "solve", lambda *a: solves.append(1) or solve(*a))
    for _ in range(5):
        st = coupled_step(st, inputs, sg, ag)
        assert not isinstance(st.ring, BirthRing)
        calms.append(st.calm)
    assert calms == calm and len(solves) == 5 + velocity_solves
    for _ in range(5):
        full = full_step(full, inputs, sg, ag)
    for f in ("rho_ring", "u_ring", "zeta", "mu0", "g", "z"):
        assert np.array_equal(bits(getattr(st, f)), bits(getattr(full, f))), f
    assert np.array_equal(bits(st.hist.buf), bits(full.hist.buf))
    assert st.t == full.t and st.hist.head == full.hist.head


def torn_off(nx=24, a_max=0.5):
    """The state right after the tear-off step, by default on a short age grid (na = 50), with its run's data."""
    vcfg = validate_quiet(detachment_config(nx=nx, a_max=a_max, final_time=1e-5))
    sg, ag, ts = build_grids(vcfg)
    assert ts.n_steps == 1
    st = run_coupled(vcfg, diag_stride=0).final
    assert st.quiet and not np.any(st.g) and not isinstance(st.ring, BirthRing)
    return st, vcfg.rate_model, vcfg.epsilon, sg, ag


def assert_states_close(got, want):
    # the running-sum bound of the weak ring tests, relative to each value
    # and, where a lane's population dies out (beta = 0 on the Dirichlet rows
    # and in the detached middle), to the field's largest value: a running
    # sum that falls to 0 keeps a residue of its earlier rounding
    for f in ("rho", "mu0", "z", "g", "u_ring", "zeta"):
        want_f = getattr(want, f)
        np.testing.assert_allclose(getattr(got, f), want_f, rtol=1e-13, atol=1e-13 * np.max(np.abs(want_f)), err_msg=f)
    assert got.t == want.t and got.hist.head == want.hist.head


def test_still_tear_off_state_steps_on_the_birth_ring():
    # from the first calm step on, the run is on the birth ring; over more
    # than a ring period, across the re-read at head 0, it matches full
    # cohort steps to the running sums' bound
    st, rate, eps, sg, ag = torn_off()
    inputs = Inputs(rate, SourceModel(*presets.source_fns("constant(10000.0)")), eps, sg, ag)
    full = copy.deepcopy(st)
    heads = []
    for _ in range(ag.na + 5):
        st = coupled_step(st, inputs, sg, ag)
        full = full_step(full, inputs, sg, ag)
        assert isinstance(st.ring, BirthRing) and not isinstance(full.ring, BirthRing)
        assert_states_close(st, full)
        for f in ("u_ring", "zeta", "g"):  # the ring step writes what the cohort step writes
            assert np.array_equal(bits(getattr(st, f)), bits(getattr(full, f))), f
        heads.append(st.hist.head)
    assert 0 in heads[:-1]


def test_birth_ring_returns_to_the_cohort_ring_under_a_growing_load():
    # a load that starts to grow makes the next step not calm: the density
    # is rebuilt in rho_ring and the step forms the load and solves
    st, rate, eps, sg, ag = torn_off()
    src = Inputs(rate, SourceModel(*presets.source_fns("constant(10000.0)")), eps, sg, ag)
    grow = Inputs(rate, SourceModel(*presets.source_fns("linear_in_t(10000.0, 1000000.0)")), eps, sg, ag)
    full = copy.deepcopy(st)
    for _ in range(10):
        st = coupled_step(st, src, sg, ag)
        full = full_step(full, src, sg, ag)
    assert isinstance(st.ring, BirthRing)
    for _ in range(5):
        st = coupled_step(st, grow, sg, ag)
        full = full_step(full, grow, sg, ag)
        assert not isinstance(st.ring, BirthRing) and np.all(st.g[1:-1] != 0.0)
        assert_states_close(st, full)
    np.testing.assert_allclose(st.rho_ring, full.rho_ring, rtol=1e-13, atol=0.0)


def test_live_cohort_with_a_frozen_stretch_keeps_the_cohort_path():
    # the first calm step refuses the birth ring, and every step is bit for
    # bit a full cohort step; the planted cohort of age 10 ages out 10
    # steps before the ring period ends, and the test, repeated once per
    # ring period, takes the ring at the step after
    st, rate, eps, sg, ag = torn_off()
    inputs = Inputs(rate, SourceModel(*presets.source_fns("constant(10000.0)")), eps, sg, ag)
    plant_frozen_stretch(st, rate, ag, (st.hist.head + 10) % st.hist.depth)
    full = copy.deepcopy(st)
    for _ in range(st.hist.depth):
        st = coupled_step(st, inputs, sg, ag)
        full = full_step(full, inputs, sg, ag)
        assert not isinstance(st.ring, BirthRing)
        for f in ("rho_ring", "u_ring", "zeta", "mu0", "g", "z"):
            assert np.array_equal(bits(getattr(st, f)), bits(getattr(full, f))), f
    st = coupled_step(st, inputs, sg, ag)
    assert isinstance(st.ring, BirthRing)


@pytest.mark.parametrize("planted", [False, True], ids=["birth-ring", "cohort-ring"])
def test_a_calm_step_copies_zeta_0_onto_its_newborns(planted):
    # a calm step takes its newborns' zeta from the age-one column, the
    # last newborns', whose u = 0 no calm step moves: bit for bit the
    # off-rate at u = 0, over a ring period and across the re-read at head
    # 0, on the birth ring and, with a live cohort off its factor planted,
    # on the cohort ring
    st, rate, eps, sg, ag = torn_off()
    inputs = Inputs(rate, SourceModel(*presets.source_fns("constant(10000.0)")), eps, sg, ag)
    if planted:
        plant_frozen_stretch(st, rate, ag, (st.hist.head + 10) % st.hist.depth)
    zeta0 = bits(rate.zeta_of_u(np.zeros(sg.n_nodes)))
    heads = []
    for _ in range(st.hist.depth):
        st = coupled_step(st, inputs, sg, ag)
        assert st.calm and isinstance(st.ring, BirthRing) != planted
        assert np.array_equal(bits(st.zeta[:, st.hist.head]), zeta0)
        heads.append(st.hist.head)
    assert 0 in heads


def test_birth_ring_step_allocates_no_field():
    # taking the ring, the steps on it and its re-read at head 0 each
    # allocate less than one age field (see test_kinetics); the field is
    # 0.5 MB here, above numpy's iterator buffers (64 kB an operand), and
    # only the steps around those events are traced
    st, rate, eps, sg, ag = torn_off(nx=62, a_max=10.0)
    inputs = Inputs(rate, SourceModel(*presets.source_fns("constant(10000.0)")), eps, sg, ag)
    peaks = []
    for n in range(ag.na + 5):
        if n > 3 and st.hist.head > 2:
            st = coupled_step(st, inputs, sg, ag)
            continue
        tracemalloc.start()
        try:
            st = coupled_step(st, inputs, sg, ag)
            peaks.append((st.hist.head, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        assert isinstance(st.ring, BirthRing)
    assert 0 in [head for head, _ in peaks]
    assert max(peak for _, peak in peaks) < sg.n_nodes * ag.n_nodes * 8


@pytest.mark.parametrize("cfg, calm_steps", [
    (lambda: detachment_config(nx=24, final_time=3e-4), True),
    (lambda: coupled_config(nx=16, final_time=0.1), False),
], ids=["tear-off", "coupled-default"])
def test_u_min_is_the_running_minimum_of_the_full_ring(cfg, calm_steps):
    # track skips the ring's minimum on calm steps; an observer that takes
    # it at every level finds the same running minimum
    seen, calm = [], []

    def observe(n, st):
        seen.append(float(st.u_ring.min()))
        calm.append(st.calm > 0)

    res = run_coupled(validate_quiet(cfg()), diag_stride=0, observers=[observe])
    assert any(calm) == calm_steps
    assert res.u_min == min(seen)


@pytest.mark.parametrize("load", [
    SourceModel(*presets.source_fns("constant(10000.0)")), GROWING_LATE,
], ids=["constant(10000.0)", "growing_from_3.25e-4"])
def test_a_calm_step_keeps_g_the_same_object_with_the_same_bits(load):
    # the guard checks that g is finite only at the levels where a step
    # can write it: a calm step keeps the velocity array of the level
    # before, the same object with the same bits; under the growing load
    # the steps after the calm stretch solve for a new g
    kept = []
    vcfg = validate_quiet(detachment_config(nx=24, final_time=4e-4, source=load))
    run_coupled(vcfg, diag_stride=0, observers=[lambda n, st: kept.append((st.g, bits(st.g).copy(), st.calm))])
    calm = [n for n, (_, _, c) in enumerate(kept) if c]
    assert len(calm) > 10 and (len(calm) == len(kept) - 2) == (load is not GROWING_LATE)
    for n in calm:
        (g, g_bits, _), (before, before_bits, _) = kept[n], kept[n - 1]
        assert g is before and np.array_equal(g_bits, before_bits)
    assert all(kept[n][0] is not kept[n - 1][0] for n in range(1, len(kept)) if n not in calm)


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
    hist = PositionHistory(np.zeros(SG.n_nodes), np.zeros((SG.n_nodes, ag.n_nodes)))
    st = CoupledState(rho=rho, u=u, z=np.zeros(SG.n_nodes), g=np.zeros(SG.n_nodes), hist=hist, t=0.0, truncation_k=np.inf, agrid=ag)
    r = mu_ode_residual(st, st, None, np.zeros(SG.n_nodes), EPS, SG, ag)
    np.testing.assert_allclose(r, 0.0, atol=1e-14)


def test_mu_ode_residual_steady_profile():
    # mu = beta/(beta+1) and -Lap z = S make the balance vanish identically
    from linkages.elliptic import solve

    ag = AgeGrid(da=0.02, a_max=10.0)
    beta = 1.0
    # exponential age profile scaled to mass exactly beta/(beta+1)
    shape = np.exp(-ag.a)
    scale = (beta / (beta + 1.0)) / float(shape @ ag.w)
    rho = np.tile(scale * shape, (SG.n_nodes, 1))
    S = np.full(SG.n_nodes, 2.0)
    z = solve(0.0, 1.0, S[1:-1], SG)
    u = np.zeros((SG.n_nodes, ag.n_nodes))
    hist = PositionHistory(z, np.zeros((SG.n_nodes, ag.n_nodes)))
    st = CoupledState(rho=rho, u=u, z=z, g=np.zeros(SG.n_nodes), hist=hist, t=0.0, truncation_k=np.inf, agrid=ag)
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
        pair = {}  # the step updates the state in place, so keep copies

        def keep(n, st):
            if n in (n_pair - 1, n_pair):
                pair[n] = copy.deepcopy(st)

        run_coupled(vcfg, diag_stride=0, observers=[keep])
        prev, nxt = pair[n_pair - 1], pair[n_pair]
        beta = vcfg.rate_model.beta_values(sg.x, nxt.t)
        r = mu_ode_residual(prev, nxt, vcfg.source, beta, vcfg.epsilon, sg, ag)
        norms.append(np.max(np.abs(r)))
    assert norms[1] < 0.7 * norms[0]


def test_riccati_gamma2_values():
    assert riccati_gamma2(0.0, 1.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert riccati_gamma2(10.0, 1.0, 0.0, 1.0) == pytest.approx(10.0, abs=1e-15)
    expected = (0.5 + np.sqrt(0.25 + 4.0)) / 2.0
    assert riccati_gamma2(0.0, 1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.2808, abs=1e-4)
    with pytest.raises(NonpositiveGamma1):
        riccati_gamma2(0.0, 0.0, 1.0, 1.0)


def test_riccati_bound_reads_zeta_at_zero_off_the_rate():
    # zeta(u) = 2 + 3|u|: validates with zeta_lip = 3, and h uses zeta(0) = 2
    rate = RateModel(zeta_kind="lipschitz", zeta=presets.lipschitz_zeta_fn("affine_abs(2, 3)"),
                     zeta_m=2.0, zeta_lip=3.0, zeta_M=np.inf)
    vcfg = validate_quiet(coupled_cfg(final_time=0.02, rate_model=rate, source=SourceModel(*presets.source_fns("linear_in_t(1.0, 5.0)"))))
    sg, ag, _ = build_grids(vcfg)
    first = []
    res = run_coupled(vcfg, diag_stride=0, observers=[lambda n, st: first.append((st.rho, st.u)) if n == 0 else None])
    rho, u = first[0]
    q0, p0 = stretch_integrals(rho, u, rate.zeta_of_u(u), sg, ag.w, (np.empty_like(rho), np.empty_like(rho)))[:2]

    def gamma2(zeta_at_zero):  # ||dS/dt|| = 5
        return riccati_gamma2(p0, 1.0 / q0, OMEGA * 5.0 * (2.0 * 3.0 * q0 + zeta_at_zero), vcfg.epsilon)

    assert res.gamma2 == pytest.approx(gamma2(2.0), rel=1e-14)
    assert res.gamma2 > gamma2(1.0) * (1.0 + 1e-3)


@pytest.mark.parametrize("diag_stride", [0, 5])
def test_zeta_of_u_once_per_step(monkeypatch, diag_stride):
    # one call at start-up, shared by the velocity and the Riccati bound, and
    # one per step; records read zeta off the state
    vcfg = validate_quiet(coupled_cfg(final_time=0.02))
    n_steps = build_grids(vcfg)[2].n_steps
    zeta, calls = vcfg.rate_model.zeta, []
    monkeypatch.setattr(vcfg.rate_model, "zeta", lambda u: calls.append(1) or zeta(u))
    run_coupled(vcfg, diag_stride=diag_stride)
    assert len(calls) == n_steps + 1


def test_riccati_monitor_stays_below_bound():
    vcfg = validate_quiet(coupled_cfg(final_time=0.2))
    res = run_coupled(vcfg, diag_stride=10)
    assert not res.soft_flags, res.soft_flags
    assert all(rec.p <= res.gamma2 * (1 + 1e-9) for rec in res.records)
    assert not res.ever_truncated


def test_detachment_bound_is_the_level_zero_p(monkeypatch):
    # gamma2 = max(p0, root) is p0 here and the tear-off only lowers p: the
    # level-0 p, formed by the same lanes and sums as p0, is the bound itself
    p, riccati_p = [], coupled.riccati_p
    monkeypatch.setattr(coupled, "riccati_p", lambda *args: p.append(riccati_p(*args)) or p[-1])
    res = run_detachment(validate_quiet(detachment_config(nx=24, final_time=6e-4)))
    assert len(p) == 7  # levels 0, 10, ..., 60
    assert res.gamma2 == p[0] == max(p)
    assert not res.soft_flags


@pytest.mark.parametrize("load, gamma2", [("constant(10000.0)", 1e6), ("constant(10.0)", 30.0)], ids=["tear_off", "steady"])
def test_detachment_riccati_flags_are_those_of_the_records(monkeypatch, load, gamma2):
    # gamma2 below some monitored p: run_detachment's monitor flags the same
    # levels, with the same text and in the same order, as run_coupled's
    # records every 10 levels.  The tear-off is on the birth ring from its
    # first calm step, the steady run on the cohort ring throughout
    bound = coupled.riccati_bound
    monkeypatch.setattr(coupled, "riccati_bound", lambda *args: (gamma2, bound(*args)[1]))
    vcfg = validate_quiet(detachment_config(nx=8, final_time=3e-4, source=SourceModel(*presets.source_fns(load))))
    got = run_detachment(vcfg)
    want = run_coupled(vcfg, diag_stride=10, snapshot_times=DETACHMENT_TIMES + (vcfg.final_time,))
    assert got.soft_flags and got.soft_flags == want.soft_flags
    assert isinstance(got.final.ring, BirthRing) == (load == "constant(10000.0)")


def test_riccati_p_of_a_quiet_state_is_zero_without_a_pass():
    # right after the tear-off (a cohort ring) and on the birth ring of the
    # first calm step the state is quiet: p is 0.0 and the load buffer,
    # sentinel-filled, is not written.  The cancelling lanes have g = 0 but
    # a state that is not quiet, and p is formed there
    st, rate, eps, sg, ag = torn_off()
    inputs = Inputs(rate, SourceModel(*presets.source_fns("constant(10000.0)")), eps, sg, ag)
    for ring in (CohortRing, BirthRing):
        assert st.quiet and type(st.ring) is ring
        st.load[...] = 7.0
        assert coupled.riccati_p(st, sg, ag) == 0.0 and np.all(st.load == 7.0)
        st = coupled_step(st, inputs, sg, ag)
    st = cancelling_lanes()[0]
    assert np.all(st.g == 0.0) and not st.quiet
    assert coupled.riccati_p(st, SG, AG) > 0.0


def test_detachment_forms_no_record(monkeypatch):
    # the Riccati monitor is the only thing detachment reads of a level: no
    # record, and one stretch pass, riccati_bound's at level 0
    records, passes = [], []
    record, stretch = diagnostics.record, diagnostics.stretch_integrals

    def counted_stretch(*args):
        passes.append(1)
        return stretch(*args)

    monkeypatch.setattr(diagnostics, "record", lambda *args, **kw: records.append(1) or record(*args, **kw))
    monkeypatch.setattr(diagnostics, "stretch_integrals", counted_stretch)
    monkeypatch.setattr(coupled, "stretch_integrals", counted_stretch)
    res = run_detachment(validate_quiet(detachment_config(nx=24, final_time=6e-4)))
    assert records == [] and len(passes) == 1 and res.records == []


def test_stability_functional_decays_with_constant_source():
    # dS/dt = 0: int int rho |u| is nonincreasing along the coupled flow
    vcfg = validate_quiet(coupled_cfg(final_time=0.2))
    res = run_coupled(vcfg, diag_stride=1)
    Q = [rec.stability for rec in res.records]
    assert all(b <= a * (1 + 1e-6) + 1e-15 for a, b in zip(Q[:-1], Q[1:]))


def test_mu0_stays_nonnegative_where_a_lane_dies_out_on_the_birth_ring():
    # beta = 0 on the Dirichlet rows: the births' running sum of such a lane
    # falls to 0 and must not keep a residue below it (mu0 = -3.7e-19 at
    # level 1001 without the clamp in kinetics.BirthRing._lead)
    lows = []
    run_coupled(validate_quiet(detachment_config(nx=24, final_time=0.0125)), diag_stride=0,
                observers=[lambda n, st: lows.append(float(st.mu0.min()))])
    assert len(lows) == 1251 and min(lows) >= 0.0


def counted_on_rate(spec, plain):
    """The given on-rate of spec with its calls counted: (a Preset, or a plain callable, which counts as depending on t; the t of each call)."""
    fn, calls = presets.given_beta_fn(spec), []

    def count(x, t):
        calls.append(t)
        return fn(x, t)

    return (count if plain else presets.Preset(spec, count, fn.time_invariant)), calls


def test_an_on_rate_that_ignores_t_is_sampled_once_per_run():
    runs = {}
    for plain in (False, True):
        beta, calls = counted_on_rate("constant(0.8)", plain)
        rate = RateModel(zeta_kind="lipschitz", zeta_M=np.inf, beta=beta, beta_m=0.8)
        vcfg = validate_quiet(coupled_cfg(final_time=0.1, rate_model=rate))
        calls.clear()
        levels = []
        res = run_coupled(vcfg, diag_stride=0, observers=[lambda n, st: levels.append(st.t) if n else None])
        runs[plain] = calls, levels, res.final
    (once, levels, got), (each, _, want) = runs[False], runs[True]
    assert once == [0.0] and len(levels) == 250 and each == levels
    for name in ("z", "mu0", "g", "u", "rho"):
        assert np.array_equal(bits(getattr(got, name)), bits(getattr(want, name))), name


# S = 1e4 + 1e6 max(t - 1.2e-3, 0), a plain callable: dS/dt = 0 until 1.2e-3
SWITCH_ON = SourceModel(
    fn=lambda x, t: np.full_like(x, 1e4 + 1e6 * max(t - 1.2e-3, 0.0)),
    dfn=lambda x, t: np.full_like(x, 1e6 if t >= 1.2e-3 else 0.0),
)


def test_a_calm_stretch_settles_the_columns_it_owes_bit_for_bit():
    # on a ring period of 51 levels the tear-off is calm on the birth ring
    # for more than two periods, then the load switches on.  Calm steps on
    # the ring write no age field but owe the newborn columns; an observer
    # that reads u and zeta at every level settles them a column at a time,
    # a run that never reads them settles all at once at the first step
    # that is not calm, and a run that ends in the stretch settles them when
    # its final state is read.  Every output agrees bit for bit
    vcfg = validate_quiet(detachment_config(nx=24, a_max=0.5, final_time=1.5e-3, source=SWITCH_ON))
    times = (1e-4, 6e-4, 1.3e-3)
    seen, owed = [], []

    def read(n, st):
        seen.append((bits(st.u_ring).copy(), bits(st.zeta).copy()))

    def watch(n, st):  # reads neither field
        owed.append((st.owed, isinstance(st.ring, BirthRing), st.calm))

    runs = [
        run_coupled(vcfg, diag_stride=stride, snapshot_times=times, observers=obs)
        for stride, obs in ((0, [watch]), (0, [read]), (1, []), (1, [read]))
    ]
    depth = 51
    assert max(o for o, _, _ in owed) == depth and owed[-1] == (0, False, 0)
    assert sum(ring for _, ring, _ in owed) > 2 * depth
    assert len(seen) == 2 * 151 and runs[0].records == [] and len(runs[2].records) == 151
    for res in runs[1:]:
        for name in ("mu0_min", "mu0_max", "u_min", "gamma2", "ever_truncated", "violations", "soft_flags"):
            assert getattr(res, name) == getattr(runs[0], name), name
        assert res.snapshots.keys() == runs[0].snapshots.keys()
        for t, (z, mu0) in res.snapshots.items():
            assert np.array_equal(bits(z), bits(runs[0].snapshots[t][0]))
            assert np.array_equal(bits(mu0), bits(runs[0].snapshots[t][1]))
        for name in ("z", "mu0", "g", "u", "zeta", "rho"):
            assert np.array_equal(bits(getattr(res.final, name)), bits(getattr(runs[0].final, name))), name
    assert runs[3].records == runs[2].records
    for (u_b, zeta_b), (u_d, zeta_d) in zip(seen[:151], seen[151:]):
        assert np.array_equal(u_b, u_d) and np.array_equal(zeta_b, zeta_d)
    # a run that ends 100 levels in owes every column; reading its final state settles them
    short = run_coupled(validate_quiet(detachment_config(nx=24, a_max=0.5, final_time=1e-3, source=SWITCH_ON)),
                        diag_stride=0).final
    assert short.owed == depth
    u, zeta = bits(short.u_ring), bits(short.zeta)
    assert short.owed == 0
    assert np.array_equal(u, seen[100][0]) and np.array_equal(zeta, seen[100][1])


def traced_peak(fn, *args, **kw):
    tracemalloc.start()
    try:
        fn(*args, **kw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_detachment_holds_at_most_seven_and_a_half_fields():
    # the state's six fields (history, density, u, zeta, surv, load) and the
    # first step's zeta(u) with its temporaries; the level-0 velocity and
    # Riccati pass borrow load and surv, and no record buffer is made
    vcfg = validate_quiet(detachment_config(final_time=3e-4))
    sg, ag, _ = build_grids(vcfg)
    assert traced_peak(run_detachment, vcfg) <= 7.5 * 8 * sg.n_nodes * ag.n_nodes


def test_the_run_constant_load_follows_the_load_a_step_is_given():
    # eps*S of a load that ignores t is formed once per Inputs: a step given
    # the Inputs of another load reads that load's one read-only term, bit
    # for bit the step of the same load formed afresh at each level
    st, rate, eps, sg, ag = torn_off()
    load = SourceModel(*presets.source_fns("constant(5000.0)"))
    fixed, fresh = Inputs(rate, load, eps, sg, ag), Inputs(rate, SourceModel(fn=lambda x, t: load.fn(x, t), dfn=load.dfn), eps, sg, ag)
    assert fixed.steady and not fresh.steady
    term = fixed.at(0.0)[2]
    assert fixed.at(st.t + eps * ag.da)[2] is term and not term.flags.writeable
    assert np.array_equal(bits(term), bits(eps * load(sg.x, 0.0)[1:-1]))
    other = copy.deepcopy(st)
    st, other = coupled_step(st, fixed, sg, ag), coupled_step(other, fresh, sg, ag)
    for name in ("z", "mu0", "g"):
        assert np.array_equal(bits(getattr(st, name)), bits(getattr(other, name))), name


def test_a_coupled_run_without_records_makes_no_record_buffers():
    # the records' two work buffers exist only where records are formed
    vcfg = validate_quiet(coupled_config(final_time=0.02))
    sg, ag, _ = build_grids(vcfg)
    field = 8 * sg.n_nodes * ag.n_nodes
    peaks = {stride: traced_peak(run_coupled, vcfg, diag_stride=stride) for stride in (0, 5)}
    assert peaks[0] <= peaks[5] - 1.5 * field
