"""Observables: energy, dissipation, population functionals, errors."""

import tracemalloc

import numpy as np
import pytest

from linkages.config import PastData, RateModel, SourceModel, validate_config
from linkages.kinetics import cohort_weights
from linkages.diagnostics import (
    DiagnosticsRecord,
    convergence_error,
    elongation_from_history,
    lyapunov_H,
    record,
    stretch_integrals,
)
from linkages.errors import GridMismatch
from linkages.grids import AgeGrid, SpaceGrid, build_grids
from linkages.kinetics import init_density, limit_density
from linkages import presets, simulate
from conftest import make_config
from linkages.simulate import run_coupled, run_weak
from oracles import age_order, energy

SG = SpaceGrid(nx=63)
AG = AgeGrid(da=0.01, a_max=10.0)
HALF_EXP = lambda x, a: 0.5 * np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float))


def zero_delayed():
    return np.zeros((SG.n_nodes, AG.n_nodes))


def integrals(rho, u, zeta_u=None):
    zeta_u = np.ones_like(rho) if zeta_u is None else zeta_u
    return stretch_integrals(rho, u, zeta_u, SG, AG.w, (np.empty_like(rho), np.empty_like(rho)))


def test_energy_zero_field():
    rho = init_density(HALF_EXP, SG, AG)
    assert energy(np.zeros(SG.n_nodes), zero_delayed(), rho, 0.05, SG, AG) == 0.0


def test_energy_gradient_term():
    # frozen z = sin(pi x)/pi: the delay entries vanish, leaving
    # (1/2) int cos^2(pi x) = 1/4 up to O(dx^2)
    rho = init_density(HALF_EXP, SG, AG)
    z = np.sin(np.pi * SG.x) / np.pi
    delayed = np.tile(z[:, None], (1, AG.n_nodes))
    e = energy(z, delayed, rho, 0.05, SG, AG)
    assert e == pytest.approx(0.25, abs=10 * SG.dx**2)


def test_energy_constant_history_drops_delay():
    rho = init_density(HALF_EXP, SG, AG)
    z = np.sin(np.pi * SG.x) / np.pi
    delayed = np.tile(z[:, None], (1, AG.n_nodes))
    e_with = energy(z, delayed, rho, 0.05, SG, AG)
    empty = np.zeros_like(rho)
    e_without = energy(z, delayed, empty, 0.05, SG, AG)
    assert e_with == pytest.approx(e_without, abs=1e-15)


def test_energy_source_term():
    rho = init_density(HALF_EXP, SG, AG)
    z = np.sin(np.pi * SG.x) / np.pi
    delayed = np.tile(z[:, None], (1, AG.n_nodes))
    S = np.pi**2 * np.sin(np.pi * SG.x)
    e = energy(z, delayed, rho, 0.05, SG, AG, source=S)
    # load term subtracts int S z = pi int sin^2 = pi/2
    assert e == pytest.approx(0.25 - np.pi / 2, abs=1e-3)


def test_energy_from_elongation_consistency():
    eps = 0.05
    rho = init_density(HALF_EXP, SG, AG)
    z = np.sin(np.pi * SG.x) / np.pi
    rng = np.random.default_rng(1)
    delayed = z[:, None] - eps * rng.uniform(0, 1, (AG.n_nodes, SG.n_nodes)).T
    delayed[0] = delayed[-1] = 0.0
    delayed[:, 0] = z
    u = (z[:, None] - delayed) / eps
    e1 = energy(z, delayed, rho, eps, SG, AG)
    work = (np.empty_like(rho), np.empty_like(rho))
    rec = record(0.0, z, rho, u, np.ones_like(rho), None, eps, SG, AG.w, work,
                 mu0_min=0.0, mu0_max=0.0, gamma2=0.0, truncated=False)
    assert e1 == pytest.approx(rec.energy, rel=1e-12)


def test_dissipation_cases():
    rho = init_density(HALF_EXP, SG, AG)
    zeta = np.ones((SG.n_nodes, AG.n_nodes))
    zero_u = np.zeros((SG.n_nodes, AG.n_nodes))
    assert integrals(rho, zero_u, zeta)[3] == 0.0
    # u = a: int 0.5 a^2 e^-a over the cut domain = 1 - 61 e^-10 per unit x
    u = np.tile(AG.a, (SG.n_nodes, 1))
    *_, elastic, val = integrals(rho, u, zeta)
    assert val == pytest.approx(1.0 - 61.0 * np.exp(-10.0), abs=5e-4)
    # quadratic homogeneity, and zeta = 1 leaves the energy's integral
    u2 = 2.0 * u
    assert integrals(rho, u2, zeta)[3] == pytest.approx(4.0 * val, rel=1e-13)
    assert elastic == val
    assert integrals(rho, u, 3.0 * zeta)[3] == pytest.approx(3.0 * val, rel=1e-13)


def test_lyapunov_cases():
    assert np.all(lyapunov_H(np.zeros((3, AG.n_nodes)), AG.w) == 0.0)
    f = np.exp(-AG.a)[None, :]
    np.testing.assert_allclose(lyapunov_H(f, AG.w), 2.0 * (1.0 - np.exp(-10.0)), atol=1e-4)
    # signed block profile: the signed integral cancels, the absolute one adds
    g = np.where(AG.a < 1.0, 1.0, np.where(AG.a < 2.0, -1.0, 0.0))[None, :]
    h = lyapunov_H(g, AG.w)
    assert h[0] == pytest.approx(2.0, abs=4 * AG.da)


def test_stability_functional_cases():
    rho = init_density(HALF_EXP, SG, AG)
    zero_u = np.zeros((SG.n_nodes, AG.n_nodes))
    assert integrals(rho, zero_u)[0] == 0.0
    u = np.tile(AG.a, (SG.n_nodes, 1))
    val, p, _, _ = integrals(rho, u)
    # int 0.5 a e^-a = (1 - 11 e^-10)/2 per unit x
    assert val == pytest.approx(0.5 * (1.0 - 11.0 * np.exp(-10.0)), abs=5e-4)
    rho2 = 2.0 * rho
    assert integrals(rho2, u)[0] == pytest.approx(2.0 * val, rel=1e-13)
    # the stretch enters through |u|; p is the same integral weighted by zeta
    assert integrals(rho, -u)[0] == val
    assert p == val
    assert integrals(rho, u, np.full_like(rho, 0.5))[1] == pytest.approx(0.5 * val, rel=1e-13)


def test_rho_convergence_H_identical():
    rho = init_density(HALF_EXP, SG, AG)
    assert np.all(lyapunov_H(rho - rho, AG.w) == 0.0)


def test_rho_convergence_H_initial_value():
    # beta = zeta = 1: rho0 = (1 - mu00) e^{-a} with mu00 = K/(1+K), K = int e^{-a},
    # so rho_I - rho0 = mu00 e^{-a} >= 0 and H = 2 mu00 K = 2 K^2/(1+K)
    rho = init_density(lambda x, a: np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float)), SG, AG)
    ld = limit_density(1.0, np.ones(AG.n_nodes), AG)
    K = np.exp(-AG.a) @ AG.w
    np.testing.assert_allclose(lyapunov_H(rho - ld.rho0[None, :], AG.w), 2.0 * K**2 / (1.0 + K), rtol=1e-12)


def test_rho_convergence_H_decays_at_kinetic_rate():
    # constant rates: residual terms vanish and H decays like e^{-t/eps}
    vcfg = validate_config(make_config(nx=7, final_time=0.25))
    sg, ag, ts = build_grids(vcfg)
    res = run_weak(vcfg, output_stride=100, diag_stride=100)
    rate = vcfg.rate_model
    ld = limit_density(rate.beta_values(sg.x, 0.0), rate.zeta_field(sg.x, ag.a, 0.0), ag)
    h_final = lyapunov_H(res.final_rho - ld.rho0, ag.w)
    rho_I = init_density(vcfg.initial_density, sg, ag)
    h0 = lyapunov_H(rho_I - ld.rho0, ag.w)
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


@pytest.mark.parametrize("source", [None, "sin_forcing"])
def test_weak_record_matches_the_history_formulas(source):
    # the record takes the energy from the stretch and p from the fused
    # pass; the history-form energy and the product zeta*rho*|u| agree up to
    # rounding, and the stretch read off the ring is the gathered one
    rate = RateModel(
        zeta=presets.given_zeta_fn("one_plus_age_ramp(0.5)"), zeta_M=1.5,
        beta=presets.given_beta_fn("linear_in_t(1.0, 1.0)"), beta_M=1.1,
    )
    src = SourceModel(*presets.source_fns(source)) if source else None
    vcfg = validate_config(make_config(nx=12, final_time=0.02, rate_model=rate, source=src))
    sg, ag, ts = build_grids(vcfg)
    expected, heads = [], set()

    def observe(n, st):
        delayed = age_order(st.hist)
        u = (st.z[:, None] - delayed) / vcfg.epsilon
        assert np.array_equal(elongation_from_history(st.z, st.hist, vcfg.epsilon, out=np.empty_like(st.rho)), u)
        heads.add(st.hist.head)
        S = src(sg.x, st.t) if src else None
        e = energy(st.z, delayed, st.rho, vcfg.epsilon, sg, ag, source=S)
        p = float(((st.zeta * st.rho * np.abs(u)) @ ag.w) @ sg.quad_weights())
        expected.append((e, p))

    res = run_weak(vcfg, observers=[observe])
    assert len(res.records) == len(expected) == ts.n_steps + 1
    assert len(heads) == ts.n_steps + 1
    for rec, (e, p) in zip(res.records, expected):
        assert rec.energy == pytest.approx(e, rel=1e-14)
        assert rec.p == pytest.approx(p, rel=1e-14)
        assert rec.p > 0.0


def test_coupled_record_is_its_functionals():
    # the last record of a coupled run, rebuilt from its final state (the
    # cohort rings and the age weights in their layout): bit for bit by the
    # fused products in the record's order, and within 1e-14 by the
    # functionals formed one by one
    vcfg = validate_config(make_config(
        epsilon=0.02, da=0.02, nx=12, final_time=0.02,
        rate_model=RateModel(zeta_kind="lipschitz", zeta_M=np.inf),
        past_data=PastData(fn=presets.past_data_fn("zero")),
        initial_density=presets.initial_density_fn("exp_decay(0.9)"),
        source=SourceModel(*presets.source_fns("linear_in_t(1.0, 5.0)")),
    ))
    sg, ag, _ = build_grids(vcfg)
    res = run_coupled(vcfg, diag_stride=1)
    st, eps = res.final, vcfg.epsilon
    rho, u, w = st.rho_ring, st.u_ring, cohort_weights(ag.w, st.hist.head)
    assert st.hist.head != 0
    zeta_u = vcfg.rate_model.zeta_of_u(u)
    assert np.array_equal(zeta_u, st.zeta)
    wx, S = sg.quad_weights(), vcfg.source(sg.x, st.t)
    grad = np.diff(st.z) / sg.dx

    def integral(f):
        return float((f @ w) @ wx)

    def row(energy, dissipation, stability, p):
        return DiagnosticsRecord(
            t=st.t, energy=energy, dissipation=dissipation,
            mu0_min=float(np.min(st.mu0[1:-1])), mu0_max=float(np.max(st.mu0)),
            stability=stability, lyapunov=float(lyapunov_H(rho, w) @ wx), p=p,
            gamma2=res.gamma2, truncated=st.truncated,
        )

    abs_u_rho, u2_rho = np.abs(u) * rho, u * u * rho
    e = 0.5 * sg.dx * float(grad @ grad)
    e += 0.5 * eps * integral(u2_rho)
    e -= float((S * st.z) @ wx)
    assert res.records[-1] == row(e, integral(u2_rho * zeta_u), integral(abs_u_rho), integral(abs_u_rho * zeta_u))

    separate = row(
        0.5 * sg.dx * float(grad @ grad) + 0.5 * eps * integral(rho * u**2) - float((S * st.z) @ wx),
        integral(zeta_u * rho * u**2),
        integral(rho * np.abs(u)),
        integral(zeta_u * np.abs(u) * rho),
    )
    for name in ("energy", "dissipation", "stability", "p"):
        assert getattr(res.records[-1], name) == pytest.approx(getattr(separate, name), rel=1e-14)
    assert float((np.abs(rho @ w) + np.abs(rho) @ w) @ wx) == separate.lyapunov


COUPLED_RATE = RateModel(zeta_kind="lipschitz", zeta_M=np.inf)


@pytest.mark.parametrize("driver, observer, cfg", [
    (run_weak, "diagnose", dict(nx=30, final_time=0.005)),
    (run_weak, "diagnose", dict(nx=30, final_time=0.005, rate_model=RateModel(
        beta=presets.given_beta_fn("linear_in_t(1.0, 1.0)"), beta_M=2.0))),
    (run_coupled, "record", dict(epsilon=0.02, da=0.02, nx=30, final_time=0.004, rate_model=COUPLED_RATE,
                                 past_data=PastData(fn=presets.past_data_fn("sin_pi")),
                                 source=SourceModel(*presets.source_fns("linear_in_t(1.0, 5.0)")))),
], ids=["weak", "weak_on_rate_of_t", "coupled"])
def test_record_allocates_no_field(monkeypatch, driver, observer, cfg):
    # each record works in buffers its run allocated once: the tracemalloc
    # peak of one record observer call stays below one age field
    vcfg = validate_config(make_config(**cfg))
    sg, ag, ts = build_grids(vcfg)
    peaks, march = [], simulate.march

    def measure(obs):
        def measured(n, st):
            st.rho  # built on read on the birth-ring path: the state's field, not the record's
            tracemalloc.start()
            try:
                obs(n, st)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return measured if getattr(obs, "__name__", None) == observer else obs

    monkeypatch.setattr(simulate, "march", lambda state, step, n_steps, observers: march(
        state, step, n_steps, [measure(obs) for obs in observers]))
    res = driver(vcfg, diag_stride=1)
    assert len(peaks) == len(res.records) == ts.n_steps + 1
    # the weak run's first record also forms the limit density, once per run;
    # with an on-rate of t the later records rescale it in a buffer
    assert max(peaks[1:]) < sg.n_nodes * ag.n_nodes * 8
