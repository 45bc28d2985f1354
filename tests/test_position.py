"""Delay-position solver: oracles, equivalence, energy structure."""

import numpy as np
import pytest

from conftest import capture_at, dense_solve, make_config, position_step

from linkages import diagnostics as dg
from linkages.config import PastData, RateModel, SourceModel, validate_config
from linkages.elliptic import Operator
from linkages.errors import NonfiniteValue
from linkages.grids import AgeGrid, SpaceGrid, build_grids
from linkages.kinetics import BirthRing, CohortRing, init_density, limit_density, renew, survival
from linkages.position import (
    PositionHistory,
    initial_position,
    sample_past,
)
from linkages import presets, simulate
from linkages.cli import coupled_config
from linkages.simulate import run_coupled, run_weak
from oracles import age_order, energy, moment, volterra_residual

EPS = 0.05
SG = SpaceGrid(nx=31)
AG = AgeGrid(da=0.01, a_max=10.0)
SIN_PAST = PastData(fn=presets.past_data_fn("sin_pi"))
EXP_DECAY = lambda x, a: np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float))


def discrete_sin_eigenvalue(sgrid):
    return (2.0 - 2.0 * np.cos(np.pi * sgrid.dx)) / sgrid.dx**2


def test_initial_position_sine_eigenfunction():
    rho = init_density(EXP_DECAY, SG, AG)
    z = initial_position(rho, sample_past(SIN_PAST, EPS, SG, AG), Operator(EPS, SG), AG)
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
    z = initial_position(rho, sample_past(PastData(fn=presets.past_data_fn("zero")), EPS, SG, AG), Operator(EPS, SG), AG)
    np.testing.assert_allclose(z, 0.0, atol=1e-14)


def test_initial_position_small_scale_limit():
    rho = init_density(EXP_DECAY, SG, AG)
    zp0 = SIN_PAST(SG.x, 0.0)
    devs = []
    for eps in (1e-2, 1e-3, 1e-4):
        z = initial_position(rho, sample_past(SIN_PAST, eps, SG, AG), Operator(eps, SG), AG)
        devs.append(np.max(np.abs(z - zp0)))
    assert devs[0] > devs[1] > devs[2]
    # deviation shrinks proportionally to eps
    assert devs[2] / devs[0] == pytest.approx(1e-2, rel=0.1)


def per_snapshot(past):
    """past evaluated one snapshot z_p(., -eps*a_j) at a time, on the 1-D x grid."""

    def looped(x, t):
        x, t = np.broadcast_arrays(x, t)
        return np.stack([past(x[:, j], t[0, j]) for j in range(t.shape[1])], axis=1)

    return looped


@pytest.mark.parametrize("spec", ["zero", "constant(0.3)", "sin_pi", "sin_pi_growing(2)"])
def test_one_call_past_sampling_matches_the_snapshot_loop(spec):
    past = PastData(fn=presets.past_data_fn(spec))
    looped = PastData(fn=per_snapshot(past))
    rho = init_density(EXP_DECAY, SG, AG)
    bits = lambda a: np.ascontiguousarray(a).view(np.int64)
    zp, zp_looped = sample_past(past, EPS, SG, AG), sample_past(looped, EPS, SG, AG)
    z0 = initial_position(rho, zp, Operator(EPS, SG), AG)
    assert np.array_equal(bits(z0), bits(initial_position(rho, zp_looped, Operator(EPS, SG), AG)))
    hist, hist_looped = PositionHistory(z0, zp), PositionHistory(z0, zp_looped)
    assert np.array_equal(bits(hist.buf), bits(hist_looped.buf))
    assert np.array_equal(bits(hist.buf[:, 7]), bits(past(SG.x, -EPS * AG.a[7])))
    u = dg.elongation_from_history(z0, hist, EPS, np.empty_like(rho))
    assert np.array_equal(bits(u), bits(dg.elongation_from_history(z0, hist_looped, EPS, np.empty_like(rho))))


@pytest.mark.parametrize("run, config", [
    (run_weak, lambda: make_config(final_time=0.01)),
    (run_weak, lambda: make_config(final_time=0.01, rate_model=RateModel(zeta=ramp_in_time, zeta_M=2.0))),
    (run_coupled, lambda: coupled_config(nx=15, final_time=0.01)),
], ids=["weak-ring", "weak-shift", "coupled"])
def test_past_data_is_sampled_once_per_run(monkeypatch, run, config):
    # the t = 0 solve, the history and the initial stretch share one sample
    vcfg = validate_config(config())
    past, calls = vcfg.past_data.fn, []
    monkeypatch.setattr(vcfg.past_data, "fn", lambda x, t: calls.append(1) or past(x, t))
    run(vcfg, diag_stride=0)
    assert len(calls) == 1


def test_step_position_poisson_reduction():
    # with no bonds the delay operator vanishes: -Lap z = S
    rho = np.zeros((SG.n_nodes, AG.n_nodes))
    hist = PositionHistory(np.zeros(SG.n_nodes), np.zeros((SG.n_nodes, AG.n_nodes)))
    S = np.pi**2 * np.sin(np.pi * SG.x)
    z = position_step(rho, hist, EPS, SG, AG, source=S)
    lam = discrete_sin_eigenvalue(SG)
    np.testing.assert_allclose(z, np.pi**2 / lam * np.sin(np.pi * SG.x), atol=1e-11)
    np.testing.assert_allclose(z, np.sin(np.pi * SG.x), atol=1.0 * SG.dx**2)


def test_step_position_zero_history():
    rho = init_density(EXP_DECAY, SG, AG)
    hist = PositionHistory(np.zeros(SG.n_nodes), np.zeros((SG.n_nodes, AG.n_nodes)))
    z = position_step(rho, hist, EPS, SG, AG)
    np.testing.assert_allclose(z, 0.0, atol=1e-14)


def test_step_position_drifts_to_zero():
    # frozen nonharmonic history: the only steady state on (0,1) is 0
    rho = init_density(lambda x, a: 0.5 * EXP_DECAY(x, a), SG, AG)
    zstar = np.sin(np.pi * SG.x) * 0.3
    hist = PositionHistory(zstar, sample_past(PastData(fn=lambda x, t: 0.3 * np.sin(np.pi * np.asarray(x))), EPS, SG, AG))
    z = position_step(rho, hist, EPS, SG, AG)
    assert np.max(np.abs(z)) < np.max(np.abs(zstar))


def test_volterra_residual_of_step_output():
    vcfg = validate_config(make_config(nx=31, final_time=0.05))
    capture = capture_at({40})
    run_weak(vcfg, output_stride=1000, diag_stride=0, observers=[capture])
    cap, = capture.captures
    sg, ag, _ = build_grids(vcfg)
    r = volterra_residual(cap.delayed_z, cap.rho, cap.z, vcfg.epsilon, sg, ag)
    scale = max(np.max(np.abs(cap.z)) * 1.0 / vcfg.epsilon, 1.0)
    assert np.max(np.abs(r)) <= 1e-9 * scale


def test_volterra_residual_zero_field():
    rho = init_density(EXP_DECAY, SG, AG)
    z = np.zeros(SG.n_nodes)
    hist = PositionHistory(z, np.zeros((SG.n_nodes, AG.n_nodes)))
    r = volterra_residual(age_order(hist), rho, z, EPS, SG, AG)
    np.testing.assert_allclose(r, 0.0, atol=1e-14)


def test_volterra_residual_linearity_in_perturbation():
    rho = init_density(EXP_DECAY, SG, AG)
    z0 = np.zeros(SG.n_nodes)
    hist = PositionHistory(z0, np.zeros((SG.n_nodes, AG.n_nodes)))
    delta = 1e-3
    zp = delta * np.sin(np.pi * SG.x)
    r = volterra_residual(age_order(hist), rho, zp, EPS, SG, AG)
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
    hist = PositionHistory(z0, sample_past(past, EPS, sg, ag))
    Z = age_order(hist)
    z = position_step(rho, hist, EPS, sg, ag)
    mu0 = rho @ ag.w
    coeff = mu0 - ag.w[0] * rho[:, 0]
    rhs = np.einsum("j,xj,xj->x", ag.w[1:], rho[:, 1:], Z[:, :-1])[1:-1]
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
    e0 = energy(cap.z, cap.delayed_z, cap.rho, vcfg.epsilon, sg, ag)
    for _ in range(100):
        v = rng.uniform(-1.0, 1.0, sg.nx)
        v /= np.max(np.abs(v))
        zp = cap.z.copy()
        zp[1:-1] += 1e-3 * v
        assert energy(zp, cap.delayed_z, cap.rho, vcfg.epsilon, sg, ag) >= e0


def ramp_in_time(x, a, t):
    """Off-rate that changes at every step: 1 + a/(1+a)/2 + t."""
    return 1.0 + 0.5 * np.asarray(a, dtype=float) / (1.0 + a) + t + 0.0 * x


def counted_survival(monkeypatch):
    """Count the calls run_weak makes to kinetics.survival."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return survival(*args, **kwargs)

    monkeypatch.setattr(simulate, "survival", counted)
    return calls


def test_survival_computed_once_for_constant_rate(monkeypatch):
    calls = counted_survival(monkeypatch)
    vcfg = validate_config(make_config(final_time=0.01))
    seen = []
    run_weak(vcfg, diag_stride=0, observers=[lambda n, st: seen.append(st.zeta)])
    assert len(seen) == 21 and len(calls) == 1
    # an equal field keeps the first array, so one zeta stays alive per run
    assert all(zeta is seen[0] for zeta in seen)


def test_time_dependent_rate_matches_survival_every_step(monkeypatch):
    calls = counted_survival(monkeypatch)
    rate = RateModel(zeta=ramp_in_time, zeta_M=2.0)
    vcfg = validate_config(make_config(final_time=0.01, rate_model=rate))
    res = run_weak(vcfg, diag_stride=0)
    sg, ag, ts = build_grids(vcfg)
    assert len(calls) == ts.n_steps + 1

    # hand loop: a fresh survival factor at every step, read at the level
    # before; the density is a cohort ring in the history's frame, read
    # against its buffer in place
    rho = init_density(vcfg.initial_density, sg, ag)
    zp = sample_past(vcfg.past_data, vcfg.epsilon, sg, ag)
    z = initial_position(rho, zp, Operator(vcfg.epsilon, sg), ag)
    hist = PositionHistory(z, zp)
    traj, cohorts = [z], CohortRing(rho, None, hist, ag)
    for n in range(1, ts.n_steps + 1):
        cohorts.surv = survival(rate.zeta_field(sg.x, ag.a, (n - 1) * ts.dt), ag)
        m, integral = cohorts.sums()
        beta = rate.beta_values(sg.x, n * ts.dt)
        births, _ = renew(beta, 1.0 + beta * ag.w[0], m, ag.w[0])
        traj.append(Operator(vcfg.epsilon, sg).solve(m, integral, clamped=True))
        cohorts.push(births, traj[-1])
    assert np.array_equal(res.final_rho, cohorts.density())
    assert np.array_equal(res.trajectory, np.asarray(traj))


def test_rate_turning_nan_raises():
    t_bad = 0.005

    def zeta(x, a, t):
        return ramp_in_time(x, a, 0.0) * (np.nan if t >= t_bad else 1.0)

    vcfg = make_config(final_time=0.01, rate_model=RateModel(zeta=zeta, zeta_M=2.0))
    with pytest.raises(NonfiniteValue):
        run_weak(vcfg, diag_stride=0)


def plain(fn):
    """The same rate as a plain callable, which counts as time-varying."""
    return lambda *args: fn(*args)


def ramp_config(plain_rates=False, **overrides):
    """Age ramp off-rate, on-rate growing in t, sine load; presets or plain callables."""
    zeta, beta = presets.given_zeta_fn("one_plus_age_ramp(0.5)"), presets.given_beta_fn("linear_in_t(1.0, 1.0)")
    if plain_rates:
        zeta, beta = plain(zeta), plain(beta)
    base = dict(
        final_time=0.02, nx=12, a_max=2.0,
        rate_model=RateModel(zeta=zeta, zeta_M=1.5, beta=beta, beta_M=1.1),
        initial_density=presets.initial_density_fn("exp_decay(0.8)"),
        source=SourceModel(*presets.source_fns("sin_forcing")),
    )
    base.update(overrides)
    return validate_config(make_config(**base))


def run_watching(vcfg):
    """run_weak with output and diagnostics at every level, keeping rho and the path taken (the ring's type)."""
    seen = []
    res = run_weak(vcfg, output_stride=1, diag_stride=1,
                   observers=[lambda n, st: seen.append((st.rho.copy(), type(st.ring)))])
    return res, [rho for rho, _ in seen], {ring for _, ring in seen}


def assert_close(a, b, rtol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


def test_ring_and_shift_paths_agree():
    ring, ring_rhos, ring_path = run_watching(ramp_config())
    shift, shift_rhos, shift_path = run_watching(ramp_config(plain_rates=True))
    assert ring_path == {BirthRing} and shift_path == {CohortRing}
    assert_close(ring.trajectory, shift.trajectory, 1e-13)
    assert_close(ring.final_rho, shift.final_rho, 1e-13)
    assert len(ring_rhos) == len(shift_rhos) == 41
    # the density observers read at every level
    assert_close(ring_rhos, shift_rhos, 1e-13)
    rows = lambda res: np.array([[float(v) for v in vars(r).values()] for r in res.records])
    for col, (a, b) in enumerate(zip(rows(ring).T, rows(shift).T)):
        assert np.max(np.abs(a - b)) <= 1e-13 * max(np.max(np.abs(b)), 1e-300), col


@pytest.mark.parametrize("overrides", [
    # C_j = exp(-0.8 j) underflows to zero before a_max = 10
    dict(rate_model=RateModel(zeta=presets.given_zeta_fn("constant(80)"), zeta_m=80.0, zeta_M=80.0)),
    # C_10 = exp(-708) is normal but rho_I[:, 10] / C_10 overflows
    dict(a_max=0.1, initial_density=presets.initial_density_fn("exp_decay(9)"),
         rate_model=RateModel(zeta=presets.given_zeta_fn("constant(7080)"), zeta_m=7080.0, zeta_M=7080.0)),
], ids=["C-underflow", "birth-overflow"])
def test_ring_fallback_is_the_shift_path(overrides, monkeypatch):
    # the fallback keeps the off-rate's survival factor for the run; the
    # same rate as a plain callable is sampled at every step
    vcfg = validate_config(make_config(**overrides))
    zeta_calls = counted(monkeypatch, RateModel, "zeta_field")
    fixed, _, fixed_path = run_watching(vcfg)
    assert len(zeta_calls) == 1
    rate = overrides["rate_model"]
    overrides["rate_model"] = RateModel(zeta=plain(rate.zeta), zeta_m=rate.zeta_m, zeta_M=rate.zeta_M)
    vcfg = validate_config(make_config(**overrides))
    zeta_calls.clear()
    shift, _, _ = run_watching(vcfg)
    assert len(zeta_calls) == build_grids(vcfg)[2].n_steps + 1
    assert fixed_path == {CohortRing}
    assert np.array_equal(fixed.trajectory, shift.trajectory)
    assert np.array_equal(fixed.final_rho, shift.final_rho)
    assert fixed.records == shift.records


def counted(monkeypatch, owner, name):
    """Count the calls of owner.name from now on."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(1) or fn(*a, **kw))
    return calls


@pytest.mark.parametrize("zeta", [1.0, 80.0], ids=["ring", "shift"])
def test_time_invariant_on_rate_is_sampled_once(monkeypatch, zeta):
    # on both paths (C_j underflows at zeta = 80, so birth_ring refuses it)
    # a preset on-rate is sampled once, and steps the bits of the same rate
    # as a plain callable, which is sampled at every step
    beta = presets.given_beta_fn("constant(1.0)")
    calls, runs = counted(monkeypatch, RateModel, "beta_values"), []
    for on_rate in (beta, plain(beta)):
        rate = RateModel(zeta=presets.given_zeta_fn(f"constant({zeta:g})"), zeta_m=zeta, zeta_M=zeta, beta=on_rate)
        vcfg = validate_config(make_config(rate_model=rate))
        calls.clear()
        runs.append((run_watching(vcfg), len(calls), build_grids(vcfg)[2].n_steps))
    ((once, _, once_path), n_once, _), ((every, _, every_path), n_every, n_steps) = runs
    assert once_path == every_path == {BirthRing if zeta == 1.0 else CohortRing}
    assert n_once == 1 and n_every >= n_steps
    assert np.array_equal(once.trajectory, every.trajectory)
    assert np.array_equal(once.final_rho, every.final_rho)
    assert once.records == every.records


def test_ring_path_samples_the_rates_once(monkeypatch):
    vcfg = validate_config(make_config(final_time=0.01))
    survival_calls = counted_survival(monkeypatch)
    zeta_calls, limit_calls = [], []
    zeta_field = RateModel.zeta_field
    monkeypatch.setattr(RateModel, "zeta_field", lambda *a: zeta_calls.append(1) or zeta_field(*a))
    monkeypatch.setattr(simulate, "limit_density", lambda *a: limit_calls.append(1) or limit_density(*a))
    res = run_weak(vcfg, diag_stride=1)
    assert len(res.records) == 21
    assert len(zeta_calls) == len(survival_calls) == len(limit_calls) == 1
