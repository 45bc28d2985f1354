"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Shared runs are module-scoped fixtures; every tolerance is pinned here.
Criterion 3's budget clause is asserted in its derivation-correct form
(energy identity dE/dt = -(1/2) int int zeta rho u^2, hence
(1/2) sum dt D <= 1.05 E0); criterion 5's halving is asserted as a floor
because with constant rates the scheme agrees with the characteristics
formula beyond first order (see tests below and the kinetics tests for the
two-sided band with age-varying rates).
"""

import time
import warnings

import numpy as np
import pytest

from conftest import capture_at

import linkages as lk
from linkages import presets
from linkages.cli import coupled_config, detachment_config, reference_config
from linkages.config import RateModel, SourceModel, validate_config
from linkages.elliptic import laplacian
from linkages.grids import build_grids
from linkages import diagnostics as dg

SEED = 20260808


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def detachment_run():
    cfg = detachment_config()  # S=1e4, z_p=sin_pi, rho_I=e^-a, zeta=1+|u|,
    # eps=1e-3, zbar=1000, a_max=10, nx=128, da=1e-2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vcfg = validate_config(cfg)
    t0 = time.time()
    res = lk.run_detachment(vcfg)
    res.elapsed = time.time() - t0
    return res


@pytest.fixture(scope="module")
def weak_reference_run():
    # criterion 2's configuration at eps = 0.05, per-step diagnostics,
    # with 10 seeded random capture steps for the minimization check
    vcfg = validate_config(reference_config(nx=64, da=0.01, epsilon=0.05, final_time=0.5))
    _, _, ts = build_grids(vcfg)
    rng = np.random.default_rng(SEED)
    capture = capture_at(set(rng.choice(np.arange(1, ts.n_steps + 1), size=10, replace=False).tolist()))
    res = lk.run_weak(vcfg, output_stride=100, diag_stride=1, observers=[capture])
    res.vcfg = vcfg
    res.captures = capture.captures
    return res


@pytest.fixture(scope="module")
def sweep_run():
    vcfg = validate_config(reference_config(nx=64, da=0.01, final_time=0.5))
    t0 = time.time()
    sweep = lk.run_convergence_sweep(vcfg, [0.2, 0.1, 0.05, 0.025], dt_out=1e-2)
    sweep.elapsed = time.time() - t0
    return sweep


def test_criterion_1_detachment(detachment_run):
    res = detachment_run
    z2, _ = res.snapshots[2e-4]
    z3, _ = res.snapshots[3e-4]
    gap = np.max(np.abs(z3 - z2)) / np.max(np.abs(z3))
    mu = res.mu0_final
    assert res.dead_mask.any() and res.flank_mask.any(), "two-regime structure missing"
    dead = mu[res.dead_mask]
    neglog = np.where(dead > 0.0, -np.log10(np.maximum(dead, 1e-300)), np.inf)
    flank_gap = np.max(np.abs(mu[res.flank_mask] - 0.5))
    ok = (
        gap < 1e-2
        and np.min(neglog) >= 4.0
        and flank_gap <= 1e-2
        and res.elapsed < 120.0
    )
    report(
        1,
        ok,
        f"curve gap {gap:.2e} (<1e-2), detached -log10(mu0) >= {np.min(neglog):.2f} (>=4), "
        f"flank |mu0-1/2| <= {flank_gap:.2e} (<=1e-2), {res.elapsed:.1f}s (<120s)",
    )
    assert ok
    assert not res.violations


def test_criterion_2_scale_convergence(sweep_run):
    errs = [row.error for row in sweep_run.rows]
    order = sweep_run.rows[-1].order
    ok = sweep_run.monotone and order >= 0.8 and sweep_run.elapsed < 60.0
    report(
        2,
        ok,
        f"errors {['%.5g' % e for e in errs]} strictly decreasing={sweep_run.monotone}, "
        f"last order {order:.3f} (>=0.8), {sweep_run.elapsed:.1f}s (<60s)",
    )
    assert ok


def test_criterion_3_energy_decay(weak_reference_run):
    res = weak_reference_run
    E = np.array([r.energy for r in res.records])
    D = np.array([r.dissipation for r in res.records])
    dt = res.vcfg.dt
    worst = np.max(np.diff(E))
    per_step_ok = worst <= 1e-6 * E[0]
    # energy identity dE/dt = -(1/2) int int zeta rho u^2: integrated budget
    budget = 0.5 * np.sum(D[1:]) * dt
    budget_ok = budget <= 1.05 * E[0]
    ok = per_step_ok and budget_ok
    report(
        3,
        ok,
        f"worst step dE = {worst:.2e} (<= {1e-6 * E[0]:.2e}), "
        f"(1/2) sum dt D = {budget:.4f} <= 1.05 E0 = {1.05 * E[0]:.4f}",
    )
    assert ok


def test_criterion_4_population_bounds():
    rate = RateModel(
        beta=lambda x, t: np.full_like(np.asarray(x, dtype=float), 0.5),
        beta_m=0.5,
        beta_M=0.5,
    )
    vcfg = validate_config(
        reference_config(nx=16, da=0.01, epsilon=0.05, final_time=1.0, rate_model=rate)
    )
    res = lk.run_weak(vcfg, output_stride=500, diag_stride=0)
    lower = res.mu0_lower_bound  # min(mu0(0), 1/3) - 10 da
    ok = res.mu0_min >= lower and res.mu0_max < 1.0 - 1e-12 and res.ok
    report(
        4,
        ok,
        f"mu0 in [{res.mu0_min:.6f}, {res.mu0_max:.12f}] within "
        f"[{lower:.6f}, 1-1e-12) at every step",
    )
    assert ok


def test_criterion_5_kinetics_oracle():
    # constant rates; independent mu0 history from the truncated-domain
    # population balance eps mu' = beta(1-mu) - zeta mu - c e^{-a_max},
    # exact for rho_I = c e^-a, zeta = 1 on t <= eps a_max
    c, eps = 0.9, 0.05
    zeta_fn = lambda x, a, t: np.ones(np.broadcast(x, a).shape)
    beta_fn = lambda x, t: np.ones_like(np.asarray(x, dtype=float))

    def l1_distance(da):
        cfg = reference_config(
            nx=8, da=da, epsilon=eps, final_time=10 * eps,
            initial_density=presets.initial_density_fn(f"exp_decay({c})"),
        )
        vcfg = validate_config(cfg)
        sg, ag, ts = build_grids(vcfg)
        res = lk.run_weak(vcfg, output_stride=ts.n_steps, diag_stride=0)
        outflow = c * np.exp(-vcfg.a_max)
        mu_bar = (1.0 - outflow) / 2.0
        mu_I = c * (1.0 - np.exp(-vcfg.a_max))
        times = np.arange(ts.n_steps + 1) * ts.dt
        mu_exact = mu_bar + (mu_I - mu_bar) * np.exp(-2.0 * times / eps)
        hist = [np.full(sg.n_nodes, m) for m in mu_exact]
        oracle = lk.oracle_density_field(
            ts.n_steps, zeta_fn, beta_fn, vcfg.initial_density, hist, eps, sg, ag
        )
        return float(sg.quad_weights() @ (np.abs(res.final_rho - oracle) @ ag.w))

    errs = [l1_distance(da) for da in (4e-2, 2e-2, 1e-2)]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    # halving asserted as a floor: with constant rates every first-order
    # term cancels identically and the distance contracts at ~2nd order
    ok = all(r >= 2.0 * 0.8 for r in ratios)
    report(
        5,
        ok,
        f"L1 distances {['%.3e' % e for e in errs]}, per-halving ratios "
        f"{['%.2f' % r for r in ratios]} (each >= 1.6)",
    )
    assert ok


def test_criterion_6_minimization(weak_reference_run):
    res = weak_reference_run
    vcfg = res.vcfg
    sg, ag, _ = build_grids(vcfg)
    rng = np.random.default_rng(SEED + 1)
    delta = 1e-3
    violations = 0
    for cap in res.captures:
        e0 = dg.energy(cap.z, cap.delayed_z, cap.rho, vcfg.epsilon, sg, ag)
        for _ in range(100):
            v = rng.uniform(-1.0, 1.0, sg.nx)
            v /= np.max(np.abs(v))
            zp = cap.z.copy()
            zp[1:-1] += delta * v
            if dg.energy(zp, cap.delayed_z, cap.rho, vcfg.epsilon, sg, ag) < e0:
                violations += 1
    ok = violations == 0 and len(res.captures) == 10
    report(6, ok, f"{len(res.captures)} steps x 100 perturbations, {violations} violations")
    assert ok


def test_criterion_7_positivity():
    fn, dfn = presets.source_fns("linear_in_t(1.0, 0.5)")  # S >= 0, dS/dt = 0.5
    cfg = coupled_config(
        epsilon=0.02, da=0.02, nx=32, final_time=0.4, source=SourceModel(fn=fn, dfn=dfn)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vcfg = validate_config(cfg)
    res = lk.run_coupled(vcfg, diag_stride=0)
    ok = res.u_min >= -1e-12
    report(7, ok, f"min u over trajectory = {res.u_min:.3e} (>= -1e-12)")
    assert ok
    assert res.ok


def test_criterion_8_asymptotic_profile():
    cfg = coupled_config()  # beta = 1, S = 1, eps = 0.02, T = 1.0 = 50 eps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vcfg = validate_config(cfg)
    res = lk.run_coupled(vcfg, diag_stride=0)
    sg, ag, _ = build_grids(vcfg)
    mu0 = lk.moment(res.final.rho, ag, 0)
    mu_gap = np.max(np.abs(mu0[1:-1] - 0.5))
    S = vcfg.source(sg.x, res.final.t)
    resid = np.max(np.abs(laplacian(res.final.z, sg.dx) + S[1:-1]))
    s_inf = np.max(np.abs(S))
    ok = mu_gap <= 1e-2 and resid <= 1e-2 * s_inf
    report(
        8,
        ok,
        f"max|mu0 - 1/2| = {mu_gap:.2e} (<=1e-2), max|Lap z + S| = {resid:.2e} "
        f"(<= {1e-2 * s_inf:.2e})",
    )
    assert ok


def test_criterion_9_stability_functional(weak_reference_run):
    res = weak_reference_run
    Q = np.array([r.stability for r in res.records])
    rel = np.diff(Q) / np.maximum(Q[:-1], 1e-300)
    worst = np.max(rel)
    ok = worst <= 1e-6
    report(9, ok, f"worst per-step relative change {worst:.2e} (<= 1e-6)")
    assert ok
    assert res.ok, res.violations
