"""Limit heat equation: separation-of-variables and steady-state oracles."""

import math
import threading

import numpy as np
import pytest

from conftest import make_config

from linkages import presets, simulate
from linkages.config import RateModel, validate_config, with_overrides
from linkages.diagnostics import convergence_error
from linkages.errors import DegenerateFriction
from linkages.grids import SpaceGrid, build_grids
from linkages.kinetics import limit_density
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


@pytest.mark.parametrize("beta, calls", [("constant(1.0)", 1), ("linear_in_t(1.0, 1.0)", 10)])
def test_run_limit_forms_the_limit_density_once_for_fixed_rates(monkeypatch, beta, calls):
    formed = []
    monkeypatch.setattr(simulate, "limit_density", lambda *a: formed.append(1) or limit_density(*a))
    rate = RateModel(zeta=presets.given_zeta_fn("one_plus_age_ramp(0.5)"), zeta_M=1.5,
                     beta=presets.given_beta_fn(beta), beta_M=1.1)
    fixed = simulate.run_limit(validate_config(make_config(rate_model=rate)), 0.01, 10)
    assert len(formed) == calls
    rate.beta = lambda x, t: presets.given_beta_fn(beta)(x, t)  # a plain callable: sampled every step
    plain = simulate.run_limit(validate_config(make_config(rate_model=rate)), 0.01, 10)
    assert len(formed) == calls + 10
    assert np.array_equal(fixed.trajectory, plain.trajectory)


def test_convergence_sweep_runs_its_scales_in_turn_on_the_calling_thread(monkeypatch):
    vcfg = validate_config(make_config())
    dt_out, n_out = 0.01, 10
    calls, run_weak = [], simulate.run_weak

    def recording(v, **kwargs):
        calls.append((threading.get_ident(), v.epsilon))
        return run_weak(v, **kwargs)

    monkeypatch.setattr(simulate, "run_weak", recording)
    sweep = simulate.run_convergence_sweep(vcfg, [0.025, 0.1, 0.05], dt_out)
    assert calls == [(threading.get_ident(), eps) for eps in (0.1, 0.05, 0.025)]

    # the rows are those of separate per-scale runs, bit for bit
    ref = simulate.run_limit(vcfg, dt_out, n_out).trajectory
    sg, ag, _ = build_grids(vcfg)
    rows = []
    for eps in (0.1, 0.05, 0.025):
        stride = int(round(dt_out / (eps * ag.da)))
        traj = run_weak(with_overrides(vcfg, epsilon=eps), output_stride=stride, diag_stride=0).trajectory
        err = convergence_error(traj, ref, dt_out, sg)
        order = math.log(rows[-1].error / err) / math.log(rows[-1].epsilon / eps) if rows else None
        rows.append(simulate.SweepRow(epsilon=eps, error=err, order=order))
    assert sweep.rows == rows
    assert sweep.monotone == (rows[0].error > rows[1].error > rows[2].error)
