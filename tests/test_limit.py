"""Limit heat equation: separation-of-variables and steady-state oracles."""

import math
import threading

import numpy as np
import pytest

from conftest import make_config

from hypothesis import example, given, settings, strategies as st

from linkages import cli, presets, simulate
from linkages.config import RateModel, SourceModel, validate_config, with_overrides
from linkages.diagnostics import convergence_error
from linkages.elliptic import Operator
from linkages.errors import DegenerateFriction, NonfiniteValue
from linkages.grids import SpaceGrid, build_grids
from linkages.kinetics import limit_density
from linkages.limit import step_limit

SG = SpaceGrid(nx=31)
OP = Operator(1.0, SG)
LAM = (2.0 - 2.0 * np.cos(np.pi * SG.dx)) / SG.dx**2


def test_decay_matches_discrete_factor():
    dt = 1e-3
    mu10 = np.full(SG.n_nodes, 0.5)
    z = step_limit(np.sin(np.pi * SG.x) / np.pi, mu10, dt, OP)
    # one implicit Euler step divides the sine mode by 1 + 2 dt lam exactly
    expected = np.sin(np.pi * SG.x) / np.pi / (1.0 + 2.0 * dt * LAM)
    np.testing.assert_allclose(z, expected, atol=1e-13)


def test_decay_matches_separation_of_variables():
    dt, T = 1e-3, 0.05
    mu10 = np.full(SG.n_nodes, 0.5)
    z = np.sin(np.pi * SG.x) / np.pi
    for _ in range(int(T / dt)):
        z = step_limit(z, mu10, dt, OP)
    exact = np.exp(-2.0 * np.pi**2 * T) * np.sin(np.pi * SG.x) / np.pi
    np.testing.assert_allclose(z, exact, atol=3.0 * (dt + SG.dx**2))


def test_zero_state_stays_zero():
    z = step_limit(np.zeros(SG.n_nodes), np.full(SG.n_nodes, 0.5), 1e-2, OP)
    assert np.all(z == 0.0)


def test_steady_state_with_source():
    dt = 1e-2
    S = np.pi**2 * np.sin(np.pi * SG.x)
    z = np.zeros(SG.n_nodes)
    for _ in range(2000):
        z = step_limit(z, np.full(SG.n_nodes, 0.5), dt, OP, source=S)
    np.testing.assert_allclose(z, np.sin(np.pi * SG.x), atol=1.0 * SG.dx**2)


def test_maximum_principle_and_l2_contraction():
    rng = np.random.default_rng(23)
    z = np.zeros(SG.n_nodes)
    z[1:-1] = rng.normal(size=SG.nx)
    for _ in range(20):
        prev = z.copy()
        z = step_limit(z, np.full(SG.n_nodes, 0.5), 5e-3, OP)
        assert np.max(np.abs(z)) <= np.max(np.abs(prev)) + 1e-14
        assert np.linalg.norm(z) <= np.linalg.norm(prev) + 1e-14


def test_fully_degenerate_falls_back_to_steady():
    S = np.pi**2 * np.sin(np.pi * SG.x)
    z = step_limit(np.zeros(SG.n_nodes), np.zeros(SG.n_nodes), 1e-2, OP, source=S)
    np.testing.assert_allclose(z, np.sin(np.pi * SG.x), atol=1.0 * SG.dx**2)


def test_partially_degenerate_raises():
    mu10 = np.full(SG.n_nodes, 0.5)
    mu10[5] = 0.0
    with pytest.raises(DegenerateFriction):
        step_limit(np.zeros(SG.n_nodes), mu10, 1e-2, OP, source=np.ones(SG.n_nodes))


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


def in_turn_rows(vcfg, epsilons, dt_out):
    """The sweep's rows built from separate run_weak calls, largest scale first."""
    sg, ag, _ = build_grids(vcfg)
    ref = simulate.run_limit(vcfg, dt_out, int(round(vcfg.final_time / dt_out))).trajectory
    rows = []
    for eps in sorted(epsilons, reverse=True):
        stride = int(round(dt_out / (eps * ag.da)))
        traj = simulate.run_weak(with_overrides(vcfg, epsilon=eps), output_stride=stride, diag_stride=0).trajectory
        err = convergence_error(traj, ref, dt_out, sg)
        order = None
        if rows and rows[-1].error > 0.0 and err > 0.0:
            order = math.log(rows[-1].error / err) / math.log(rows[-1].epsilon / eps)
        rows.append(simulate.SweepRow(epsilon=eps, error=err, order=order))
    return rows


def test_convergence_sweep_steps_its_scales_on_two_lanes_on_the_calling_thread(monkeypatch):
    vcfg = validate_config(make_config())
    dt_out = 0.01
    steps, weak_step = [], simulate._weak_step

    def recording(runs, rows, eps):
        steps.append((threading.get_ident(), tuple(r.eps for r in runs)))
        return weak_step(runs, rows, eps)

    monkeypatch.setattr(simulate, "_weak_step", recording)
    sweep = simulate.run_convergence_sweep(vcfg, [0.025, 0.1, 0.05], dt_out)
    # 400, 200 and 100 steps: the finest alone on lane 0, the others in turn
    # on lane 1, which takes each scale while it has fewer steps so far
    me = threading.get_ident()
    assert steps == [(me, (0.025, 0.05))] * 200 + [(me, (0.025, 0.1))] * 100 + [(me, (0.025,))] * 100

    # the rows are those of separate per-scale runs, bit for bit
    monkeypatch.undo()
    rows = in_turn_rows(vcfg, [0.025, 0.1, 0.05], dt_out)
    assert sweep.rows == rows
    assert sweep.monotone == (rows[0].error > rows[1].error > rows[2].error)


# scales eps = unit * k for k in a subset of SCALE_KS: every eps*da divides
# dt_out = unit * 48 * da, so the finest of 48 runs 48 * n_out steps
SCALE_KS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 48)


def off_rate(kind):
    """(zeta, zeta_m, zeta_M, a_max) of an off-rate with the ring the runs take.

    a_max = 0.3 (na = 6) brings each ring's head back to 0 every 7 steps,
    where the running sums are read afresh.
    """
    if kind == "constant":  # birth ring, running sums
        return presets.given_zeta_fn("constant(1.5)"), 1.5, 1.5, 0.3
    if kind == "ramp":  # birth ring, full reads
        return presets.given_zeta_fn("one_plus_age_ramp(0.5)"), 1.0, 1.5, 0.3
    if kind == "linear_in_t":  # cohort ring
        return (lambda x, a, t: np.full(np.broadcast(x, a).shape, 1.0 + t)), 1.0, 2.0, 0.3
    # constant(80): C_j underflows past a = 8.9, so birth_ring refuses the data: cohort ring
    return presets.given_zeta_fn("constant(80)"), 80.0, 80.0, 10.0


def sweep_config(kind, beta, load, nx, unit, n_out):
    zeta, zeta_m, zeta_M, a_max = off_rate(kind)
    rate = RateModel(zeta=zeta, zeta_m=zeta_m, zeta_M=zeta_M, beta=presets.given_beta_fn(beta), beta_M=2.0)
    source = SourceModel(*presets.source_fns(load)) if load else None
    dt_out = unit * 48 * 0.05
    cfg = make_config(epsilon=unit, final_time=n_out * dt_out, nx=nx, da=0.05, a_max=a_max, rate_model=rate,
                      initial_density=presets.initial_density_fn("exp_decay(0.5)"), source=source)
    return validate_config(cfg), dt_out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["constant", "ramp", "linear_in_t", "constant(80)"]),
    beta=st.sampled_from(["constant(1.0)", "linear_in_t(1.0, 1.0)"]),
    load=st.sampled_from([None, "sin_forcing", "sin_pi_growing(2.0)"]),
    nx=st.integers(1, 12),
    unit=st.sampled_from([0.002, 0.005]),
    n_out=st.integers(1, 2),
    ks=st.sets(st.sampled_from(SCALE_KS), min_size=1, max_size=6),
)
@example(kind="constant", beta="constant(1.0)", load=None, nx=6, unit=0.005, n_out=1, ks={48, 24, 12, 6, 3})  # halving
@example(kind="ramp", beta="constant(1.0)", load="sin_forcing", nx=5, unit=0.005, n_out=2, ks={8, 6, 4})  # lane 1 outlasts
@example(kind="linear_in_t", beta="linear_in_t(1.0, 1.0)", load="sin_pi_growing(2.0)", nx=4, unit=0.002, n_out=1,
         ks={6})  # one scale
@example(kind="constant(80)", beta="constant(1.0)", load=None, nx=3, unit=0.002, n_out=1, ks={48, 16, 8, 4, 2, 1})
def test_lanes_give_the_rows_of_separate_runs(kind, beta, load, nx, unit, n_out, ks):
    # the lanes' rows, errors and orders, equal bit for bit those built from
    # one run_weak call per scale, over the four rings, on-rates and loads
    # sampled at each scale's own t, and scale lists of any length
    vcfg, dt_out = sweep_config(kind, beta, load, nx, unit, n_out)
    epsilons = [unit * k for k in ks]
    sweep = simulate.run_convergence_sweep(vcfg, epsilons, dt_out)
    assert sweep.rows == in_turn_rows(vcfg, epsilons, dt_out)


def test_a_failing_scale_fails_the_sweep_as_in_turn(monkeypatch, capsys, tmp_path):
    # a load that turns NaN at t = 0.3 makes the first scale to reach that
    # time fail.  In turn that is the coarsest; on lanes eps = 0.05 reaches
    # it first, at step 600, and the NaN spreads through the stacked solve
    # to the finest, then at t = 0.15, so the message names both.  The CLI
    # ends with the same exception type and exit code either way.  The NaN
    # is armed by the march, after every validation has run: validation
    # samples the load at t = 0.3 and would refuse it
    fn, dfn = presets.source_fns("sin_forcing")
    armed = []
    nan_late = SourceModel(fn=lambda x, t: fn(x, t) * (np.nan if armed and t >= 0.3 else 1.0), dfn=dfn)
    monkeypatch.setattr(cli, "reference_config", lambda: make_config(final_time=0.4, source=nan_late))

    def arming(lane_march):
        def march(vcfgs, strides):
            armed.append(True)
            return lane_march(vcfgs, strides)
        return march

    argv = ["convergence-sweep", "--epsilons", "0.1,0.05,0.025", "--out", str(tmp_path)]
    monkeypatch.setattr(simulate, "_lane_march", arming(simulate._lane_march))
    lanes = "error: non-finite z at t=0.15 (eps=0.025), t=0.3 (eps=0.05)\n"
    assert (cli.main(argv), capsys.readouterr().err) == (2, lanes)

    def in_turn(vcfgs, strides):
        return [simulate.run_weak(v, output_stride=s, diag_stride=0).trajectory for v, s in zip(vcfgs, strides)]

    armed.clear()
    monkeypatch.setattr(simulate, "_lane_march", arming(in_turn))
    assert (cli.main(argv), capsys.readouterr().err) == (2, "error: non-finite z at t=0.3\n")
    armed.clear()
    with pytest.raises(NonfiniteValue):
        simulate.run_convergence_sweep(cli.reference_config(), [0.1, 0.05, 0.025], 0.001)
