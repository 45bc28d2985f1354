"""Experiment drivers: weak runs, the limit solver, the coupled system,
the scale-convergence sweep and the detachment experiment, plus columnar
output writers.

Runners own their state exclusively; distinct runs never share mutable
data, so parameter sweeps may execute concurrently.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import coupled as cp
from . import diagnostics as dg
from .config import with_overrides
from .errors import NonfiniteValue
from .grids import build_grids
from .kinetics import init_density, limit_density, moment, step_density
from .limit import LimitState, step_limit
from .position import PositionHistory, initial_position, step_position

ENERGY_DECAY_TOL = 1e-6  # per step, relative to the initial energy
STABILITY_TOL = 1e-6  # per step, relative
SATURATION_TOL = 1e-12


@dataclass
class StepCapture:
    """Full solver state at one step, for offline checks."""

    n: int
    t: float
    z: np.ndarray
    rho: object
    delayed_z: np.ndarray


@dataclass
class WeakRunResult:
    times: np.ndarray
    trajectory: np.ndarray
    records: list
    mu0_min: float
    mu0_max: float
    mu0_lower_bound: float
    violations: list
    captures: list
    final_z: np.ndarray
    final_rho: object
    final_delayed: np.ndarray

    @property
    def ok(self):
        return not self.violations


def _weak_record(z, hist, rho, zeta_vals, rate, src, eps, sgrid, agrid, t, mu0):
    delayed = hist.matrix()
    u = dg.elongation_from_history(z, delayed, eps)
    S = src(sgrid.x, t) if src is not None else None
    uf = cp.ElongationField(values=u, t=t)
    energy = dg.energy(z, delayed, rho, eps, sgrid, agrid, source=S)
    diss = dg.dissipation(rho, uf, zeta_vals, sgrid, agrid)
    stab = dg.stability_functional(rho, uf, sgrid, agrid)
    beta0 = rate.beta_values(sgrid.x, t)
    ld = limit_density(beta0, rate.zeta_field(sgrid.x, agrid.a, t), agrid)
    hfield = dg.rho_convergence_H(rho, ld.rho0, agrid)
    lyap = float(hfield @ sgrid.quad_weights())
    p = float(((zeta_vals * rho.values * np.abs(u)) @ agrid.w) @ sgrid.quad_weights())
    return dg.DiagnosticsRecord(
        t=t,
        energy=energy,
        dissipation=diss,
        mu0_min=float(np.min(mu0)),
        mu0_max=float(np.max(mu0)),
        stability=stab,
        lyapunov=lyap,
        p=p,
        gamma2=0.0,
        truncated=False,
    )


def run_weak(vcfg, output_stride=1, diag_stride=1, capture_steps=()):
    """March the weakly coupled system to the final time.

    output_stride controls trajectory snapshots, diag_stride the diagnostics
    cadence (0 disables them).  With diag_stride == 1 and no source, the
    per-step energy and stability decays are checked and any breach is
    recorded as a hard violation.  capture_steps is an iterable of step
    indices whose full state is kept for offline checks.
    """
    sgrid, agrid, ts = build_grids(vcfg)
    rate, past, src = vcfg.rate_model, vcfg.past_data, vcfg.source
    eps, dt = vcfg.epsilon, ts.dt
    capture_steps = frozenset(capture_steps)

    rho = init_density(vcfg.initial_density, sgrid, agrid)
    S0 = src(sgrid.x, 0.0) if src is not None else None
    z = initial_position(rho, past, eps, sgrid, agrid, source_at_0=S0)
    hist = PositionHistory(z, past, eps, sgrid, agrid)
    mu0 = moment(rho, agrid, 0)
    # discrete analogue of the population floor min(mu0(0), beta_m/(beta_m+zeta_M))
    lower_bound = min(float(np.min(mu0)), rate.beta_m / (rate.beta_m + rate.zeta_M)) - 10.0 * agrid.da

    violations = []
    records = []
    captures = []
    times = [0.0]
    traj = [z.copy()]
    zeta_now = rate.zeta_field(sgrid.x, agrid.a, 0.0)
    if diag_stride:
        records.append(_weak_record(z, hist, rho, zeta_now, rate, src, eps, sgrid, agrid, 0.0, mu0))
        e0 = abs(records[0].energy)
        e_prev, q_prev = records[0].energy, records[0].stability
    if 0 in capture_steps:
        captures.append(StepCapture(0, 0.0, z.copy(), rho.copy(), hist.copy_matrix()))
    mu0_min, mu0_max = float(np.min(mu0)), float(np.max(mu0))

    for n in range(ts.n_steps):
        t_next = (n + 1) * dt
        rho = step_density(rho, zeta_now, rate.beta_values(sgrid.x, t_next), agrid, dt)
        S_next = src(sgrid.x, t_next) if src is not None else None
        z = step_position(rho, hist, eps, sgrid, agrid, source=S_next)
        zeta_now = rate.zeta_field(sgrid.x, agrid.a, t_next)

        mu0 = moment(rho, agrid, 0)
        mu0_min = min(mu0_min, float(np.min(mu0)))
        mu0_max = max(mu0_max, float(np.max(mu0)))
        if not np.all(np.isfinite(z)):
            raise NonfiniteValue(f"position field non-finite at t={t_next:g}")
        if np.max(mu0) > 1.0 - SATURATION_TOL:
            violations.append(f"saturation: mu0 = {np.max(mu0):.17g} at t={t_next:g}")
        if float(np.min(mu0)) < lower_bound:
            violations.append(f"population floor: mu0 = {np.min(mu0):.6g} < {lower_bound:.6g} at t={t_next:g}")

        if diag_stride and (n + 1) % diag_stride == 0:
            rec = _weak_record(z, hist, rho, zeta_now, rate, src, eps, sgrid, agrid, t_next, mu0)
            records.append(rec)
            if diag_stride == 1 and src is None:
                if rec.energy > e_prev + ENERGY_DECAY_TOL * e0:
                    violations.append(f"energy increase at t={t_next:g}: {e_prev:.6g} -> {rec.energy:.6g}")
                if rec.stability > q_prev * (1.0 + STABILITY_TOL) + 1e-300:
                    violations.append(f"stability increase at t={t_next:g}")
                e_prev, q_prev = rec.energy, rec.stability
        if (n + 1) % output_stride == 0:
            times.append(t_next)
            traj.append(z.copy())
        if (n + 1) in capture_steps:
            captures.append(StepCapture(n + 1, t_next, z.copy(), rho.copy(), hist.copy_matrix()))

    return WeakRunResult(
        times=np.asarray(times),
        trajectory=np.asarray(traj),
        records=records,
        mu0_min=mu0_min,
        mu0_max=mu0_max,
        mu0_lower_bound=lower_bound,
        violations=violations,
        captures=captures,
        final_z=z,
        final_rho=rho,
        final_delayed=hist.copy_matrix(),
    )


@dataclass
class LimitRunResult:
    times: np.ndarray
    trajectory: np.ndarray


def run_limit(vcfg, dt_out, n_out):
    """March the limit heat equation on the output grid.

    The friction field is the first moment of the closed-form limit density
    for the configured rates; the initial datum is the past position at t=0.
    """
    sgrid, agrid, _ = build_grids(vcfg)
    rate, past, src = vcfg.rate_model, vcfg.past_data, vcfg.source
    z0 = past(sgrid.x, 0.0)
    times = [0.0]
    traj = [z0.copy()]
    for m in range(n_out):
        t_next = (m + 1) * dt_out
        ld = limit_density(
            rate.beta_values(sgrid.x, t_next),
            rate.zeta_field(sgrid.x, agrid.a, t_next),
            agrid,
        )
        state = LimitState(z0=traj[-1], mu10=ld.mu10, t=m * dt_out)
        S = src(sgrid.x, t_next) if src is not None else None
        state = step_limit(state, dt_out, sgrid, source=S)
        times.append(t_next)
        traj.append(state.z0.copy())
    return LimitRunResult(times=np.asarray(times), trajectory=np.asarray(traj))


@dataclass
class SweepRow:
    epsilon: float
    error: float
    order: Optional[float]


@dataclass
class SweepResult:
    rows: list
    monotone: bool

    @property
    def ok(self):
        return self.monotone


def run_convergence_sweep(vcfg, epsilons, dt_out=None):
    """Compare the delay model against the limit equation over a scale sweep.

    Every epsilon runs on its own dt = eps*da; snapshots are taken on a
    common output grid (dt_out must be an integer multiple of each step
    size; default max(eps)*da).  Per-scale runs execute concurrently.
    """
    epsilons = sorted(epsilons, reverse=True)
    da = vcfg.da
    if dt_out is None:
        dt_out = max(epsilons) * da
    strides = []
    for eps in epsilons:
        ratio = dt_out / (eps * da)
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(f"dt_out={dt_out:g} is not a multiple of eps*da for eps={eps:g}")
        strides.append(int(round(ratio)))
    n_out = int(round(vcfg.final_time / dt_out))

    def one(eps, stride):
        v = with_overrides(vcfg, epsilon=eps)
        return run_weak(v, output_stride=stride, diag_stride=0)

    with ThreadPoolExecutor(max_workers=min(4, len(epsilons))) as pool:
        runs = list(pool.map(one, epsilons, strides))

    ref = run_limit(vcfg, dt_out, n_out)
    sgrid, _, _ = build_grids(vcfg)
    errors = [dg.convergence_error(r.trajectory, ref.trajectory, dt_out, sgrid) for r in runs]
    rows = []
    for i, (eps, err) in enumerate(zip(epsilons, errors)):
        order = None
        if i > 0:
            order = math.log(errors[i - 1] / err) / math.log(epsilons[i - 1] / eps)
        rows.append(SweepRow(epsilon=eps, error=err, order=order))
    monotone = all(a > b for a, b in zip(errors[:-1], errors[1:]))
    return SweepResult(rows=rows, monotone=monotone)


@dataclass
class CoupledRunResult:
    times: np.ndarray
    records: list
    snapshots: dict  # t -> (z, mu0)
    u_min: float
    mu0_min: float
    mu0_max: float
    gamma2: float
    truncation_k: float
    ever_truncated: bool
    violations: list
    soft_flags: list
    final: object
    trajectory: Optional[np.ndarray] = None
    snapshot_pair: Optional[tuple] = None
    flank_mask: Optional[np.ndarray] = None
    dead_mask: Optional[np.ndarray] = None
    mu0_final: Optional[np.ndarray] = None

    @property
    def ok(self):
        return not self.violations


def run_coupled(vcfg, diag_stride=1, snapshot_times=(), collect_trajectory=False,
                collect_snapshot_pair=None):
    """March the fully coupled system.

    snapshot_times are rounded to the step grid; each snapshot stores the
    position curve and the population curve.  collect_snapshot_pair keeps
    the full states before and after the given step index (for residual
    checks).  The truncation threshold defaults to strictly above the
    Riccati bound, so the clamp should never engage (it is recorded if it
    does).
    """
    sgrid, agrid, ts = build_grids(vcfg)
    rate, past, src = vcfg.rate_model, vcfg.past_data, vcfg.source
    eps, dt = vcfg.epsilon, ts.dt

    rho = init_density(vcfg.initial_density, sgrid, agrid)
    S0 = src(sgrid.x, 0.0) if src is not None else None
    z = initial_position(rho, past, eps, sgrid, agrid, source_at_0=S0)
    hist = PositionHistory(z, past, eps, sgrid, agrid)
    u = cp.init_elongation(z, past, eps, sgrid, agrid)
    dSdt0 = src.ddt(sgrid.x, 0.0) if src is not None else None
    g = cp.solve_velocity(rho, u, rate, dSdt0, eps, sgrid, agrid)

    # Riccati data measured from the initial state
    q0 = dg.stability_functional(rho, u, sgrid, agrid)
    p0 = cp.riccati_p(rho, u, rate, sgrid, agrid)
    if src is not None:
        t_samples = np.linspace(0.0, vcfg.final_time, 5)
        wx = sgrid.quad_weights()
        dS_norm = max(
            float(np.sqrt((src.ddt(sgrid.x, t) ** 2) @ wx)) for t in t_samples
        )
    else:
        dS_norm = 0.0
    if q0 > 0.0:
        gamma1 = 1.0 / q0
        h = cp.OMEGA * dS_norm * (2.0 * rate.zeta_lip * q0 + rate.zeta_at_zero)
        gamma2 = cp.riccati_gamma2(p0, gamma1, h, eps)
    else:
        gamma2 = max(p0, cp.OMEGA * dS_norm)
    k = vcfg.truncation_k if vcfg.truncation_k is not None else gamma2 / eps + dS_norm + 1.0

    state = cp.CoupledState(rho=rho, u=u, z=z, g=g, hist=hist, t=0.0, truncation_k=k)
    monitor_extinction = rate.beta_kind == "given" and rate.beta_m > 0.0
    mu0 = moment(rho, agrid, 0)
    mu0_min, mu0_max = float(np.min(mu0[1:-1])), float(np.max(mu0))
    u_min = float(np.min(u.values))
    want = {}
    for t_req in snapshot_times:
        n_req = int(round(t_req / dt))
        want[n_req] = t_req
    snapshots = {}
    if 0 in want:
        snapshots[want[0]] = (z.copy(), mu0.copy())
    violations, soft_flags, records, times = [], [], [], [0.0]
    ever_truncated = False
    snapshot_pair = None

    def state_copy(st):
        return cp.CoupledState(
            rho=st.rho.copy(), u=st.u.copy(), z=st.z.copy(), g=st.g.copy(),
            hist=None, t=st.t, truncation_k=st.truncation_k, truncated=st.truncated,
        )

    def record(st, mu0_now):
        e = dg.energy_from_elongation(
            st.z, st.rho, st.u, eps, sgrid, agrid,
            source=src(sgrid.x, st.t) if src is not None else None,
        )
        zeta_field = rate.zeta_of_u(st.u.values)
        diss = dg.dissipation(st.rho, st.u, zeta_field, sgrid, agrid)
        stab = dg.stability_functional(st.rho, st.u, sgrid, agrid)
        p = cp.riccati_p(st.rho, st.u, rate, sgrid, agrid)
        lyap = float(dg.lyapunov_H(st.rho.values, agrid) @ sgrid.quad_weights())
        rec = dg.DiagnosticsRecord(
            t=st.t,
            energy=e,
            dissipation=diss,
            mu0_min=float(np.min(mu0_now[1:-1])),
            mu0_max=float(np.max(mu0_now)),
            stability=stab,
            lyapunov=lyap,
            p=p,
            gamma2=gamma2,
            truncated=st.truncated,
        )
        if p > gamma2 * (1.0 + 1e-9):
            soft_flags.append(f"riccati monitor: p={p:.6g} > gamma2={gamma2:.6g} at t={st.t:g}")
        return rec

    if diag_stride:
        records.append(record(state, mu0))
    trajectory = [z.copy()] if collect_trajectory else None

    for n in range(ts.n_steps):
        if collect_snapshot_pair is not None and n + 1 == collect_snapshot_pair:
            before = state_copy(state)
        state = cp.coupled_step(state, src, rate, eps, sgrid, agrid)
        if collect_snapshot_pair is not None and n + 1 == collect_snapshot_pair:
            snapshot_pair = (before, state_copy(state))
        ever_truncated = ever_truncated or state.truncated
        mu0 = moment(state.rho, agrid, 0)
        mu0_min = min(mu0_min, float(np.min(mu0[1:-1])))
        mu0_max = max(mu0_max, float(np.max(mu0)))
        u_min = min(u_min, float(np.min(state.u.values)))
        if not np.all(np.isfinite(state.z)) or not np.all(np.isfinite(state.g)):
            raise NonfiniteValue(f"coupled fields non-finite at t={state.t:g}")
        if np.max(mu0) > 1.0 - SATURATION_TOL:
            violations.append(f"saturation: mu0 = {np.max(mu0):.17g} at t={state.t:g}")
        times.append(state.t)
        if diag_stride and (n + 1) % diag_stride == 0:
            records.append(record(state, mu0))
        if collect_trajectory:
            trajectory.append(state.z.copy())
        if (n + 1) in want:
            snapshots[want[n + 1]] = (state.z.copy(), mu0.copy())

    if monitor_extinction and mu0_min <= 0.0:
        soft_flags.append(f"extinction: min mu0 = {mu0_min:.6g} despite beta_m > 0")
    result = CoupledRunResult(
        times=np.asarray(times),
        records=records,
        snapshots=snapshots,
        u_min=u_min,
        mu0_min=mu0_min,
        mu0_max=mu0_max,
        gamma2=gamma2,
        truncation_k=k,
        ever_truncated=ever_truncated,
        violations=violations,
        soft_flags=soft_flags,
        final=state,
    )
    if collect_trajectory:
        result.trajectory = np.asarray(trajectory)
    result.snapshot_pair = snapshot_pair
    return result


MU0_PLOT_FLOOR = 1e-8  # log-scale clip for population plot data

DETACHMENT_TIMES = (1e-4, 2e-4, 3e-4)


def run_detachment(vcfg, snapshot_times=DETACHMENT_TIMES):
    """Tear-off experiment: threshold on-rate, large constant load.

    Returns the coupled run result plus the final-time region split
    (flanks where the on-rate is live, the detached middle where it is not);
    regions are taken over interior nodes.
    """
    res = run_coupled(vcfg, diag_stride=10, snapshot_times=tuple(snapshot_times) + (vcfg.final_time,))
    sgrid, agrid, _ = build_grids(vcfg)
    z_final = res.final.z
    beta_final = vcfg.rate_model.beta_values(sgrid.x, res.final.t, z=z_final)
    interior = np.zeros(z_final.size, dtype=bool)
    interior[1:-1] = True
    res.flank_mask = interior & (beta_final > 0.0)
    res.dead_mask = interior & (beta_final == 0.0)
    res.mu0_final = moment(res.final.rho, agrid, 0)
    return res


def _fmt(v):
    return format(float(v), ".17g")


def write_trajectory_csv(path, times, trajectory, x):
    """Rows (t, x, z) for every output time and node."""
    with open(path, "w", newline="\n") as f:
        f.write("t,x,z\n")
        for t, row in zip(times, trajectory):
            for xi, zi in zip(x, row):
                f.write(f"{_fmt(t)},{_fmt(xi)},{_fmt(zi)}\n")


def write_diagnostics_csv(path, records):
    """Fixed-order diagnostics columns, 17 significant digits."""
    with open(path, "w", newline="\n") as f:
        f.write(",".join(dg.DiagnosticsRecord.COLUMNS) + "\n")
        for rec in records:
            f.write(",".join(_fmt(v) for v in rec.row()) + "\n")


def write_density_csv(path, rho, sgrid, agrid):
    """Rows (x, a, rho) of a density snapshot."""
    with open(path, "w", newline="\n") as f:
        f.write("x,a,rho\n")
        for i, xi in enumerate(sgrid.x):
            for j, aj in enumerate(agrid.a):
                f.write(f"{_fmt(xi)},{_fmt(aj)},{_fmt(rho.values[i, j])}\n")


def write_profile_columns(path, x, labelled_columns):
    """Gnuplot-style columnar text: '# x <labels...>' then one row per node."""
    labels = list(labelled_columns)
    cols = [np.asarray(labelled_columns[k]) for k in labels]
    with open(path, "w", newline="\n") as f:
        f.write("# x " + " ".join(labels) + "\n")
        for i, xi in enumerate(x):
            f.write(" ".join([_fmt(xi)] + [_fmt(c[i]) for c in cols]) + "\n")


def write_sweep_csv(path, sweep):
    with open(path, "w", newline="\n") as f:
        f.write("epsilon,l2_error,order\n")
        for row in sweep.rows:
            order = "" if row.order is None else _fmt(row.order)
            f.write(f"{_fmt(row.epsilon)},{_fmt(row.error)},{order}\n")
