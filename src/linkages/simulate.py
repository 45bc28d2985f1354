"""Experiment drivers: weak runs, the limit solver, the coupled system,
the scale-convergence sweep and the detachment experiment, plus columnar
output writers.

The weak, coupled and limit drivers share one time loop, march: a stepper
moves the state one step and observers look at every level, n = 0
included, to check invariants, record diagnostics and keep outputs.

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
from .errors import ConfigError, HypothesisViolation, NonfiniteValue
from .grids import build_grids
from .kinetics import init_density, limit_density, moment, step_density
from .limit import step_limit
from .position import PositionHistory, initial_position, step_position

ENERGY_DECAY_TOL = 1e-6  # per step, relative to the initial energy
STABILITY_TOL = 1e-6  # per step, relative
SATURATION_TOL = 1e-12


def march(state, step, n_steps, observers=()):
    """Advance state n_steps times and return the final state.

    step(n, state) returns the state at level n.  Every observer is called
    as obs(n, state) at n = 0 and after every step; an observer that raises
    stops the run.
    """
    for obs in observers:
        obs(0, state)
    for n in range(1, n_steps + 1):
        state = step(n, state)
        for obs in observers:
            obs(n, state)
    return state


def _source_at(src, x, t):
    return src(x, t) if src is not None else None


class _Guard:
    """Observer of the invariants both drivers watch.

    Tracks the range of mu0 (the minimum over mu0[lo]), raises
    NonfiniteValue when one of the named fields is not finite, and records
    saturation and a minimum below floor as violations.
    """

    def __init__(self, fields, lo=slice(None), floor=-math.inf):
        self.fields, self.lo, self.floor = fields, lo, floor
        self.mu0_min, self.mu0_max = math.inf, -math.inf
        self.violations = []

    def __call__(self, n, st):
        lo, hi = float(np.min(st.mu0[self.lo])), float(np.max(st.mu0))
        self.mu0_min, self.mu0_max = min(self.mu0_min, lo), max(self.mu0_max, hi)
        if not all(np.all(np.isfinite(getattr(st, f))) for f in self.fields):
            raise NonfiniteValue(f"non-finite {'/'.join(self.fields)} at t={st.t:g}")
        if hi > 1.0 - SATURATION_TOL:
            self.violations.append(f"saturation: mu0 = {hi:.17g} at t={st.t:g}")
        if lo < self.floor:
            self.violations.append(f"population floor: mu0 = {lo:.6g} < {self.floor:.6g} at t={st.t:g}")


def _start(vcfg):
    """Grids, initial density, initial position and its history ring."""
    sgrid, agrid, ts = build_grids(vcfg)
    rho = init_density(vcfg.initial_density, sgrid, agrid)
    S0 = _source_at(vcfg.source, sgrid.x, 0.0)
    z = initial_position(rho, vcfg.past_data, vcfg.epsilon, sgrid, agrid, source_at_0=S0)
    hist = PositionHistory(z, vcfg.past_data, vcfg.epsilon, sgrid, agrid)
    return sgrid, agrid, ts, rho, z, hist


@dataclass
class WeakState:
    """Weak-run state at level n, t = n*dt; the stepper rebinds its fields."""

    t: float
    rho: np.ndarray
    z: np.ndarray
    hist: PositionHistory  # ends at the same level as z
    zeta: np.ndarray  # prescribed off-rate at t
    mu0: np.ndarray


@dataclass
class _RunResult:
    records: list
    mu0_min: float
    mu0_max: float
    violations: list

    @property
    def ok(self):
        return not self.violations


@dataclass
class WeakRunResult(_RunResult):
    times: np.ndarray
    trajectory: np.ndarray
    mu0_lower_bound: float
    final_z: np.ndarray
    final_rho: np.ndarray


def run_weak(vcfg, output_stride=1, diag_stride=1, observers=()):
    """March the weakly coupled system to the final time.

    output_stride controls trajectory snapshots, diag_stride the diagnostics
    cadence (0 disables them).  With diag_stride == 1 and no source, the
    per-step energy and stability decays are checked and any breach is
    recorded as a hard violation.  observers are called as obs(n, state)
    with the WeakState at every level, after the built-in ones (see march).
    """
    sgrid, agrid, ts, rho, z, hist = _start(vcfg)
    rate, src = vcfg.rate_model, vcfg.source
    eps, dt = vcfg.epsilon, ts.dt
    mu0 = moment(rho, agrid, 0)
    # discrete analogue of the population floor min(mu0(0), beta_m/(beta_m+zeta_M))
    lower_bound = min(float(np.min(mu0)), rate.beta_m / (rate.beta_m + rate.zeta_M)) - 10.0 * agrid.da
    state = WeakState(t=0.0, rho=rho, z=z, hist=hist, zeta=rate.zeta_field(sgrid.x, agrid.a, 0.0), mu0=mu0)

    def step(n, st):
        # n*dt, not an accumulated t + dt: the two differ in the last bits
        st.t = n * dt
        st.rho = step_density(st.rho, st.zeta, rate.beta_values(sgrid.x, st.t), agrid)
        st.z = step_position(st.rho, st.hist, eps, sgrid, agrid, source=_source_at(src, sgrid.x, st.t))
        st.zeta = rate.zeta_field(sgrid.x, agrid.a, st.t)
        st.mu0 = moment(st.rho, agrid, 0)
        return st

    guard = _Guard(("z",), floor=lower_bound)
    traj, records = [], []

    def output(n, st):
        if n % output_stride == 0:
            traj.append(st.z.copy())

    def diagnose(n, st):
        if not diag_stride or n % diag_stride:
            return
        delayed = st.hist.matrix()
        u = dg.elongation_from_history(st.z, delayed, eps)
        energy = dg.energy(st.z, delayed, st.rho, eps, sgrid, agrid, source=_source_at(src, sgrid.x, st.t))
        diss = dg.dissipation(st.rho, u, st.zeta, sgrid, agrid)
        stab = dg.stability_functional(st.rho, u, sgrid, agrid)
        ld = limit_density(rate.beta_values(sgrid.x, st.t), st.zeta, agrid)
        hfield = dg.rho_convergence_H(st.rho, ld.rho0, agrid)
        lyap = float(hfield @ sgrid.quad_weights())
        p = float(((st.zeta * st.rho * np.abs(u)) @ agrid.w) @ sgrid.quad_weights())
        rec = dg.DiagnosticsRecord(
            t=st.t,
            energy=energy,
            dissipation=diss,
            mu0_min=float(np.min(st.mu0)),
            mu0_max=float(np.max(st.mu0)),
            stability=stab,
            lyapunov=lyap,
            p=p,
            gamma2=0.0,
            truncated=False,
        )
        if n and diag_stride == 1 and src is None:
            prev = records[-1]
            if rec.energy > prev.energy + ENERGY_DECAY_TOL * abs(records[0].energy):
                guard.violations.append(f"energy increase at t={st.t:g}: {prev.energy:.6g} -> {rec.energy:.6g}")
            if rec.stability > prev.stability * (1.0 + STABILITY_TOL) + 1e-300:
                guard.violations.append(f"stability increase at t={st.t:g}")
        records.append(rec)

    state = march(state, step, ts.n_steps, [guard, output, diagnose, *observers])
    return WeakRunResult(
        times=np.arange(0, ts.n_steps + 1, output_stride) * dt,
        trajectory=np.asarray(traj),
        records=records,
        mu0_min=guard.mu0_min,
        mu0_max=guard.mu0_max,
        mu0_lower_bound=lower_bound,
        violations=guard.violations,
        final_z=state.z,
        final_rho=state.rho,
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
    rate, src = vcfg.rate_model, vcfg.source
    traj = []

    def step(n, z):
        t = n * dt_out
        ld = limit_density(rate.beta_values(sgrid.x, t), rate.zeta_field(sgrid.x, agrid.a, t), agrid)
        return step_limit(z, ld.mu10, dt_out, sgrid, source=_source_at(src, sgrid.x, t))

    march(vcfg.past_data(sgrid.x, 0.0), step, n_out, [lambda n, z: traj.append(z.copy())])
    return LimitRunResult(times=np.arange(n_out + 1) * dt_out, trajectory=np.asarray(traj))


@dataclass
class SweepRow:
    epsilon: float
    error: float
    order: Optional[float]


@dataclass
class SweepResult:
    rows: list
    monotone: bool


def run_convergence_sweep(vcfg, epsilons, dt_out=None):
    """Compare the delay model against the limit equation over a scale sweep.

    Every epsilon runs on its own dt = eps*da; snapshots are taken on a
    common output grid (dt_out must be an integer multiple of each step
    size; default max(eps)*da).  Per-scale runs execute concurrently.
    Raises ConfigError for a scale that fails validation or an output grid
    that does not divide.
    """
    epsilons = sorted(epsilons, reverse=True)
    vcfgs = [with_overrides(vcfg, epsilon=eps) for eps in epsilons]
    if dt_out is None:
        dt_out = vcfgs[0].dt
    strides = []
    for v in vcfgs:
        ratio = dt_out / v.dt
        if abs(ratio - round(ratio)) > 1e-9:
            where = f"dt_out={dt_out:g} is not a multiple of eps*da for eps={v.epsilon:g}"
            raise ConfigError([HypothesisViolation("output grid divisibility", where)])
        strides.append(int(round(ratio)))
    n_out = int(round(vcfg.final_time / dt_out))

    with ThreadPoolExecutor(max_workers=min(4, len(epsilons))) as pool:
        runs = list(pool.map(lambda v, s: run_weak(v, output_stride=s, diag_stride=0), vcfgs, strides))

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
class CoupledRunResult(_RunResult):
    snapshots: dict  # t -> (z, mu0)
    u_min: float
    gamma2: float
    ever_truncated: bool
    soft_flags: list
    final: object
    flank_mask: Optional[np.ndarray] = None
    dead_mask: Optional[np.ndarray] = None
    mu0_final: Optional[np.ndarray] = None


def run_coupled(vcfg, diag_stride=1, snapshot_times=(), observers=()):
    """March the fully coupled system.

    snapshot_times are rounded to the step grid; each snapshot stores the
    position curve and the population curve.  observers are called as
    obs(n, state) with the CoupledState at every level, after the built-in
    ones (see march).  The truncation threshold defaults to strictly above
    the Riccati bound, so the clamp should never engage (it is recorded if
    it does).
    """
    sgrid, agrid, ts, rho, z, hist = _start(vcfg)
    rate, src, eps = vcfg.rate_model, vcfg.source, vcfg.epsilon
    u = cp.init_elongation(z, vcfg.past_data, eps, sgrid, agrid)
    dSdt0 = src.ddt(sgrid.x, 0.0) if src is not None else None
    g = cp.solve_velocity(rho, u, rate.zeta_of_u(u), dSdt0, eps, sgrid, agrid)

    gamma2, dS_norm = cp.riccati_bound(rho, u, rate, src, vcfg.final_time, eps, sgrid, agrid)
    k = vcfg.truncation_k if vcfg.truncation_k is not None else gamma2 / eps + dS_norm + 1.0

    state = cp.CoupledState(rho=rho, u=u, z=z, g=g, hist=hist, t=0.0, truncation_k=k, mu0=moment(rho, agrid, 0))

    def step(n, st):
        st = cp.coupled_step(st, src, rate, eps, sgrid, agrid)
        st.mu0 = moment(st.rho, agrid, 0)
        return st

    guard = _Guard(("z", "g"), lo=slice(1, -1))
    want = {int(round(t_req / ts.dt)): t_req for t_req in snapshot_times}
    snapshots, soft_flags, records = {}, [], []
    u_min, ever_truncated = math.inf, False

    def track(n, st):
        nonlocal u_min, ever_truncated
        u_min = min(u_min, float(np.min(st.u)))
        ever_truncated = ever_truncated or st.truncated
        if n in want:
            snapshots[want[n]] = (st.z.copy(), st.mu0.copy())

    def record(n, st):
        if not diag_stride or n % diag_stride:
            return
        e = dg.energy_from_elongation(
            st.z, st.rho, st.u, eps, sgrid, agrid, source=_source_at(src, sgrid.x, st.t)
        )
        zeta_u = rate.zeta_of_u(st.u)
        diss = dg.dissipation(st.rho, st.u, zeta_u, sgrid, agrid)
        stab = dg.stability_functional(st.rho, st.u, sgrid, agrid)
        p = cp.riccati_p(st.rho, st.u, zeta_u, sgrid, agrid)
        lyap = float(dg.lyapunov_H(st.rho, agrid) @ sgrid.quad_weights())
        records.append(dg.DiagnosticsRecord(
            t=st.t,
            energy=e,
            dissipation=diss,
            mu0_min=float(np.min(st.mu0[1:-1])),
            mu0_max=float(np.max(st.mu0)),
            stability=stab,
            lyapunov=lyap,
            p=p,
            gamma2=gamma2,
            truncated=st.truncated,
        ))
        if p > gamma2 * (1.0 + 1e-9):
            soft_flags.append(f"riccati monitor: p={p:.6g} > gamma2={gamma2:.6g} at t={st.t:g}")

    state = march(state, step, ts.n_steps, [guard, track, record, *observers])

    if rate.beta_kind == "given" and rate.beta_m > 0.0 and guard.mu0_min <= 0.0:
        soft_flags.append(f"extinction: min mu0 = {guard.mu0_min:.6g} despite beta_m > 0")
    return CoupledRunResult(
        records=records,
        snapshots=snapshots,
        u_min=u_min,
        mu0_min=guard.mu0_min,
        mu0_max=guard.mu0_max,
        gamma2=gamma2,
        ever_truncated=ever_truncated,
        violations=guard.violations,
        soft_flags=soft_flags,
        final=state,
    )


MU0_PLOT_FLOOR = 1e-8  # log-scale clip for population plot data

DETACHMENT_TIMES = (1e-4, 2e-4, 3e-4)


def run_detachment(vcfg, snapshot_times=DETACHMENT_TIMES):
    """Tear-off experiment: threshold on-rate, large constant load.

    Returns the coupled run result plus the final-time region split
    (flanks where the on-rate is live, the detached middle where it is not);
    regions are taken over interior nodes.
    """
    res = run_coupled(vcfg, diag_stride=10, snapshot_times=tuple(snapshot_times) + (vcfg.final_time,))
    sgrid, _, _ = build_grids(vcfg)
    z_final = res.final.z
    beta_final = vcfg.rate_model.beta_values(sgrid.x, res.final.t, z=z_final)
    interior = np.zeros(z_final.size, dtype=bool)
    interior[1:-1] = True
    res.flank_mask = interior & (beta_final > 0.0)
    res.dead_mask = interior & (beta_final == 0.0)
    res.mu0_final = res.final.mu0
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
                f.write(f"{_fmt(xi)},{_fmt(aj)},{_fmt(rho[i, j])}\n")


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
