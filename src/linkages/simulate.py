"""Experiment drivers: weak runs, the limit solver, the coupled system,
the scale-convergence sweep and the detachment experiment, plus columnar
output writers.

The weak, coupled and limit drivers share one time loop, march: a stepper
moves the state one step and observers look at every level, n = 0
included, to check invariants, record diagnostics and keep outputs.

Runners own their state: every run of a sweep samples its own off-rate
field and builds its own rings (_lane_march).
"""

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import coupled as cp
from . import diagnostics as dg
from .config import Inputs, with_overrides
from .elliptic import Operator
from .errors import ConfigError, HypothesisViolation, NonfiniteValue, RateKindMismatch
from .grids import build_grids
from .kinetics import BirthRing, CohortRing, Rows, advance, age_profile, birth_ring, cohort_weights, init_density
from .kinetics import limit_density, survival
from .limit import step_limit
from .position import PositionHistory, initial_position, sample_past
from .presets import is_time_invariant

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


class _Guard:
    """The invariant bookkeeping of one run.

    Called as guard(n, t, lo, hi) with the range [lo, hi] of mu0 at level
    n (lo over the rows the run checks), it tracks the range of mu0 and the
    minimum over the stepped levels n >= 1 alone, and records saturation
    and a minimum below floor as violations.  The drivers check that their
    fields are finite (NonfiniteValue) before they call it.
    """

    def __init__(self, floor=-math.inf):
        self.floor = floor
        self.mu0_min, self.mu0_max, self.stepped_min = math.inf, -math.inf, math.inf
        self.violations = []

    def __call__(self, n, t, lo, hi):
        self.mu0_min, self.mu0_max = min(self.mu0_min, lo), max(self.mu0_max, hi)
        if n:
            self.stepped_min = min(self.stepped_min, lo)
        if hi > 1.0 - SATURATION_TOL:
            self.violations.append(f"saturation: mu0 = {hi:.17g} at t={t:g}")
        if lo < self.floor:
            self.violations.append(f"population floor: mu0 = {lo:.6g} < {self.floor:.6g} at t={t:g}")


def _start(vcfg):
    """Grids, config.Inputs, initial density and position, and the history ring, which takes over the past sample."""
    sgrid, agrid, ts = build_grids(vcfg)
    inputs = Inputs(vcfg.rate_model, vcfg.source, vcfg.epsilon, sgrid, agrid)
    rho = init_density(vcfg.initial_density, sgrid, agrid)
    zp = sample_past(vcfg.past_data, vcfg.epsilon, sgrid, agrid)
    z = initial_position(rho, zp, inputs.balance, agrid, inputs.load(0.0))
    return sgrid, agrid, ts, inputs, rho, z, PositionHistory(z, zp)


@dataclass
class WeakState:
    """Weak-run state at level n, t = n*dt; the stepper rebinds its fields.

    rho, in age order, is built from the ring, in the frame of hist, when first read.
    """

    t: float
    z: np.ndarray
    hist: PositionHistory  # ends at the same level as z
    zeta: np.ndarray  # prescribed off-rate at t
    mu0: np.ndarray
    ring: BirthRing | CohortRing
    _rho: Optional[np.ndarray] = None

    @property
    def rho(self):
        if self._rho is None:
            self._rho = self.ring.density()
        return self._rho


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


class _WeakRun:
    """One weak run: its grids, its config.Inputs, its state at level n and its guard.

    An off-rate that declares it ignores t is sampled once and stepped on
    birth values (kinetics.BirthRing) unless birth_ring refuses the data;
    the others on the density (kinetics.CohortRing).  Either ring holds
    the survival factor of an off-rate the same at every x (a field of
    equal rows) on one row.  Level 0 is checked when the run is built.
    The run owns every buffer it steps on: the off-rate field at t = 0,
    sampled here, and its ring's.
    """

    def __init__(self, vcfg):
        sgrid, agrid, ts, self.inputs, rho, z, hist = _start(vcfg)
        rate = vcfg.rate_model
        self.sgrid, self.agrid, self.rate, self.eps = sgrid, agrid, rate, vcfg.epsilon
        self.dt, self.n_steps, self.n = ts.dt, ts.n_steps, 0
        mu0 = rho @ agrid.w
        zeta = rate.zeta_field(sgrid.x, agrid.a, 0.0)
        self.fixed = is_time_invariant(rate.zeta)
        # either ring takes over the buffers of rho and of the survival factor
        row = zeta[:1] if self.fixed and (zeta == zeta[:1]).all() else zeta
        ring = self.fixed and birth_ring(rho, survival(row, agrid), hist, agrid)
        ring = ring or CohortRing(rho, survival(row, agrid), hist, agrid)
        self.state = WeakState(t=0.0, z=z, hist=hist, zeta=zeta, mu0=mu0, ring=ring)
        # discrete analogue of the population floor min(mu0(0), beta_m/(beta_m+zeta_M))
        self.guard = _Guard(min(float(np.min(mu0)), rate.beta_m / (rate.beta_m + rate.zeta_M)) - 10.0 * agrid.da)
        _check([self], z[None], mu0[None])


def _check(runs, z, mu0):
    """The guards of runs on their levels, z and mu0 stacked one row a run: the reductions run once over the stack.

    A non-finite z names the t of every run whose row is not finite, and
    its scale where there are several.
    """
    if not np.isfinite(z).all():  # a block of the stacked solve that is not finite spreads to the others
        bad = [r for r, row in zip(runs, z) if not np.isfinite(row).all()]
        where = ", ".join(f"t={r.state.t:g}" + (f" (eps={r.eps:g})" if len(runs) > 1 else "") for r in bad)
        raise NonfiniteValue(f"non-finite z at {where}")
    for r, lo, hi in zip(runs, mu0.min(axis=1).tolist(), mu0.max(axis=1).tolist()):
        r.guard(r.n, r.state.t, lo, hi)


def _weak_step(runs, rows, inputs):
    """Advance each of runs, which differ in epsilon alone, one level, as the rows of one step.

    rows is kinetics.Rows over their rings and inputs their config.Inputs,
    eps a column of their scales for several runs.  One kinetics.advance
    steps them all on the data inputs gives at each run's own t; each
    run's off-rate, state and guard are its own.  For one run this is
    run_weak's step.
    """
    for r in runs:
        r.n += 1
        r.state.t = r.n * r.dt  # n*dt, not an accumulated t + dt: the two differ in the last bits
    beta, den, eps_S = inputs.at(runs[0].state.t if len(runs) == 1 else [r.state.t for r in runs])
    z, mu0 = advance(rows, beta, den, inputs.balance, eps_S)
    for r, z_row, mu0_row in zip(runs, z, mu0):
        st = r.state
        st.z, st.mu0, st._rho = z_row, mu0_row, None
        if not r.fixed:  # the survival of the next step, read at t
            st.zeta = r.rate.zeta_field(r.sgrid.x, r.agrid.a, st.t)
            survival(st.zeta, r.agrid, out=st.ring.surv)
    _check(runs, z, mu0)


def run_weak(vcfg, output_stride=1, diag_stride=1, observers=()):
    """March the weakly coupled system to the final time.

    output_stride controls trajectory snapshots, diag_stride the diagnostics
    cadence (0 disables them).  With diag_stride == 1 and no source, the
    per-step energy and stability decays are checked and any breach is
    recorded as a hard violation; a record whose energy, dissipation,
    stability or p is not finite ends the run (NonfiniteValue).  observers are called as obs(n, state)
    with the WeakState at every level, after the built-in ones (see march).
    The density steps on the ring of _WeakRun: on birth values an off-rate
    the same at every age (every constant preset) costs O(nx) a step, with
    one full read of the rings each time their head comes back to 0; an
    age-dependent one reads both rings every step.  The step is
    _weak_step on one row.
    """
    run = _WeakRun(vcfg)
    sgrid, agrid, inputs, eps, guard = run.sgrid, run.agrid, run.inputs, run.eps, run.guard
    rows = Rows([run.state.ring])

    def step(n, st):
        _weak_step([run], rows, inputs)
        return st

    traj, records = [], []
    # the records' stretch and work buffers and their limit density (_limit_at)
    shape = (sgrid.n_nodes, agrid.n_nodes)
    u, work = (np.empty(shape), (np.empty(shape), np.empty(shape))) if diag_stride else (None, None)
    limit = _limit_at(inputs, agrid, run.state.zeta if run.fixed else None) if diag_stride else None

    def output(n, st):
        if n % output_stride == 0:
            traj.append(st.z.copy())

    def diagnose(n, st):
        if not diag_stride or n % diag_stride:
            return
        dg.elongation_from_history(st.z, st.hist, eps, out=u)
        rho0 = limit(st.t, st.zeta).rho0
        rec = dg.record(
            st.t, st.z, st.rho, u, st.zeta, inputs.load(st.t), eps, sgrid, agrid.w, work,
            rho0=rho0,
            mu0_min=float(np.min(st.mu0)),
            mu0_max=float(np.max(st.mu0)),
            gamma2=0.0,
            truncated=False,
        )
        _check_record(rec)
        if n and diag_stride == 1 and inputs.source is None:
            prev = records[-1]
            if rec.energy > prev.energy + ENERGY_DECAY_TOL * abs(records[0].energy):
                guard.violations.append(f"energy increase at t={st.t:g}: {prev.energy:.6g} -> {rec.energy:.6g}")
            if rec.stability > prev.stability * (1.0 + STABILITY_TOL) + 1e-300:
                guard.violations.append(f"stability increase at t={st.t:g}")
        records.append(rec)

    state = march(run.state, step, run.n_steps, [output, diagnose, *observers])
    return WeakRunResult(
        times=np.arange(0, run.n_steps + 1, output_stride) * run.dt,
        trajectory=np.asarray(traj),
        records=records,
        mu0_min=guard.mu0_min,
        mu0_max=guard.mu0_max,
        mu0_lower_bound=guard.floor,
        violations=guard.violations,
        final_z=state.z,
        final_rho=state.rho,
    )


@dataclass
class LimitRunResult:
    times: np.ndarray
    trajectory: np.ndarray


def _limit_at(inputs, agrid, zeta0):
    """(t, zeta) -> kinetics.limit_density of the on-rate of inputs at t and zeta, the off-rate field at t.

    zeta0 is that field where the off-rate ignores t, else None: its age
    profile is then formed once, and the density too where the on-rate
    ignores t as well.
    """
    if zeta0 is None:
        return lambda t, zeta: limit_density(inputs.rates(t)[0], zeta, agrid)
    profile, rho0 = age_profile(zeta0, agrid), np.empty(zeta0.shape)
    if is_time_invariant(inputs.rate.beta):
        ld = limit_density(inputs.rates(0.0)[0], zeta0, agrid, profile, rho0)
        return lambda t, zeta: ld
    return lambda t, zeta: limit_density(inputs.rates(t)[0], zeta, agrid, profile, rho0)


def run_limit(vcfg, dt_out, n_out):
    """March the limit heat equation on the output grid.

    The friction field is the first moment of the closed-form limit density
    for the configured rates; the initial datum is the past position at t=0.
    """
    sgrid, agrid, _ = build_grids(vcfg)
    rate, inputs = vcfg.rate_model, Inputs(vcfg.rate_model, vcfg.source, vcfg.epsilon, sgrid, agrid)
    zeta0 = rate.zeta_field(sgrid.x, agrid.a, 0.0) if is_time_invariant(rate.zeta) else None
    limit, traj, op = _limit_at(inputs, agrid, zeta0), [], Operator(1.0, sgrid)

    def step(n, z):
        t = n * dt_out
        ld = limit(t, zeta0 if zeta0 is not None else rate.zeta_field(sgrid.x, agrid.a, t))
        return step_limit(z, ld.mu10, dt_out, op, source=inputs.load(t))

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


def _lane_march(vcfgs, strides):
    """The trajectories of the weak runs of vcfgs, which differ in epsilon alone, each kept every strides[i] levels.

    The runs step on two lanes.  Each run goes, finest first, to the lane
    with fewer steps so far, so the finest runs alone on lane 0 and, where
    each scale halves the last, lane 1 runs the others in turn and ends no
    later.  The lanes' current runs step together, as the rows of one
    _weak_step on kinetics.Rows; when a run ends, its lane starts its next
    one, and only its trajectory is kept; each such set of rows has its own
    config.Inputs, eps a column of their scales.  Each run samples its own
    off-rate field and builds its own rings (_WeakRun), so a lane's run
    shares no buffer with another's.
    """
    lanes, steps = ([], []), [0, 0]
    for i in sorted(range(len(vcfgs)), key=lambda i: vcfgs[i].epsilon):
        lane = steps.index(min(steps))
        lanes[lane].append(i)
        steps[lane] += build_grids(vcfgs[i])[2].n_steps
    trajs = {}

    def start(lane):  # the lane's next run at level 0, or None
        if not lanes[lane]:
            return None
        run = _WeakRun(vcfgs[lanes[lane][0]])
        run.i, run.traj = lanes[lane].pop(0), [run.state.z.copy()]
        return run

    def until_one_ends(runs):
        first, rows = runs[0], Rows([r.state.ring for r in runs])
        inputs = Inputs(first.rate, first.inputs.source, np.array([[r.eps] for r in runs]), first.sgrid, first.agrid)

        def step(n, runs):
            _weak_step(runs, rows, inputs)
            for r in runs:
                if r.n % strides[r.i] == 0:
                    r.traj.append(r.state.z.copy())
            return runs

        march(runs, step, min(r.n_steps - r.n for r in runs))

    live = [start(lane) for lane in range(len(lanes))]
    while any(live):
        until_one_ends([r for r in live if r])
        trajs.update((r.i, np.asarray(r.traj)) for r in live if r and r.n == r.n_steps)
        live = [r if r and r.n < r.n_steps else None for r in live]  # the runs that ended are freed
        live = [r or start(lane) for lane, r in enumerate(live)]
    return [trajs[i] for i in range(len(vcfgs))]


def run_convergence_sweep(vcfg, epsilons, dt_out):
    """Compare the delay model against the limit equation over a scale sweep.

    Every epsilon runs on its own dt = eps*da; snapshots are taken on a
    common output grid (dt_out must be an integer multiple of each step
    size).  The scales step together on two lanes (_lane_march), each with
    its own rings, as the rows of one weak step; each row is bit for bit
    the run that scale makes alone.  A row's order is None
    for the first scale and where either error it compares is 0; the errors
    are monotone if each is below the one before or both are 0.  Raises
    ConfigError, before any run, for an off-rate that is not prescribed, a
    repeated scale (the order estimate would divide by log 1 = 0), a scale
    that fails validation, an output grid that does not divide or one that
    reaches past the final time.
    """
    if vcfg.rate_model.zeta_kind != "given":
        raise RateKindMismatch(f"the sweep needs a prescribed off-rate, not {vcfg.rate_model.zeta_kind!r}")
    epsilons = sorted(epsilons, reverse=True)
    if len(set(epsilons)) < len(epsilons):
        where = "epsilons " + ",".join(f"{eps:g}" for eps in epsilons)
        raise ConfigError([HypothesisViolation("distinct scales", where)])
    vcfgs = [with_overrides(vcfg, epsilon=eps) for eps in epsilons]
    strides = []
    for v in vcfgs:
        ratio = dt_out / v.dt
        if abs(ratio - round(ratio)) > 1e-9:
            where = f"dt_out={dt_out:g} is not a multiple of eps*da for eps={v.epsilon:g}"
            raise ConfigError([HypothesisViolation("output grid divisibility", where)])
        strides.append(int(round(ratio)))
    # the snapshots every run keeps: n_steps // stride after level 0
    n_out = build_grids(vcfgs[0])[2].n_steps // strides[0]
    if n_out == 0:
        where = f"dt_out={dt_out:g} > final_time={vcfg.final_time:g}: no snapshot after t = 0"
        raise ConfigError([HypothesisViolation("output grid", where)])

    trajs = _lane_march(vcfgs, strides)
    ref = run_limit(vcfg, dt_out, n_out)
    sgrid, _, _ = build_grids(vcfg)
    errors = [dg.convergence_error(tr, ref.trajectory, dt_out, sgrid) for tr in trajs]
    rows = []
    for i, (eps, err) in enumerate(zip(epsilons, errors)):
        order = None
        if i > 0 and errors[i - 1] > 0.0 and err > 0.0:  # a zero error has no log
            order = math.log(errors[i - 1] / err) / math.log(epsilons[i - 1] / eps)
        rows.append(SweepRow(epsilon=eps, error=err, order=order))
    monotone = all(a > b or a == b == 0.0 for a, b in zip(errors[:-1], errors[1:]))
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


def run_coupled(vcfg, diag_stride=1, snapshot_times=(), observers=()):
    """March the fully coupled system.

    snapshot_times are rounded to the step grid; each snapshot stores the
    position curve and the population curve.  observers are called as
    obs(n, state) with the CoupledState at every level, after the built-in
    ones (see march); the step updates that one state in place, so an
    observer copies what it keeps, and its read of u_ring or zeta settles
    the newborn columns a calm step on the birth ring owes (see coupled).
    The truncation threshold gamma2/eps + max ||dS/dt|| + 1 sits strictly
    above the Riccati bound, so the clamp should never engage (it is
    recorded if it does).  A calm stretch of
    the run -- zero velocity, zero load, dS/dt = 0, as after the tear-off
    of run_detachment -- steps on a birth ring in O(nx) a step where every
    live cohort decays at the unstretched rate (see coupled).  Every
    diag_stride levels a record is formed, on two work buffers that exist
    only where diag_stride > 0; its p above the Riccati bound gamma2 is a
    soft flag, and a record whose energy, dissipation, stability or p is
    not finite ends the run (NonfiniteValue).
    """
    sgrid, agrid, ts, inputs, rho, z, hist = _start(vcfg)
    rate, eps = vcfg.rate_model, vcfg.epsilon
    u = dg.elongation_from_history(z, hist, eps, np.empty_like(rho))
    u[[0, -1]] = 0.0  # the Dirichlet rows stay unstretched
    # age order at the history's head 0 is the cohort ring; the state holds the level-0 zeta alone
    state = cp.CoupledState(rho=rho, u=u, z=z, g=None, hist=hist, t=0.0, truncation_k=None, agrid=agrid,
                            mu0=rho @ agrid.w, zeta=rate.zeta_of_u(u))
    dSdt = None if inputs.steady else inputs.ddt(0.0)  # a steady load's dS/dt is 0: no term to add
    # the velocity's lanes and the Riccati bound's pass borrow load and surv, which the first step writes first
    state.g = cp.solve_velocity(rho, state.mu0, u, state.zeta, dSdt, inputs.balance, agrid.w, load=state.load)
    gamma2, dS_norm = cp.riccati_bound(rho, u, state.zeta, inputs, vcfg.final_time, sgrid, agrid.w,
                                       (state.surv, state.load))
    state.truncation_k = gamma2 / eps + dS_norm + 1.0
    # the records' buffers, reused by each
    work = (np.empty_like(rho), np.empty_like(rho)) if diag_stride else None

    def step(n, st):
        return cp.coupled_step(st, inputs, agrid)

    guard = _Guard()

    def check(n, st):  # mu0 over the interior rows; a calm step keeps g, checked at the level before
        if not (np.isfinite(st.z).all() and (st.calm or np.isfinite(st.g).all())):
            raise NonfiniteValue(f"non-finite z/g at t={st.t:g}")
        guard(n, st.t, float(st.mu0[1:-1].min()), float(st.mu0.max()))

    # several requested times may round to one level
    level_of = {t_req: int(round(t_req / ts.dt)) for t_req in snapshot_times}
    levels = set(level_of.values())
    snapshots, soft_flags, records = {}, [], []
    u_min, ever_truncated = math.inf, False

    def track(n, st):
        nonlocal u_min, ever_truncated
        if not st.calm:  # a calm step writes only newborn zeros, and u_min <= 0 from level 0 on
            u_min = min(u_min, float(st.u_ring.min()))
        ever_truncated = ever_truncated or st.truncated
        if n in levels:
            snapshots.update({t_req: (st.z.copy(), st.mu0.copy()) for t_req, m in level_of.items() if m == n})

    def record(n, st):
        if n % diag_stride:
            return
        w = cohort_weights(agrid.w, st.hist.head)
        rec = dg.record(
            st.t, st.z, st.rho_ring, st.u_ring, st.zeta, inputs.load(st.t), eps, sgrid, w, work,
            mu0_min=float(np.min(st.mu0[1:-1])),
            mu0_max=float(np.max(st.mu0)),
            gamma2=gamma2,
            truncated=st.truncated,
        )
        _check_record(rec)
        records.append(rec)
        soft_flags.extend(_riccati_flags([(st.t, rec.p)], gamma2))

    state = march(state, step, ts.n_steps, [check, track, *([record] if diag_stride else []), *observers])

    # the initial population is given data (validate_config warns when it
    # vanishes); extinction is the dynamics driving it to zero
    if rate.beta_kind == "given" and rate.beta_m > 0.0 and guard.stepped_min <= 0.0:
        soft_flags.append(f"extinction: min mu0 = {guard.stepped_min:.6g} despite beta_m > 0")
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


def _check_record(rec):
    """NonfiniteValue, naming t, for a record whose energy, dissipation, stability or p is not finite."""
    bad = [name for name in ("energy", "dissipation", "stability", "p") if not math.isfinite(getattr(rec, name))]
    if bad:
        raise NonfiniteValue(f"non-finite {'/'.join(bad)} at t={rec.t:g}")


def _riccati_flags(monitor, gamma2):
    """The soft flags of the monitored (t, p) pairs whose p is above the Riccati bound gamma2, in their order."""
    return [
        f"riccati monitor: p={p:.6g} > gamma2={gamma2:.6g} at t={t:g}" for t, p in monitor if p > gamma2 * (1.0 + 1e-9)
    ]


MU0_PLOT_FLOOR = 1e-8  # log-scale clip for population plot data

DETACHMENT_TIMES = (1e-4, 2e-4, 3e-4)


def run_detachment(vcfg):
    """Tear-off experiment: threshold on-rate, large constant load.

    Returns the coupled run result plus the final-time region split
    (flanks where the on-rate is live, the detached middle where it is not);
    regions are taken over interior nodes.  A final time before the last
    snapshot time is a ConfigError, raised before the run.  No record is
    formed (res.records is empty): every 10 levels an observer forms only
    the Riccati monitor p (coupled.riccati_p, 0 with no pass once quiet),
    and its flags are those run_coupled would give with diag_stride=10.
    """
    if vcfg.final_time < max(DETACHMENT_TIMES):
        where = f"final_time={vcfg.final_time:g} < {max(DETACHMENT_TIMES):g}"
        raise ConfigError([HypothesisViolation("detachment snapshot times", where)])
    sgrid, agrid, _ = build_grids(vcfg)
    monitor = []

    def riccati(n, st):
        if n % 10 == 0:  # the levels of run_coupled's records at diag_stride=10
            monitor.append((st.t, cp.riccati_p(st, sgrid, agrid)))

    res = run_coupled(vcfg, diag_stride=0, snapshot_times=DETACHMENT_TIMES + (vcfg.final_time,), observers=[riccati])
    # the flag condition does not depend on time order: the riccati flags come first, as run_coupled's records give them
    res.soft_flags[:0] = _riccati_flags(monitor, res.gamma2)
    z_final = res.final.z
    beta_final = vcfg.rate_model.beta_values(sgrid.x, res.final.t, z=z_final)
    interior = np.zeros(z_final.size, dtype=bool)
    interior[1:-1] = True
    res.flank_mask = interior & (beta_final > 0.0)
    res.dead_mask = interior & (beta_final == 0.0)
    return res


def _fmt(v):
    """17 significant digits; the writers' "%.17g" templates give the same string for a float."""
    return format(float(v), ".17g")


def write_grid_csv(path, header, rows, cols, values):
    """Rows (r, c, values[i, j]) for every r = rows[i] and c = cols[j]; c is formatted once a file, r once a row.

    header names the three columns: "t,x,z" for a trajectory, "x,a,rho" for a density snapshot.
    """
    cells = [f"{_fmt(c)},%.17g\n" for c in cols]
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        for r, row in zip(rows, np.asarray(values, dtype=float).tolist()):
            lead = _fmt(r) + ","
            f.write("".join([lead + cell % v for cell, v in zip(cells, row)]))


def write_diagnostics_csv(path, records):
    """Fixed-order diagnostics columns, 17 significant digits."""
    names = [f.name for f in fields(dg.DiagnosticsRecord)]
    with open(path, "w", newline="\n") as f:
        f.write(",".join(names) + "\n")
        for rec in records:
            f.write(",".join(_fmt(getattr(rec, name)) for name in names) + "\n")


def write_profile_columns(path, x, labelled_columns):
    """Gnuplot-style columnar text: '# x <labels...>' then one row per node."""
    labels = list(labelled_columns)
    cols = [np.asarray(labelled_columns[k], dtype=float).tolist() for k in labels]
    line = " ".join(["%.17g"] * (1 + len(cols))) + "\n"
    with open(path, "w", newline="\n") as f:
        f.write("# x " + " ".join(labels) + "\n")
        f.write("".join([line % row for row in zip(np.asarray(x, dtype=float).tolist(), *cols)]))


def write_sweep_csv(path, sweep):
    with open(path, "w", newline="\n") as f:
        f.write("epsilon,l2_error,order\n")
        for row in sweep.rows:
            order = "" if row.order is None else _fmt(row.order)
            f.write(f"{_fmt(row.epsilon)},{_fmt(row.error)},{order}\n")
