"""Simulation configuration: data model, hypothesis validation, file loading.

The external format is an INI file whose keys mirror the configuration
fields; analytic ingredients are named presets (see presets.py)::

    [simulation]
    epsilon = 0.05
    final_time = 0.5
    nx = 64
    da = 0.01
    a_max = 10

    [rate_model]
    zeta_kind = given        ; given | lipschitz
    zeta = constant(1.0)
    zeta_m = 1.0
    zeta_M = 1.0
    beta_kind = given        ; given | threshold
    beta = constant(1.0)
    beta_m = 1.0
    beta_M = 1.0

    [past_data]
    z_p = sin_pi
    lipschitz_constant = zero

    [initial_density]
    rho_I = exp_decay

    [source]                 ; optional: the external load
    S = constant(10000.0)

Validation samples every hypothesis on the actual grids and raises one
ConfigError listing all violations; soft conditions only warn.  A run
reads its given data (on-rate, load, dS/dt) through Inputs.
"""

import configparser
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import elliptic, presets
from .errors import ConfigError, HypothesisViolation, RateKindMismatch
from .grids import AgeGrid, SpaceGrid

try:  # the host's physical memory, the bound on one age field
    MEMORY_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
except (AttributeError, ValueError, OSError):  # no sysconf: the largest array numpy can index
    MEMORY_BYTES = sys.maxsize


@dataclass
class RateModel:
    """Off-rate zeta and on-rate beta with their bounds.

    zeta_kind "given" means a prescribed function of (x, a, t) (weakly
    coupled); "lipschitz" means a function of the elongation u (fully
    coupled), default 1 + |u|.  beta_kind "given" is a prescribed function
    of (x, t); "threshold" switches to 1 on {0 < z < zbar} and 0 elsewhere.
    """

    zeta_kind: str = "given"
    beta_kind: str = "given"
    zeta: Optional[Callable] = None
    zeta_m: float = 1.0
    zeta_M: float = 1.0
    zeta_lip: float = 1.0
    beta: Optional[Callable] = None
    beta_m: float = 1.0
    beta_M: float = 1.0
    zbar: float = 1000.0

    def __post_init__(self):
        if self.zeta is None:
            if self.zeta_kind == "given":
                self.zeta = presets.given_zeta_fn("constant(1.0)")
            else:
                self.zeta = presets.lipschitz_zeta_fn("one_plus_abs")
        if self.beta is None and self.beta_kind == "given":
            self.beta = presets.given_beta_fn("constant(1.0)")

    def zeta_field(self, x, a, t):
        """Prescribed off-rate sampled on the (x, a) grid at time t."""
        if self.zeta_kind != "given":
            raise RateKindMismatch(f"zeta_field needs a prescribed off-rate, not {self.zeta_kind!r}")
        return np.asarray(self.zeta(x[:, None], a[None, :], t), dtype=float)

    def zeta_of_u(self, u):
        """Elongation-dependent off-rate, elementwise on a u field."""
        if self.zeta_kind != "lipschitz":
            raise RateKindMismatch(f"zeta_of_u needs an elongation-dependent rate, not {self.zeta_kind!r}")
        return np.asarray(self.zeta(u), dtype=float)

    def beta_values(self, x, t, z=None):
        """On-rate per space node; threshold kind switches on the z field."""
        if self.beta_kind == "given":
            return np.asarray(self.beta(x, t), dtype=float)
        z = np.asarray(z, dtype=float)
        return ((z > 0.0) & (z < self.zbar)).astype(float)


@dataclass
class PastData:
    """Position history z_p(x, t) for t <= 0 and its in-time Lipschitz field."""

    fn: Callable
    lipschitz: Optional[Callable] = None

    def __post_init__(self):
        if self.lipschitz is None:
            self.lipschitz = presets.past_lipschitz_fn("zero")

    def __call__(self, x, t):
        return np.asarray(self.fn(x, t), dtype=float)


@dataclass
class SourceModel:
    """External load S(x, t) together with its time derivative.

    time_invariant says that fn declares it ignores t
    (presets.is_time_invariant, as a source_fns preset without a time
    derivative does; a plain callable does not): Inputs then samples it
    once a run, and validation asks its dS/dt to be 0.
    """

    fn: Callable
    dfn: Callable

    def __post_init__(self):
        self.time_invariant = presets.is_time_invariant(self.fn)

    def __call__(self, x, t):
        return np.asarray(self.fn(x, t), dtype=float)

    def ddt(self, x, t):
        return np.asarray(self.dfn(x, t), dtype=float)


def _read_only(values):
    """A read-only copy of values, which no caller's array can alias."""
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


class Inputs:
    """The given data of a run on its grids: the on-rate, the load S and dS/dt at each level.

    Built once per run, eps its scale, or once per kinetics.Rows set, eps a
    column of scales (shape (rows, 1)) and t a list of times, one per row.
    balance is the run's elliptic.Operator, kappa = eps, which every
    position and velocity solve of the run goes through.
    at(t, z) is a step's read, (beta, 1 + beta*w0, eps*S on the full
    grid), the last None without a load; a threshold on-rate reads z.
    rates(t) is its first two, load(t) S on every node and ddt(t) dS/dt,
    which only a coupled run reads.  Data that ignore t
    (presets.is_time_invariant) are formed at t = 0 and every read hands
    back those read-only arrays; steady says that dS/dt is 0 at every t,
    as validation checks for such a load.
    """

    def __init__(self, rate, source, eps, sgrid, agrid):
        self.rate, self.source, self.eps, self.x, self.w0 = rate, source, eps, sgrid.x, agrid.w[0]
        self.steady = source is None or source.time_invariant
        self.balance = elliptic.Operator(eps, sgrid)
        self._rates = tuple(map(_read_only, self._form_rates(0.0))) if presets.is_time_invariant(rate.beta) else None
        self._S = self._dS = self._eps_S = None
        if source is not None and source.time_invariant:
            self._S, self._dS = _read_only(source(self.x, 0.0)), _read_only(source.ddt(self.x, 0.0))
            self._eps_S = _read_only(eps * self._S)

    def at(self, t, z=None):
        beta, den = self._rates or self._form_rates(t, z)
        return beta, den, self._eps_S if self.steady else self.eps * self.load(t)

    def rates(self, t):
        return self._rates or self._form_rates(t)

    def _form_rates(self, t, z=None):
        beta = self._rows(self.rate.beta_values, t) if isinstance(t, list) else self.rate.beta_values(self.x, t, z)
        return beta, 1.0 + beta * self.w0

    def load(self, t):
        if self.steady:
            return self._S
        return self._rows(self.source, t) if isinstance(t, list) else self.source(self.x, t)

    def ddt(self, t):
        return self._dS if self.steady else self.source.ddt(self.x, t)

    def _rows(self, fn, ts):
        """fn(x, t) at each t of ts, one row each."""
        return np.stack([np.broadcast_to(fn(self.x, t), self.x.shape) for t in ts])


@dataclass(frozen=True)
class SimulationConfig:
    epsilon: float
    final_time: float
    nx: int
    da: float
    rate_model: RateModel
    past_data: PastData
    initial_density: Callable
    a_max: float = 10.0
    source: Optional[SourceModel] = None

    @property
    def dt(self):
        return self.epsilon * self.da


def validate_config(config):
    """Check the modelling hypotheses on the actual grids.

    Returns the configuration itself, or raises ConfigError carrying one
    HypothesisViolation per failed check.  Conditions the theory merely
    prefers (strictly positive initial population, beta_m > 0 with an
    elongation-dependent off-rate) produce warnings instead.  A grid whose
    (nx+2) x (na+1) age field would not fit in the host's memory is
    refused before any grid is built.
    """
    bad = []

    def violated(name, location=""):
        bad.append(HypothesisViolation(name, location))

    for name in ("epsilon", "final_time", "da", "a_max"):
        value = getattr(config, name)
        if not math.isfinite(value):
            violated("scale finiteness", name)
        elif value <= 0:
            violated("scale positivity", name)
    if config.nx < 1:
        violated("scale positivity", "nx")
    # inf is a legal bound (zeta_M = inf for zeta(u)); NaN never is
    for name in ("zeta_m", "zeta_M", "zeta_lip", "beta_m", "beta_M", "zbar"):
        if math.isnan(getattr(config.rate_model, name)):
            violated("rate scalar is NaN", name)
    if bad:
        raise ConfigError(bad)

    # dt may underflow to 0 or a denormal; beyond 2**53 steps n*dt and the
    # divisibility check below are no longer exact, and the run never ends
    dt = config.epsilon * config.da
    if not (dt > 0 and config.final_time / dt <= 2**53):
        raise ConfigError([HypothesisViolation("time step range", f"dt = epsilon*da = {dt:g}")])

    # one (nx+2) x (na+1) age field must fit in memory, checked before the
    # grids are built (a run holds several fields); this also keeps a_max/da
    # finite for the divisibility check below
    try:
        values = (config.nx + 2) * (config.a_max / config.da + 1.0)
    except OverflowError:  # an nx past the float range
        values = math.inf
    if 8.0 * values > MEMORY_BYTES:
        where = f"(nx+2) x (na+1) = {values:.3g} values in one age field, more than {MEMORY_BYTES:.3g} B of memory hold"
        raise ConfigError([HypothesisViolation("grid size", where)])

    if abs(round(config.a_max / config.da) * config.da - config.a_max) > 1e-9 * config.a_max:
        violated("age grid divisibility", f"a_max={config.a_max}, da={config.da}")
    if abs(round(config.final_time / dt) * dt - config.final_time) > 1e-9 * max(config.final_time, 1.0):
        violated("final time divisibility", f"T={config.final_time}, dt={dt}")
    if bad:
        raise ConfigError(bad)

    sgrid = SpaceGrid(nx=config.nx)
    agrid = AgeGrid(da=config.da, a_max=config.a_max)
    x, a = sgrid.x, agrid.a
    rate = config.rate_model
    t_samples = np.linspace(0.0, config.final_time, 5)

    # initial density: positivity, saturation < 1, finite moments
    rho_I = np.asarray(config.initial_density(x[:, None], a[None, :]), dtype=float)
    if not np.all(np.isfinite(rho_I)):
        violated("initial density finiteness", "rho_I")
    else:
        if np.min(rho_I) < 0:
            violated("initial density positivity", f"min={np.min(rho_I):g}")
        mu0 = rho_I @ agrid.w
        if np.max(mu0) >= 1.0:
            violated("total initial population", f"max int rho_I da = {np.max(mu0):.6g} >= 1")
        if np.min(mu0) <= 0.0:
            warnings.warn("initial bond population vanishes somewhere", stacklevel=2)
        for k in (1, 2):
            if not np.all(np.isfinite((rho_I * agrid.a[None, :] ** k) @ agrid.w)):
                violated("initial moments finite", f"mu_{k},I")

    # off-rate bounds; the comparisons are false for NaN, so finiteness first
    if rate.zeta_m <= 0:
        violated("off-rate lower bound", "zeta_m")
    if rate.zeta_kind == "given":
        # an off-rate that ignores t is sampled once, as _WeakRun samples it
        for t in t_samples[:1] if presets.is_time_invariant(rate.zeta) else t_samples:
            zval = rate.zeta_field(x, a, t)
            if not np.all(np.isfinite(zval)):
                violated("off-rate finiteness", f"t={t:g}")
                break
            if np.min(zval) < rate.zeta_m - 1e-12 or np.max(zval) > rate.zeta_M + 1e-12:
                violated("off-rate bounds", f"t={t:g}")
                break
    elif rate.zeta_kind == "lipschitz":
        u_samples = np.linspace(-50.0, 50.0, 201)
        zu = rate.zeta_of_u(u_samples)
        if not np.all(np.isfinite(zu)):
            violated("off-rate finiteness", "zeta(u)")
        else:
            if np.min(zu) < rate.zeta_m - 1e-12:
                violated("off-rate lower bound", "zeta(u) < zeta_m")
            slopes = np.abs(np.diff(zu) / np.diff(u_samples))
            if np.max(slopes) > rate.zeta_lip * (1 + 1e-9):
                violated("off-rate lipschitz", f"slope {np.max(slopes):g} > {rate.zeta_lip:g}")
    else:
        violated("rate model kind", rate.zeta_kind)

    # on-rate
    if rate.beta_kind == "given":
        if rate.beta_m <= 0:
            if rate.zeta_kind == "lipschitz":
                warnings.warn(
                    "beta_m = 0 with zeta(u): the no-extinction result needs "
                    "a positive on-rate floor",
                    stacklevel=2,
                )
            else:
                violated("on-rate lower bound", "beta_m")
        for t in t_samples:
            bval = rate.beta_values(x, t)
            if not np.all(np.isfinite(bval)):
                violated("on-rate finiteness", f"t={t:g}")
                break
            if np.min(bval) < max(rate.beta_m, 0.0) - 1e-12 or np.max(bval) > rate.beta_M + 1e-12:
                violated("on-rate bounds", f"t={t:g}")
                break
            if np.min(bval) < 0:
                violated("on-rate positivity", f"t={t:g}")
                break
    elif rate.beta_kind == "threshold":
        if rate.zeta_kind != "lipschitz":
            violated("rate model kind", "threshold on-rate needs an elongation-dependent off-rate")
        if rate.zbar <= 0:
            violated("threshold positivity", "zbar")
        warnings.warn(
            "threshold on-rate vanishes where z leaves (0, zbar); the "
            "no-extinction hypothesis does not apply",
            stacklevel=2,
        )
    else:
        violated("rate model kind", rate.beta_kind)

    # past data: boundary values and Lipschitz continuity in time
    past = config.past_data
    t_past = -np.linspace(0.0, config.epsilon * config.a_max, 7)
    for t in t_past:
        zp = past(x, t)
        if abs(zp[0]) > 1e-12 or abs(zp[-1]) > 1e-12:
            violated("past data boundary", f"t={t:g}")
            break
    c_zp = np.asarray(past.lipschitz(x), dtype=float)
    for t1, t2 in zip(t_past[:-1], t_past[1:]):
        gap = np.abs(past(x, t2) - past(x, t1))
        if np.any(gap > c_zp * abs(t2 - t1) + 1e-10):
            violated("past data lipschitz", f"[{t2:g}, {t1:g}]")
            break

    # source: finite at every sample time, as the comparisons below are
    # false for NaN; then dS/dt against a centered difference, O(dt)
    # tolerance, and exactly 0 for a load that ignores t, as the coupled
    # step's calm test takes it to be
    if config.source is not None:
        src = config.source
        h = dt
        for t in t_samples:
            if not (np.all(np.isfinite(src(x, t))) and np.all(np.isfinite(src.ddt(x, t)))):
                violated("source finiteness", f"t={t:g}")
                break
        else:
            for t in t_samples[1:]:
                fd = (src(x, t + h) - src(x, t - h)) / (2 * h)
                scale = max(float(np.max(np.abs(src.ddt(x, t)))), 1.0)
                if np.max(np.abs(fd - src.ddt(x, t))) > 10.0 * h * scale + 1e-8 or (
                    src.time_invariant and np.any(src.ddt(x, t))
                ):
                    violated("source consistency", f"t={t:g}")
                    break

    if bad:
        raise ConfigError(bad)
    return config


def with_overrides(vcfg, **kwargs):
    """Copy a validated configuration with some fields replaced (revalidates)."""
    return validate_config(replace(vcfg, **kwargs))


def load_config(path):
    """Parse an INI configuration file into a SimulationConfig (unvalidated).

    Only the keys the file has are passed on, so every other field takes
    its dataclass default.  A file that configparser cannot parse or that
    does not decode is a ConfigError too.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # zeta_m and zeta_M must stay distinct
    try:
        if not parser.read(path):
            raise ConfigError([HypothesisViolation("unreadable config file", str(path))])
        if not parser.has_section("simulation"):
            raise ConfigError([HypothesisViolation("missing [simulation] section", str(path))])
        sim = parser["simulation"]

        rm = parser["rate_model"] if parser.has_section("rate_model") else {}
        rate = {k: rm[k] for k in ("zeta_kind", "beta_kind") if k in rm}
        rate.update((k, float(rm[k])) for k in ("zeta_m", "zeta_M", "zeta_lip", "beta_m", "beta_M") if k in rm)
        beta_kind = rate.get("beta_kind", RateModel.beta_kind)
        if "zeta" in rm:
            given = rate.get("zeta_kind", RateModel.zeta_kind) == "given"
            rate["zeta"] = (presets.given_zeta_fn if given else presets.lipschitz_zeta_fn)(rm["zeta"])
        if beta_kind == "given" and "beta" in rm:
            rate["beta"] = presets.given_beta_fn(rm["beta"])
        elif beta_kind == "threshold":
            spec = rm.get("beta", "threshold")
            name, args = presets.parse_spec(spec)
            if name != "threshold" or len(args) > 1:
                where = f"beta = {spec} with beta_kind = threshold; expected threshold or threshold(zbar)"
                raise ConfigError([HypothesisViolation("rate model kind", where)])
            if args:
                rate["zbar"] = args[0]

        pd = parser["past_data"] if parser.has_section("past_data") else {}
        past = {"lipschitz": presets.past_lipschitz_fn(pd["lipschitz_constant"])} if "lipschitz_constant" in pd else {}
        scales = {"a_max": float(sim["a_max"])} if "a_max" in sim else {}

        dens = parser["initial_density"] if parser.has_section("initial_density") else {}
        rho_I = presets.initial_density_fn(dens.get("rho_I", "exp_decay"))

        source = None
        if parser.has_section("source"):
            source = SourceModel(*presets.source_fns(parser["source"].get("S", "constant(0.0)")))

        return SimulationConfig(
            epsilon=float(sim.get("epsilon")),
            final_time=float(sim.get("final_time")),
            nx=int(sim.get("nx")),
            da=float(sim.get("da")),
            rate_model=RateModel(**rate),
            past_data=PastData(fn=presets.past_data_fn(pd.get("z_p", "zero")), **past),
            initial_density=rho_I,
            source=source,
            **scales,
        )
    except (configparser.Error, KeyError, TypeError, ValueError) as exc:
        raise ConfigError([HypothesisViolation("malformed config", str(exc))]) from exc
