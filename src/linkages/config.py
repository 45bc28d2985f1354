"""Simulation configuration: data model, hypothesis validation, file loading.

The external format is an INI file whose keys mirror the configuration
fields; analytic ingredients are named presets (see presets.py)::

    [simulation]
    epsilon = 0.05
    final_time = 0.5
    nx = 64
    da = 0.01
    a_max = 10
    mode = weak              ; weak | weak_with_source | limit | coupled

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

    [source]                 ; only in source-carrying modes
    S = constant(10000.0)

Validation samples every hypothesis on the actual grids and raises one
ConfigError listing all violations; soft conditions only warn.
"""

import configparser
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import presets
from .errors import ConfigError, HypothesisViolation, RateKindMismatch
from .grids import AgeGrid, SpaceGrid

MODES = ("weak", "weak_with_source", "limit", "coupled")


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
    zeta_at_zero: float = 1.0
    beta: Optional[Callable] = None
    beta_m: float = 1.0
    beta_M: float = 1.0
    zbar: float = 1000.0

    def __post_init__(self):
        if self.zeta is None:
            if self.zeta_kind == "given":
                self.zeta = lambda x, a, t: np.ones(np.broadcast(x, a).shape)
            else:
                self.zeta = lambda u: 1.0 + np.abs(u)
        if self.beta is None and self.beta_kind == "given":
            self.beta = lambda x, t: np.ones_like(np.asarray(x, dtype=float))

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
        return np.where((z > 0.0) & (z < self.zbar), 1.0, 0.0)


@dataclass
class PastData:
    """Position history z_p(x, t) for t <= 0 and its in-time Lipschitz field."""

    fn: Callable
    lipschitz: Optional[Callable] = None

    def __post_init__(self):
        if self.lipschitz is None:
            self.lipschitz = lambda x: np.zeros_like(np.asarray(x, dtype=float))

    def __call__(self, x, t):
        return np.asarray(self.fn(x, t), dtype=float)


@dataclass
class SourceModel:
    """External load S(x, t) together with its time derivative."""

    fn: Callable
    dfn: Callable

    def __call__(self, x, t):
        return np.asarray(self.fn(x, t), dtype=float)

    def ddt(self, x, t):
        return np.asarray(self.dfn(x, t), dtype=float)


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
    mode: str = "weak"
    source: Optional[SourceModel] = None
    truncation_k: Optional[float] = None

    @property
    def dt(self):
        return self.epsilon * self.da


def validate_config(config):
    """Check the modelling hypotheses on the actual grids.

    Returns the configuration itself, or raises ConfigError carrying one
    HypothesisViolation per failed check.  Conditions the theory merely
    prefers (strictly positive initial population, beta_m > 0 in coupled
    mode) produce warnings instead.
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
    if config.mode not in MODES:
        violated("unknown mode", config.mode)
    # inf is a legal bound (zeta_M = inf in coupled mode); NaN never is
    for name in ("zeta_m", "zeta_M", "zeta_lip", "zeta_at_zero", "beta_m", "beta_M", "zbar"):
        if math.isnan(getattr(config.rate_model, name)):
            violated("rate scalar is NaN", name)
    if bad:
        raise ConfigError(bad)

    dt = config.epsilon * config.da  # may underflow to 0 or a denormal
    if not (dt > 0 and math.isfinite(config.final_time / dt)):
        raise ConfigError([HypothesisViolation("time step range", f"dt = epsilon*da = {dt:g}")])

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

    # off-rate bounds
    if rate.zeta_kind == "given":
        if config.mode == "coupled":
            violated("rate model kind", "coupled mode needs an elongation-dependent off-rate")
        if rate.zeta_m <= 0:
            violated("off-rate lower bound", "zeta_m")
        for t in t_samples:
            zval = rate.zeta_field(x, a, t)
            if np.min(zval) < rate.zeta_m - 1e-12 or np.max(zval) > rate.zeta_M + 1e-12:
                violated("off-rate bounds", f"t={t:g}")
                break
    elif rate.zeta_kind == "lipschitz":
        if config.mode != "coupled":
            violated("rate model kind", f"{config.mode} mode needs a prescribed off-rate")
        else:
            u_samples = np.linspace(-50.0, 50.0, 201)
            zu = rate.zeta_of_u(u_samples)
            if np.min(zu) < rate.zeta_m - 1e-12:
                violated("off-rate lower bound", "zeta(u) < zeta_m")
            slopes = np.abs(np.diff(zu) / np.diff(u_samples))
            if np.max(slopes) > rate.zeta_lip * (1 + 1e-9):
                violated("off-rate lipschitz", f"slope {np.max(slopes):g} > {rate.zeta_lip:g}")
            if abs(float(rate.zeta_of_u(np.zeros(1))[0]) - rate.zeta_at_zero) > 1e-12:
                violated("off-rate at zero", "zeta(0) != zeta_at_zero")
    else:
        violated("rate model kind", rate.zeta_kind)

    # on-rate
    if rate.beta_kind == "given":
        if rate.beta_m <= 0:
            if config.mode == "coupled":
                warnings.warn(
                    "beta_m = 0 in coupled mode: the no-extinction result needs "
                    "a positive on-rate floor",
                    stacklevel=2,
                )
            else:
                violated("on-rate lower bound", "beta_m")
        for t in t_samples:
            bval = rate.beta_values(x, t)
            if np.min(bval) < max(rate.beta_m, 0.0) - 1e-12 or np.max(bval) > rate.beta_M + 1e-12:
                violated("on-rate bounds", f"t={t:g}")
                break
            if np.min(bval) < 0:
                violated("on-rate positivity", f"t={t:g}")
                break
    elif rate.beta_kind == "threshold":
        if config.mode != "coupled":
            violated("rate model kind", "threshold on-rate needs coupled mode")
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

    # source consistency: dS/dt against a centered difference, O(dt) tolerance
    if config.source is not None:
        if config.mode == "weak":
            violated("source in sourceless mode", "mode=weak")
        src = config.source
        h = dt
        for t in t_samples[1:]:
            fd = (src(x, t + h) - src(x, t - h)) / (2 * h)
            scale = max(float(np.max(np.abs(src.ddt(x, t)))), 1.0)
            if np.max(np.abs(fd - src.ddt(x, t))) > 10.0 * h * scale + 1e-8:
                violated("source consistency", f"t={t:g}")
                break
    elif config.mode == "weak_with_source":
        violated("source missing", "mode=weak_with_source")

    if config.truncation_k is not None and not config.truncation_k > 0:
        violated("truncation threshold", "truncation_k")

    if bad:
        raise ConfigError(bad)
    return config


def with_overrides(vcfg, **kwargs):
    """Copy a validated configuration with some fields replaced (revalidates)."""
    return validate_config(replace(vcfg, **kwargs))


def load_config(path):
    """Parse an INI configuration file into a SimulationConfig (unvalidated)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # zeta_m and zeta_M must stay distinct
    read = parser.read(path)
    if not read:
        raise ConfigError([HypothesisViolation("unreadable config file", str(path))])
    if not parser.has_section("simulation"):
        raise ConfigError([HypothesisViolation("missing [simulation] section", str(path))])
    try:
        get = parser["simulation"].get

        rm = parser["rate_model"] if parser.has_section("rate_model") else {}
        zeta_kind = rm.get("zeta_kind", "given")
        if zeta_kind == "given":
            zeta = presets.given_zeta_fn(rm.get("zeta", "constant(1.0)"))
        else:
            zeta = presets.lipschitz_zeta_fn(rm.get("zeta", "one_plus_abs"))
        beta_kind = rm.get("beta_kind", "given")
        beta = None
        zbar = 1000.0
        if beta_kind == "given":
            beta = presets.given_beta_fn(rm.get("beta", "constant(1.0)"))
        else:
            _, args = presets.parse_spec(rm.get("beta", "threshold(1000)"))
            zbar = args[0] if args else 1000.0
        rate = RateModel(
            zeta_kind=zeta_kind,
            beta_kind=beta_kind,
            zeta=zeta,
            zeta_m=float(rm.get("zeta_m", 1.0)),
            zeta_M=float(rm.get("zeta_M", 1.0)),
            zeta_lip=float(rm.get("zeta_lip", 1.0)),
            zeta_at_zero=float(rm.get("zeta_at_zero", 1.0)),
            beta=beta,
            beta_m=float(rm.get("beta_m", 1.0)),
            beta_M=float(rm.get("beta_M", 1.0)),
            zbar=zbar,
        )

        pd = parser["past_data"] if parser.has_section("past_data") else {}
        past = PastData(
            fn=presets.past_data_fn(pd.get("z_p", "zero")),
            lipschitz=presets.past_lipschitz_fn(pd.get("lipschitz_constant", "zero")),
        )

        dens = parser["initial_density"] if parser.has_section("initial_density") else {}
        rho_I = presets.initial_density_fn(dens.get("rho_I", "exp_decay"))

        source = None
        if parser.has_section("source"):
            s_spec = parser["source"].get("S", "constant(0.0)")
            d_spec = parser["source"].get("dS_dt", None)
            fn, dfn = presets.source_fns(s_spec, d_spec)
            source = SourceModel(fn=fn, dfn=dfn)

        trunc = get("truncation_k", None)
        return SimulationConfig(
            epsilon=float(get("epsilon")),
            final_time=float(get("final_time")),
            nx=int(get("nx")),
            da=float(get("da")),
            a_max=float(get("a_max", 10.0)),
            mode=get("mode", "weak"),
            rate_model=rate,
            past_data=past,
            initial_density=rho_I,
            source=source,
            truncation_k=float(trunc) if trunc not in (None, "") else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError([HypothesisViolation("malformed config", str(exc))]) from exc
