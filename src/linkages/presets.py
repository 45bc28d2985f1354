"""Named analytic presets used by configuration files and experiment defaults.

A preset spec is a string like ``sin_pi``, ``constant(0.5)`` or
``exp_decay(2)``.  Every preset resolves to a numpy-vectorized callable:

* past data, sources and given on-rates take ``(x, t)``,
* initial densities and given off-rates take ``(x, a)`` resp. ``(x, a, t)``,
* elongation-dependent off-rates take ``u``.

Given rates and sources are a frozen Preset with its ``spec`` and
``time_invariant`` (false for the presets with a time derivative,
``linear_in_t`` and ``sin_pi_growing``).  run_weak and run_limit sample a
rate that ignores t once, and config.SourceModel a load that ignores t
once per grid; each treats a plain callable as time-varying.

``threshold(zbar)`` is not a preset: with ``beta_kind = threshold`` the
config loader reads zbar from it, and RateModel.beta_values switches the
on-rate on the z field.
"""

import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_CALL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(([^)]*)\))?\s*$")


def parse_spec(spec):
    """Split ``"name(a, b)"`` into ``("name", [a, b])`` with float args."""
    m = _CALL_RE.match(spec)
    if m is None:
        raise ValueError(f"malformed preset spec: {spec!r}")
    name, argstr = m.group(1), m.group(2)
    args = []
    if argstr and argstr.strip():
        args = [float(tok) for tok in argstr.split(",")]
    return name, args


@dataclass(frozen=True)
class Preset:
    """A named given rate or load: calls fn, and says whether its value ignores t."""

    spec: str
    fn: Callable = field(repr=False, compare=False)
    time_invariant: bool

    def __call__(self, *args):
        return self.fn(*args)


def is_time_invariant(fn):
    """True for a rate or load that declares it ignores t; a plain callable does not."""
    return getattr(fn, "time_invariant", False)


def _zero(x, t):
    return np.zeros_like(np.asarray(x, dtype=float))


def _xt(spec, kind):
    """(f(x, t), df/dt) of a preset, df/dt None where f ignores t."""
    name, args = parse_spec(spec)
    if name == "zero":
        return _zero, None
    if name == "constant":
        (c,) = args or (0.0,)
        return lambda x, t: np.full_like(np.asarray(x, dtype=float), c), None
    if name == "sin_pi":
        # sin(pi x)/pi, frozen in time; vanishes at both ends of (0,1)
        return lambda x, t: np.sin(np.pi * np.asarray(x, dtype=float)) / np.pi, None
    if name == "sin_pi_growing":
        (c,) = args or (1.0,)
        return (
            lambda x, t: np.sin(np.pi * np.asarray(x, dtype=float)) / np.pi * (1.0 + c * t),
            lambda x, t: c * np.sin(np.pi * np.asarray(x, dtype=float)) / np.pi,
        )
    if name == "sin_forcing":
        # pi^2 sin(pi x): the load whose steady Poisson solution is sin(pi x)
        return lambda x, t: np.pi ** 2 * np.sin(np.pi * np.asarray(x, dtype=float)), None
    if name == "linear_in_t":
        c0, c1 = (args + [0.0, 0.0])[:2]
        return (
            lambda x, t: np.full_like(np.asarray(x, dtype=float), c0 + c1 * t),
            lambda x, t: np.full_like(np.asarray(x, dtype=float), c1),
        )
    raise ValueError(f"unknown {kind} preset: {name!r}")


def past_data_fn(spec):
    """Position history z_p(x, t) for t <= 0."""
    return _xt(spec, "past-data")[0]


def past_lipschitz_fn(spec):
    """Pointwise-in-x Lipschitz constant of z_p in time."""
    name, args = parse_spec(spec)
    if name == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if name == "constant":
        (c,) = args or (0.0,)
        return lambda x: np.full_like(np.asarray(x, dtype=float), c)
    if name == "sin_pi":
        # matches sin_pi_growing(c): |d/dt z_p| = c |sin(pi x)|/pi
        (c,) = args or (1.0,)
        return lambda x: c * np.abs(np.sin(np.pi * np.asarray(x, dtype=float))) / np.pi
    raise ValueError(f"unknown lipschitz preset: {name!r}")


def source_fns(spec):
    """Source S(x, t) as a Preset, and its time derivative (zero where S ignores t)."""
    fn, dfn = _xt(spec, "source")
    return Preset(spec, fn, dfn is None), dfn or _zero


def initial_density_fn(spec):
    """Initial age distribution rho_I(x, a)."""
    name, args = parse_spec(spec)
    if name == "zero":
        return lambda x, a: np.zeros(np.broadcast(x, a).shape)
    if name == "constant":
        (c,) = args or (0.0,)
        return lambda x, a: np.full(np.broadcast(x, a).shape, c)
    if name == "exp_decay":
        (c,) = args or (1.0,)
        return lambda x, a: c * np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float))
    raise ValueError(f"unknown initial-density preset: {name!r}")


def given_zeta_fn(spec):
    """Prescribed off-rate zeta(x, a, t) for the weakly coupled problem; none depends on t."""
    name, args = parse_spec(spec)
    if name == "constant":
        (c,) = args or (1.0,)
        return Preset(spec, lambda x, a, t: np.full(np.broadcast(x, a).shape, c), True)
    if name == "one_plus_age_ramp":
        # 1 + c * a/(1+a) * (1+sin(pi x))/2: bounded in [1, 1+c], varies in x and a
        (c,) = args or (0.5,)

        def fn(x, a, t):
            x = np.asarray(x, dtype=float)
            a = np.asarray(a, dtype=float)
            return 1.0 + c * (a / (1.0 + a)) * (1.0 + np.sin(np.pi * x)) / 2.0

        return Preset(spec, fn, True)
    raise ValueError(f"unknown off-rate preset: {name!r}")


def given_beta_fn(spec):
    """Prescribed on-rate beta(x, t)."""
    fn, dfn = _xt(spec, "on-rate")
    return Preset(spec, fn, dfn is None)


def lipschitz_zeta_fn(spec):
    """Elongation-dependent off-rate zeta(u) for the fully coupled problem."""
    name, args = parse_spec(spec)
    if name == "one_plus_abs":
        return lambda u: 1.0 + np.abs(u)
    if name == "affine_abs":
        c0, c1 = (args + [1.0, 1.0])[:2]
        return lambda u: c0 + c1 * np.abs(u)
    raise ValueError(f"unknown coupled off-rate preset: {name!r}")
