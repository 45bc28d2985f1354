"""Property tests over random small configurations.

Every level of a weak run on a valid configuration keeps rho >= 0,
mu0 < 1 and a finite position, whatever the grid, the off-rate and the
load; validation either accepts a configuration or raises ConfigError.
The constant and ramp off-rates are presets, which run_weak steps on
birth values; the time-dependent one takes the density shift, and so does
a preset wrapped in a plain callable, against which the birth-ring path is
checked.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from linkages import presets
from linkages.config import PastData, RateModel, SimulationConfig, SourceModel, validate_config
from linkages.errors import ConfigError
from linkages.simulate import run_weak

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def off_rate(kind, c):
    """(zeta, zeta_M) for a constant, an age ramp or a time-dependent rate."""
    if kind == "constant":
        return presets.given_zeta_fn(f"constant({c})"), c
    if kind == "ramp":
        return presets.given_zeta_fn(f"one_plus_age_ramp({c})"), 1.0 + c
    # grows with t, so it changes at every step; final times stay <= 1.5
    ramp = presets.given_zeta_fn(f"one_plus_age_ramp({c})")
    return (lambda x, a, t: ramp(x, a, t) + t), 2.5 + c


def weak_config(kind, c, da, na, epsilon, steps, nx, decay, load):
    zeta, zeta_M = off_rate(kind, c)
    return SimulationConfig(
        epsilon=epsilon,
        final_time=steps * epsilon * da,
        nx=nx,
        da=da,
        a_max=na * da,
        rate_model=RateModel(zeta=zeta, zeta_m=1.0 if kind != "constant" else c, zeta_M=zeta_M),
        past_data=PastData(fn=presets.past_data_fn("sin_pi")),
        initial_density=presets.initial_density_fn(f"exp_decay({decay})"),
        source=SourceModel(*presets.source_fns("sin_forcing")) if load else None,
    )


@st.composite
def configs(draw, scale=st.sampled_from([0.02, 0.05, 0.1, 0.5]), kinds=("constant", "ramp", "time")):
    return weak_config(
        kind=draw(st.sampled_from(kinds)),
        c=draw(st.sampled_from([0.5, 1.0, 2.0])),
        da=draw(st.sampled_from([0.01, 0.05, 0.1])),
        na=draw(st.integers(1, 40)),
        epsilon=draw(scale),
        steps=draw(st.integers(1, 30)),
        nx=draw(st.integers(1, 8)),
        decay=draw(st.sampled_from([0.3, 0.9])),
        load=draw(st.booleans()),
    )


def check_level(n, s):
    assert np.min(s.rho) >= 0.0, f"rho < 0 at level {n}"
    assert np.max(s.mu0) < 1.0, f"mu0 >= 1 at level {n}"
    assert np.all(np.isfinite(s.z)), f"non-finite z at level {n}"


@PROPERTY
@given(configs())
def test_weak_run_keeps_structural_invariants(cfg):
    # diagnostics at every level: without a load, energy and stability must not grow
    res = run_weak(validate_config(cfg), observers=[check_level])
    assert res.ok, res.violations


@PROPERTY
@given(configs(kinds=("constant", "ramp")))
@example(weak_config("ramp", 2.0, 0.1, 1, 0.5, 30, 3, 0.9, True))  # na = 1: one age cell
@example(weak_config("constant", 0.5, 0.05, 40, 0.1, 30, 1, 0.3, False))  # nx = 1: one interior node
def test_birth_ring_path_matches_the_shift_path(cfg):
    paths = []
    ring = run_weak(validate_config(cfg), observers=[lambda n, s: paths.append(s.ring is not None)])
    rate = cfg.rate_model
    plain = replace(rate, zeta=lambda x, a, t: rate.zeta(x, a, t))
    shift = run_weak(validate_config(replace(cfg, rate_model=plain)), observers=[lambda n, s: paths.append(s.ring)])
    assert paths == [True] * len(ring.trajectory) + [None] * len(ring.trajectory)
    for a, b in ((ring.trajectory, shift.trajectory), (ring.final_rho, shift.final_rho)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@PROPERTY
@given(
    configs(scale=st.sampled_from([0.05, 0.0, -0.1, math.nan, math.inf, 1e-160])),
    st.sampled_from([None, 0.0, -1.0, math.nan, 0.0123]),
    st.sampled_from([None, 0, -3]),
)
def test_validation_accepts_or_raises_config_error(cfg, final_time, nx):
    overrides = {k: v for k, v in (("final_time", final_time), ("nx", nx)) if v is not None}
    try:
        validate_config(replace(cfg, **overrides))
    except ConfigError:
        pass
