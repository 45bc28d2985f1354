"""Property tests over random small configurations.

Every level of a weak run on a valid configuration keeps rho >= 0,
mu0 < 1 and a finite position, whatever the grid, the off-rate and the
load, and every step closes the energy identity of oracles.energy_balance
to round-off; validation either accepts a configuration or raises
ConfigError.
The constant and ramp off-rates are presets, which run_weak steps on
birth values; the time-dependent one steps the density's cohort ring, and
so does a preset wrapped in a plain callable, against which the birth ring
is checked.

Coupled runs check the global-existence picture at every level: rho >= 0,
mu0 < 1, finite z and g, the velocity clamp never engaged, p below the
Riccati bound, u >= 0 for nonnegative data and, without a load, an energy
that does not grow.  The draws include tear-offs (a large load against a
threshold on-rate), where the coupled step turns calm and takes its
shortcuts, and steady runs, where it does not.  Each coupled draw
also matches, level by level, the same run with the birth ring refused,
and every coupled step, on either ring, closes the weak energy identity on
the position-derived stretch and moves the transported stretch bit for bit.
"""

import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from linkages import coupled, presets
from linkages.cli import coupled_config as cli_coupled_config, detachment_config, reference_config, source_config
from linkages.config import PastData, RateModel, SimulationConfig, SourceModel, validate_config
from linkages.errors import ConfigError
from linkages.diagnostics import stretch_integrals
from linkages.grids import build_grids
from linkages.kinetics import BirthRing, CohortRing, cohort_weights, survival
from linkages.simulate import ENERGY_DECAY_TOL, run_coupled, run_weak
from oracles import age_order, energy_balance

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
        nx=draw(st.integers(1, 64)),
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
# a constant off-rate keeps running sums, re-anchored whenever the ring's
# head comes back to 0: these cross two re-anchors (steps > 2*(na+1))
@example(weak_config("constant", 1.0, 0.1, 1, 0.5, 9, 3, 0.9, True))  # na = 1: no running term
@example(weak_config("constant", 2.0, 0.05, 5, 0.1, 20, 4, 0.3, False))
@example(weak_config("constant", 0.5, 0.01, 12, 0.05, 40, 6, 0.9, True))
def test_birth_ring_path_matches_the_shift_path(cfg):
    assert_paths_match(cfg)


def assert_paths_match(cfg, diag_stride=1):
    """run_weak of cfg on the birth ring against the same rate as a plain callable, which takes the cohort ring."""
    paths = []
    ring = run_weak(validate_config(cfg), diag_stride=diag_stride, observers=[lambda n, s: paths.append(type(s.ring))])
    rate = cfg.rate_model
    plain = replace(rate, zeta=lambda x, a, t: rate.zeta(x, a, t))
    shift = run_weak(validate_config(replace(cfg, rate_model=plain)), diag_stride=diag_stride,
                     observers=[lambda n, s: paths.append(type(s.ring))])
    assert paths == [BirthRing] * len(ring.trajectory) + [CohortRing] * len(ring.trajectory)
    for a, b in ((ring.trajectory, shift.trajectory), (ring.final_rho, shift.final_rho)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("c", [0.01, 1e-8])
def test_birth_ring_running_sums_at_full_size(c):
    # the reference grid (nx = 64, na = 1000, 1000 steps) with a small
    # constant off-rate: c = exp(-da*zeta) rounds close to 1, and the running
    # sums go one ring period without a re-anchor
    rate = RateModel(zeta=presets.given_zeta_fn(f"constant({c})"), zeta_m=c, zeta_M=c)
    assert_paths_match(reference_config(rate_model=rate), diag_stride=0)


def assert_energy_balance(vcfg):
    """Close the energy identity of oracles.energy_balance at every step of run_weak(vcfg); return its load terms.

    The load is sampled through a copy of the config's source, which
    leaves the run's own sample alone.
    """
    sgrid, agrid, _ = build_grids(vcfg)
    probe = replace(vcfg.source) if vcfg.source is not None else None
    last, loads = [], []

    def close(n, s):
        level = (s.z.copy(), age_order(s.hist), s.rho.copy(), None if probe is None else probe(sgrid.x, s.t))
        if last:
            lhs, rhs, load, bound = energy_balance(last[0], level, last[1], vcfg.epsilon, sgrid, agrid)
            assert abs(lhs - rhs) <= bound, f"energy identity at level {n}: {lhs!r} against {rhs!r}, bound {bound:.3g}"
            loads.append(load)
        last[:] = [level, survival(s.zeta, agrid)]  # the off-rate at level n gives the survival of the next step

    run_weak(vcfg, diag_stride=0, observers=[close])
    return loads


def assert_load_term(vcfg, loads):
    """A load that ignores t is one sample at every t, so its term of the identity is exactly 0."""
    if vcfg.source is not None and vcfg.source.time_invariant:
        assert loads == [0.0] * len(loads)


RAMP_2 = RateModel(zeta=presets.given_zeta_fn("one_plus_age_ramp(2)"), zeta_M=3.0)
FALLBACK = RateModel(zeta=presets.given_zeta_fn("constant(80)"), zeta_m=80.0, zeta_M=80.0)
GROWING = RateModel(beta=presets.given_beta_fn("linear_in_t(1.0, 2.0)"), beta_M=1.1)
GROWING_OFF = RateModel(zeta=lambda x, a, t: RAMP_2.zeta(x, a, t) + t, zeta_M=3.05)  # a plain callable


@pytest.mark.parametrize("cfg", [
    pytest.param(lambda: reference_config(final_time=0.05), id="reference"),
    pytest.param(lambda: source_config(final_time=0.05), id="weak-source"),
    pytest.param(lambda: reference_config(final_time=0.05, rate_model=RAMP_2), id="one_plus_age_ramp(2)"),
    pytest.param(lambda: reference_config(final_time=0.05, rate_model=FALLBACK), id="constant(80)"),
    pytest.param(lambda: reference_config(epsilon=0.00625, final_time=0.0125), id="eps-0.00625"),
    pytest.param(lambda: reference_config(final_time=0.05, rate_model=GROWING,
                                          source=SourceModel(*presets.source_fns("sin_pi_growing(3)"))),
                 id="linear_in_t-on-rate-sin_pi_growing-load"),
    pytest.param(lambda: source_config(final_time=0.05, rate_model=GROWING_OFF), id="off-rate-growing-in-t"),
])
def test_weak_energy_identity_on_the_presets(cfg):
    # the identity closes at every step of the CLI's weak configs, on both
    # rings and at a fine scale, with rates and loads that depend on t
    vcfg = validate_config(cfg())
    assert_load_term(vcfg, assert_energy_balance(vcfg))


@st.composite
def balance_configs(draw):
    """configs() with an on-rate and a load drawn too, each one constant or growing in t."""
    cfg = draw(configs())
    beta = draw(st.sampled_from(["constant(1.0)", "linear_in_t(1.0, 2.0)"]))
    load = draw(st.sampled_from([None, "sin_forcing", "sin_pi_growing(3.0)", "linear_in_t(1.0, 5.0)"]))
    rate = replace(cfg.rate_model, beta=presets.given_beta_fn(beta), beta_M=4.0)  # 1 + 2t, t <= 1.5
    return replace(cfg, rate_model=rate, source=SourceModel(*presets.source_fns(load)) if load else None)


@PROPERTY
@given(balance_configs())
def test_weak_energy_identity_over_random_configurations(cfg):
    vcfg = validate_config(cfg)
    assert_load_term(vcfg, assert_energy_balance(vcfg))


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


def coupled_config(nx, na, da, epsilon, steps, c0, c1, threshold, load, size, past):
    """A coupled configuration: zeta(u) = c0 + c1 |u|, a given or threshold
    on-rate, and no load, a constant one or one growing in time."""
    rate = RateModel(
        zeta_kind="lipschitz", zeta=presets.lipschitz_zeta_fn(f"affine_abs({c0}, {c1})"),
        zeta_m=c0, zeta_lip=c1, zeta_M=math.inf,
        **(dict(beta_kind="threshold", zbar=1000.0, beta_m=0.0) if threshold else {}),
    )
    spec = {"constant": f"constant({size})", "linear_in_t": f"linear_in_t({size}, {size})",
            "sin_pi_growing": f"sin_pi_growing({size})"}.get(load)
    return SimulationConfig(
        epsilon=epsilon,
        final_time=steps * epsilon * da,
        nx=nx,
        da=da,
        a_max=na * da,
        rate_model=rate,
        past_data=PastData(fn=presets.past_data_fn(past)),
        initial_density=presets.initial_density_fn("exp_decay"),
        source=SourceModel(*presets.source_fns(spec)) if spec else None,
    )


@st.composite
def coupled_configs(draw, steps=st.integers(1, 30)):
    return coupled_config(
        nx=draw(st.integers(2, 16)),
        na=draw(st.integers(1, 60)),
        da=draw(st.sampled_from([0.01, 0.02, 0.1])),
        epsilon=draw(st.sampled_from([1e-3, 0.02, 0.05])),
        steps=draw(steps),
        c0=draw(st.sampled_from([0.5, 1.0, 2.0])),
        c1=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
        threshold=draw(st.booleans()),
        load=draw(st.sampled_from([None, "constant", "linear_in_t", "sin_pi_growing"])),
        size=draw(st.sampled_from([1.0, 1e4])),
        past=draw(st.sampled_from(["zero", "sin_pi"])),
    )


TEAR_OFF = coupled_config(24, 60, 0.01, 1e-3, 30, 1.0, 1.0, True, "constant", 1e4, "sin_pi")
STEADY = coupled_config(8, 50, 0.02, 0.02, 30, 1.0, 1.0, False, "linear_in_t", 1.0, "zero")
# calm from the tear-off at step 1 on, for more than two ring periods of 21
LONG_TEAR_OFF = coupled_config(24, 20, 0.01, 1e-3, 50, 1.0, 1.0, True, "constant", 1e4, "sin_pi")


def validate_quiet(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate_config(cfg)


def run_checked(cfg):
    """run_coupled with diagnostics at every level and the level checks above."""
    vcfg = validate_quiet(cfg)
    u_min0 = []

    def check(n, s):
        assert np.min(s.rho_ring) >= 0.0, f"rho < 0 at level {n}"
        assert np.min(s.mu0) >= 0.0, f"mu0 < 0 at level {n}"  # every row, the Dirichlet rows included
        assert np.max(s.mu0) < 1.0, f"mu0 >= 1 at level {n}"
        assert np.all(np.isfinite(s.z)) and np.all(np.isfinite(s.g)), f"non-finite z or g at level {n}"
        u_min0.append(float(np.min(s.u_ring)))

    return vcfg, run_coupled(vcfg, diag_stride=1, observers=[check]), u_min0


@settings(PROPERTY, max_examples=100)
@given(coupled_configs())
@example(TEAR_OFF)
@example(STEADY)
def test_coupled_run_keeps_structural_invariants(cfg):
    vcfg, res, u_min = run_checked(cfg)
    assert res.ok, res.violations
    assert not res.ever_truncated
    assert not [f for f in res.soft_flags if f.startswith("riccati")], res.soft_flags
    if u_min[0] >= 0.0:  # every load drawn has dS/dt >= 0
        assert min(u_min) >= 0.0
    if vcfg.source is None:
        E = [rec.energy for rec in res.records]
        assert all(b <= a + ENERGY_DECAY_TOL * abs(E[0]) for a, b in zip(E[:-1], E[1:]))


def test_tear_off_draw_takes_the_shortcuts_and_the_steady_one_does_not():
    assert run_checked(TEAR_OFF)[1].final.quiet
    assert not run_checked(STEADY)[1].final.quiet


def coupled_levels(vcfg):
    """z, mu0, rho_ring and coupled.riccati_p of run_coupled(vcfg) at every level, with the ring's type and head.

    On a cohort ring, p must have the bits of the records' stretch pass.
    On a quiet level, either ring, that pass over the built density must
    give exactly 0.0, the p that riccati_p takes there without a pass.
    """
    sgrid, agrid, _ = build_grids(vcfg)
    work = (np.empty((sgrid.n_nodes, agrid.n_nodes)), np.empty((sgrid.n_nodes, agrid.n_nodes)))
    levels = []

    def keep(n, s):
        rho, p = s.rho_ring.copy(), coupled.riccati_p(s, sgrid, agrid)
        w = cohort_weights(agrid.w, s.hist.head)
        if isinstance(s.ring, CohortRing):
            assert p == stretch_integrals(s.rho_ring, s.u_ring, s.zeta, sgrid, w, work)[1], f"p at level {n}"
        if s.quiet:
            assert stretch_integrals(rho, s.u_ring, s.zeta, sgrid, w, work)[1] == 0.0, f"p of quiet level {n}"
        levels.append((s.z.copy(), s.mu0.copy(), rho, p, type(s.ring), s.hist.head))

    run_coupled(vcfg, diag_stride=0, observers=[keep])
    return levels


@settings(PROPERTY, max_examples=100)
@given(coupled_configs(steps=st.integers(1, 130)))
@example(TEAR_OFF)
@example(LONG_TEAR_OFF)
def test_calm_ring_matches_the_cohort_path(cfg):
    # each draw as it is, and with the birth ring refused at every calm
    # step; the steps run up to two ring periods of the longest age grid
    # drawn, so a calm stretch crosses the ring's re-reads at head 0.  The
    # bound is that of the hand-made tear-off tests in test_coupled
    vcfg = validate_quiet(cfg)
    ring = coupled_levels(vcfg)
    with mock.patch.object(coupled, "_take_ring", lambda *args: None):
        cohort = coupled_levels(vcfg)
    assert len(ring) == len(cohort)
    for n, (got, want) in enumerate(zip(ring, cohort)):
        assert want[4] is not BirthRing and got[5] == want[5]
        for name, a, b in zip(("z", "mu0", "rho_ring", "p"), got, want):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13 * np.max(np.abs(b)), err_msg=f"{name} at level {n}")


def balance_observer(vcfg):
    """An observer of run_coupled(vcfg) that checks every step, and the list of its gaps as fractions of the bound.

    Each step closes the energy identity of oracles.energy_balance on the
    position-derived stretch (z - Z)/eps, with its bound unchanged.  The
    factor that carried age k to age k+1 is, on a cohort ring, the survival
    ring in age order after the step and, on the calm birth ring, c in
    every lane.  The stretch moves bit for bit: u at age k+1 of level n+1
    is u at age k of level n plus da times the clamped old velocity, and
    the newborns and the Dirichlet rows stay 0.  Reading u settles the
    columns a calm step on the birth ring owes.  The load is sampled
    through a copy of the config's source.
    """
    sgrid, agrid, _ = build_grids(vcfg)
    probe = replace(vcfg.source) if vcfg.source is not None else None
    last, gaps = [], []

    def close(n, s):
        level = (s.z.copy(), age_order(s.hist), s.rho, None if probe is None else probe(sgrid.x, s.t))
        u = s.u
        if last:
            before, u0, g0 = last
            if isinstance(s.ring, BirthRing):
                surv = np.broadcast_to(s.ring.c[:, None], (1, agrid.n_nodes - 1))
            else:
                surv = np.roll(s.surv, -s.hist.head, axis=1)[:, 1:]
            lhs, rhs, _, bound = energy_balance(before, level, surv, vcfg.epsilon, sgrid, agrid)
            assert abs(lhs - rhs) <= bound, f"energy identity at level {n}: {lhs!r} against {rhs!r}, bound {bound:.3g}"
            gaps.append(abs(lhs - rhs) / bound if bound else 0.0)
            moved = u0[:, :-1] + agrid.da * np.clip(g0, -s.truncation_k, s.truncation_k)[:, None]
            assert np.array_equal(u[:, 1:].view(np.int64), moved.view(np.int64)), f"stretch transport at level {n}"
            assert not u[:, 0].any() and not u[[0, -1]].any(), f"newborn or Dirichlet stretch at level {n}"
        last[:] = [level, u, s.g.copy()]

    return close, gaps


@settings(PROPERTY, max_examples=100)
@given(coupled_configs(steps=st.integers(1, 130)))
@example(TEAR_OFF)
@example(LONG_TEAR_OFF)
@example(STEADY)
def test_coupled_step_closes_the_energy_identity_and_moves_the_stretch_exactly(cfg):
    # the draws of test_calm_ring_matches_the_cohort_path: tear-offs cross
    # the calm birth ring and its re-reads at head 0, steady runs do not
    vcfg = validate_quiet(cfg)
    close, gaps = balance_observer(vcfg)
    run_coupled(vcfg, diag_stride=0, observers=[close])
    assert len(gaps) == build_grids(vcfg)[2].n_steps


@pytest.mark.parametrize("cfg, re_reads", [
    pytest.param(lambda: cli_coupled_config(final_time=0.02), 0, id="coupled"),
    # 150 levels on 51 ages: on the birth ring from the tear-off on, through two re-reads at head 0
    pytest.param(lambda: detachment_config(a_max=0.5, final_time=1.5e-3), 2, id="detachment"),
])
def test_short_cli_runs_close_the_energy_identity_and_move_the_stretch_exactly(cfg, re_reads):
    vcfg = validate_quiet(cfg())
    close, gaps = balance_observer(vcfg)
    heads = []  # the ring's head at each level on the birth ring

    def on_ring(n, s):
        if isinstance(s.ring, BirthRing):
            heads.append(s.hist.head)

    run_coupled(vcfg, diag_stride=0, observers=[close, on_ring])
    assert len(gaps) == build_grids(vcfg)[2].n_steps
    assert heads.count(0) == re_reads


def test_long_tear_off_draw_crosses_re_reads_on_the_ring():
    # LONG_TEAR_OFF is on the birth ring from the first calm step to the
    # end, more than two ring periods, through the head-0 re-reads
    levels = coupled_levels(validate_quiet(LONG_TEAR_OFF))
    on_ring = [head for *_, kind, head in levels if kind is BirthRing]
    assert len(on_ring) == len(levels) - 2 and on_ring.count(0) >= 2
