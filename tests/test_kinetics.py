"""Bond-density evolution against analytic and characteristics oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import density_stepper, make_config
from linkages import presets, simulate
from linkages.config import RateModel, validate_config
from linkages.errors import MassAtLeastOne, NegativeDensity, NonfiniteValue
from linkages.grids import AgeGrid, SpaceGrid, build_grids
from linkages.kinetics import (
    BirthRing,
    CohortRing,
    age_profile,
    birth_ring,
    decay,
    init_density,
    limit_density,
    renew,
    survival,
)
from linkages.position import PositionHistory
from oracles import moment, oracle_march

SG = SpaceGrid(nx=7)
AG = AgeGrid(da=0.01, a_max=10.0)

EXP_DECAY = lambda x, a: np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float))
HALF_EXP = lambda x, a: 0.5 * np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float))
ZETA_ONE = lambda x, a, t: np.ones(np.broadcast(x, a).shape)
ONES_X = lambda x, t: np.ones_like(np.asarray(x, dtype=float))


def test_init_density_mass():
    rho = init_density(EXP_DECAY, SG, AG)
    mu0 = moment(rho, AG, 0)
    # analytic oracle: int_0^10 e^-a da = 1 - e^-10
    np.testing.assert_allclose(mu0, 1.0 - np.exp(-10.0), atol=1e-5)


def test_init_density_zero_field_is_legal_and_silent():
    # a bond-free start is legal; validate_config is the one place that warns
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rho = init_density(lambda x, a: np.zeros(np.broadcast(x, a).shape), SG, AG)
    assert caught == []
    assert np.all(moment(rho, AG, 0) == 0.0)


def test_init_density_rejections():
    with pytest.raises(MassAtLeastOne):
        init_density(lambda x, a: 2.0 * EXP_DECAY(x, a), SG, AG)
    with pytest.raises(NegativeDensity):
        init_density(lambda x, a: -EXP_DECAY(x, a), SG, AG)


def test_init_density_scaling():
    rho = init_density(HALF_EXP, SG, AG)
    np.testing.assert_allclose(moment(rho, AG, 0), 0.5 * (1.0 - np.exp(-10.0)), atol=1e-5)


def test_moments():
    rho = init_density(EXP_DECAY, SG, AG)
    # analytic oracles: int_0^X a e^-a = 1-(1+X)e^-X; int a^2 e^-a = 2-(X^2+2X+2)e^-X
    mu1 = moment(rho, AG, 1)
    np.testing.assert_allclose(mu1, 1.0 - 11.0 * np.exp(-10.0), atol=2e-5)
    mu2 = moment(rho, AG, 2)
    np.testing.assert_allclose(mu2, 2.0 - 122.0 * np.exp(-10.0), atol=2e-4)
    zero = np.zeros((SG.n_nodes, AG.n_nodes))
    assert np.all(moment(zero, AG, 1) == 0.0)
    with pytest.raises(ValueError):
        moment(rho, AG, 3)


def test_step_density_renewal_from_empty():
    rho = np.zeros((SG.n_nodes, AG.n_nodes))
    zeta = np.ones((SG.n_nodes, AG.n_nodes))
    new = density_stepper(rho, AG)(survival(zeta, AG), np.ones(SG.n_nodes))
    np.testing.assert_allclose(new[:, 0], 1.0 / (1.0 + AG.w[0]), atol=1e-14)
    assert np.all(new[:, 1:] == 0.0)


def test_step_density_steady_profile():
    # 0.5 e^-a is the fixed point of the renewal with beta = zeta = 1
    rho = init_density(HALF_EXP, SG, AG)
    zeta = np.ones((SG.n_nodes, AG.n_nodes))
    new = density_stepper(rho, AG)(survival(zeta, AG), np.ones(SG.n_nodes))
    # interior: exact shift times e^-da preserves the exponential
    np.testing.assert_allclose(new[:, 1:], rho[:, 1:], atol=1e-13)
    # renewal value returns the profile head up to O(da^2)
    np.testing.assert_allclose(new[:, 0], 0.5, atol=5 * AG.da**2 + 2e-5)


def test_step_density_pure_decay():
    rho = init_density(EXP_DECAY, SG, AG)
    zeta = np.full((SG.n_nodes, AG.n_nodes), 2.0)
    new = density_stepper(rho, AG)(survival(zeta, AG), np.zeros(SG.n_nodes))
    np.testing.assert_allclose(
        new[:, 1:], rho[:, :-1] * np.exp(-2.0 * AG.da), atol=1e-14
    )
    assert np.all(new[:, 0] == 0.0)


def test_step_density_positivity_and_saturation():
    rng = np.random.default_rng(3)
    step = density_stepper(rng.uniform(0.0, 0.08, (SG.n_nodes, AG.n_nodes)), AG)
    for _ in range(5):
        zeta = rng.uniform(0.2, 3.0, (SG.n_nodes, AG.n_nodes))
        beta = rng.uniform(0.0, 2.0, SG.n_nodes)
        rho = step(survival(zeta, AG), beta)
        assert np.min(rho) >= 0.0
        assert np.max(moment(rho, AG, 0)) < 1.0 - 1e-12


def underflow_band_field(agrid):
    """Off-rates whose -da*zeta spans the normal range, the subnormal band
    (-745.13, -708.4), exactly -746 and values down to -1e7; every value
    sits in every age column, and neighbouring columns differ."""
    vals = np.concatenate([
        np.linspace(0.0, 7.0e4, 101),
        np.linspace(7.084e4, 7.4513e4, 301),
        [np.nextafter(7.46e4, 0.0), 7.46e4, np.nextafter(7.46e4, np.inf)],
        np.logspace(np.log10(7.46e4), 9.0, 101),
    ])
    idx = (np.arange(vals.size)[:, None] + np.arange(agrid.n_nodes)[None, :]) % vals.size
    return vals[idx]


@pytest.mark.parametrize("zeta_at", ["departure", "arrival"])
def test_survival_is_exp_bit_for_bit_through_the_underflow_band(zeta_at):
    # departure: survival, read at cell j-1 as the weak step does; arrival:
    # decay of every lane of a cohort ring in place, as the coupled step
    # does, and of one ring column
    ag = AgeGrid(da=0.01, a_max=1.0)
    zeta = underflow_band_field(ag)
    hop = zeta[:, :-1] if zeta_at == "departure" else zeta
    ref = np.exp(-ag.da * hop)
    assert np.any(-ag.da * hop == -746.0)
    assert np.any(ref == 0.0) and np.any((ref > 0.0) & (ref < np.finfo(float).tiny)) and np.any(ref > 1e-300)
    if zeta_at == "departure":
        surv = survival(zeta, ag)
    else:
        ring = np.full_like(zeta, np.nan)
        surv = decay(zeta, ag.da, out=ring)
        assert surv is ring
        column = np.full_like(zeta, np.nan)
        decay(zeta[:, 7], ag.da, out=column[:, 7])
        assert np.array_equal(column[:, 7].view(np.int64), ref[:, 7].view(np.int64))
    assert np.array_equal(surv.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_survival_rejects_a_nonfinite_field(bad):
    ag = AgeGrid(da=0.01, a_max=1.0)
    zeta = underflow_band_field(ag)
    zeta[3, 5] = bad
    with pytest.raises(NonfiniteValue):
        survival(zeta, ag)
    with pytest.raises(NonfiniteValue):
        decay(zeta, ag.da)


@pytest.mark.parametrize("na", [1, 2, 5])
def test_birth_ring_sums_at_every_head(na):
    # m and q against an einsum over each ring rolled into age order, at
    # every head the pushes reach (0, then depth-1 down to 1); births and
    # products differ, so reading one ring for the other fails
    rng = np.random.default_rng(na)
    ag = AgeGrid(da=0.5, a_max=0.5 * na)
    nodes, depth = 4, na + 1
    wC = rng.random((nodes, na))
    hist = PositionHistory(rng.random(nodes), rng.random((nodes, depth)))
    ring = BirthRing(wC, rng.random((nodes, depth)), hist, ag)
    heads = []
    for _ in range(depth + 1):
        heads.append(hist.head)
        for got, values in zip(ring.sums(), (ring.births, ring.products)):
            aged = np.roll(values, -hist.head, axis=1)
            np.testing.assert_allclose(got, np.einsum("xj,xj->x", wC, aged[:, :-1]), rtol=1e-13, atol=0.0)
        z = rng.random(nodes)
        ring.push(rng.random(nodes), z)  # z moves the history's head; the births take its column
    assert heads == [0, *range(depth - 1, 0, -1), 0]


@pytest.mark.parametrize("na", [1, 2, 5])
def test_birth_ring_running_sums_at_every_head(na):
    # birth_ring of a survival factor the same at every age (C_j = c^j) keeps
    # the lagged sums as running sums; m and q against an einsum over the
    # births and their products with the history (which this form does not
    # store), each rolled into age order, over two ring periods, so the
    # running sums cross two re-anchors at head 0; c differs between lanes
    rng = np.random.default_rng(na)
    ag = AgeGrid(da=0.5, a_max=0.5 * na)
    nodes, depth = 4, na + 1
    c = rng.uniform(0.5, 1.0, nodes)
    hist = PositionHistory(rng.random(nodes), rng.random((nodes, depth)))
    ring = birth_ring(rng.random((nodes, depth)), np.repeat(c[:, None], na, axis=1), hist, ag)
    wC = ag.w[1:] * c[:, None] ** np.arange(1, depth)
    heads = []
    for _ in range(2 * depth + 1):
        heads.append(hist.head)
        for got, values in zip(ring.sums(), (ring.births, ring.births * hist.buf)):
            aged = np.roll(values, -hist.head, axis=1)
            np.testing.assert_allclose(got, np.einsum("xj,xj->x", wC, aged[:, :-1]), rtol=1e-13, atol=0.0)
        z = rng.random(nodes)
        ring.push(rng.random(nodes), z)
    assert heads == [0, *range(depth - 1, 0, -1)] * 2 + [0]


@pytest.mark.parametrize("na", [1, 2, 5])
def test_shift_step_at_every_head(na):
    # the cohort ring against the age-frame step (roll to age order, shift,
    # survival, renewal) at every head the steps reach (0, then depth-1
    # down to 1); a fresh survival factor after each push, as an off-rate
    # that depends on t gets, distinct per age, so a slice off by one
    # multiplies the wrong cohort; m and q against an einsum over the
    # rolled ring and history
    rng = np.random.default_rng(na)
    ag = AgeGrid(da=0.5, a_max=0.5 * na)
    nodes, depth = 4, na + 1
    hist = PositionHistory(rng.random(nodes), rng.random((nodes, depth)))
    ring = CohortRing(rng.uniform(0.0, 0.2, (nodes, depth)), rng.uniform(0.1, 1.0, (nodes, na)), hist, ag)
    heads = []
    for _ in range(depth + 1):
        heads.append(hist.head)
        beta, want = rng.uniform(0.0, 2.0, nodes), np.empty((nodes, depth))
        want[:, 1:] = ring.density()[:, :-1] * ring.surv
        # the snapshot of delay j-1 at level n anchors the cohort of age j at n+1
        anchors = np.roll(hist.buf, -hist.head, axis=1)[:, :-1]
        want_m = np.einsum("j,xj->x", ag.w[1:], want[:, 1:])
        want[:, 0] = beta * (1.0 - want_m) / (1.0 + beta * ag.w[0])
        m, q = ring.sums()
        np.testing.assert_allclose(m, want_m, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(q, np.einsum("j,xj,xj->x", ag.w[1:], want[:, 1:], anchors), rtol=1e-13, atol=0.0)
        births, mu0 = renew(beta, 1.0 + beta * ag.w[0], m, ag.w[0])
        ring.push(births, rng.random(nodes))  # z moves the history's head; the births take its column
        ring.surv = rng.uniform(0.1, 1.0, (nodes, na))
        np.testing.assert_allclose(ring.density(), want, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(mu0, want @ ag.w, rtol=1e-13, atol=0.0)
    assert heads == [0, *range(depth - 1, 0, -1), 0]


def step_peaks(monkeypatch, vcfg, ring):
    """The tracemalloc peak of each step of run_weak(vcfg); the state's ring must be of type ring."""
    peaks, march = [], simulate.march

    def measure(step):
        def measured(n, st):
            assert isinstance(st.ring, ring)
            tracemalloc.start()
            try:
                st = step(n, st)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return st
        return measured

    monkeypatch.setattr(simulate, "march", lambda state, step, n_steps, observers: march(
        state, measure(step), n_steps, observers))
    simulate.run_weak(vcfg, diag_stride=0)
    return peaks


def test_birth_ring_step_allocates_no_field(monkeypatch):
    # a birth-ring step allocates only O(nx) arrays: the tracemalloc peak of
    # one step stays below one age field.  perfbench's run_rel divides by a
    # seed copy run in the same process, and freeing a field-sized array
    # raises glibc's malloc thresholds for that process: allocating and
    # freeing one (nx+2, na+1) array after a warm-up sweep cut the seed
    # copy's next sweep calls from 620k-790k minor faults (4.0-4.9 s wall)
    # to 2.4k-4.2k faults (3.4-3.6 s), so the ratio's denominator ran about
    # 25 % faster and the ratio credited this code with it
    vcfg = validate_config(make_config(nx=30, final_time=0.005))
    sg, ag, ts = build_grids(vcfg)
    peaks = step_peaks(monkeypatch, vcfg, BirthRing)
    assert len(peaks) == ts.n_steps
    assert max(peaks) < sg.n_nodes * ag.n_nodes * 8


def test_birth_ring_step_allocates_no_field_across_re_anchors(monkeypatch):
    # the same bound where the running sums of a constant off-rate are read
    # afresh: 64 steps on a ring of 31 cross two re-anchors (a ring of 11
    # is smaller than the O(nx) arrays of any step, 5.4 kB at nx = 30)
    vcfg = validate_config(make_config(nx=30, a_max=0.3, final_time=0.032))
    sg, ag, ts = build_grids(vcfg)
    peaks = step_peaks(monkeypatch, vcfg, BirthRing)
    assert len(peaks) == ts.n_steps == 64
    assert max(peaks) < sg.n_nodes * ag.n_nodes * 8


def test_shift_step_allocates_no_field(monkeypatch):
    # the cohort ring (here birth_ring's fallback: C_j underflows) steps the
    # density in place and reads the history where it stands, so one step
    # allocates less than one age field, as a birth-ring step does
    rate = RateModel(zeta=presets.given_zeta_fn("constant(80)"), zeta_m=80.0, zeta_M=80.0)
    vcfg = validate_config(make_config(nx=30, final_time=0.005, rate_model=rate))
    sg, ag, ts = build_grids(vcfg)
    peaks = step_peaks(monkeypatch, vcfg, CohortRing)
    assert len(peaks) == ts.n_steps
    assert max(peaks) < sg.n_nodes * ag.n_nodes * 8


def test_time_dependent_off_rate_step_allocates_less_than_two_fields(monkeypatch):
    # an off-rate that depends on t is sampled afresh at every step, one
    # field; its survival factor is written into the ring's own buffer, not
    # into a fresh field (at nx = 64 the peak was 1,127,744 B with a fresh
    # one and is 670,432 B; a field is 528,528 B)
    ramp = presets.given_zeta_fn("one_plus_age_ramp(0.5)")
    rate = RateModel(zeta=lambda x, a, t: ramp(x, a, t) + t, zeta_M=2.0)
    vcfg = validate_config(make_config(nx=64, final_time=0.005, rate_model=rate))
    sg, ag, ts = build_grids(vcfg)
    peaks = step_peaks(monkeypatch, vcfg, CohortRing)
    assert len(peaks) == ts.n_steps
    assert max(peaks) < 2 * sg.n_nodes * ag.n_nodes * 8


def test_oracle_spot_values():
    eps, da = 0.05, 0.01
    sg, ag = SpaceGrid(nx=1), AgeGrid(da=da, a_max=10.0)
    # from the initial-datum branch: rho_I(a - t/eps) * exp(-t/eps); the
    # history is not read there
    half = lambda n: [np.full(sg.n_nodes, 0.5)] * (n + 1)
    v, _ = oracle_march(100, ZETA_ONE, ONES_X, EXP_DECAY, eps, sg, ag, mu0_history=half(100))
    assert v[:, 200] == pytest.approx(np.exp(-2.0), rel=1e-12)
    # t = 0 returns the initial datum exactly
    v0, _ = oracle_march(0, ZETA_ONE, ONES_X, EXP_DECAY, eps, sg, ag)
    assert v0[:, 150] == pytest.approx(np.exp(-1.5), rel=1e-14)
    # steady renewal branch: beta (1 - mu0) e^-a with mu0 = 1/2
    v1, _ = oracle_march(300, ZETA_ONE, ONES_X, EXP_DECAY, eps, sg, ag, mu0_history=half(300))
    assert v1[:, 100] == pytest.approx(0.5 * np.exp(-1.0), rel=1e-12)


def test_scheme_equals_oracle_for_constant_rates():
    # with constant rates the composition and the quadrature of the closed
    # form coincide exactly when fed the same discrete renewal history
    eps, da = 0.05, 0.02
    sg, ag = SpaceGrid(nx=4), AgeGrid(da=da, a_max=10.0)
    n_steps = 400
    step = density_stepper(init_density(lambda x, a: 0.9 * EXP_DECAY(x, a), sg, ag), ag)
    zeta = np.ones((sg.n_nodes, ag.n_nodes))
    for n in range(n_steps):
        rho = step(survival(zeta, ag), np.ones(sg.n_nodes))
    rI = lambda x, a: 0.9 * EXP_DECAY(x, a)
    oracle, _ = oracle_march(n_steps, ZETA_ONE, ONES_X, rI, eps, sg, ag)
    np.testing.assert_allclose(rho, oracle, atol=1e-13)


def varying_zeta(x, a, t):
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    return 1.0 + 0.4 * (a / (1.0 + a)) * (1.0 + np.sin(np.pi * x)) / 2.0


def _oracle_l1_distance(da, eps=0.05):
    sg, ag = SpaceGrid(nx=6), AgeGrid(da=da, a_max=10.0)
    n_steps = int(round(10.0 / da))  # T = 10 eps
    rI = lambda x, a: 0.9 * EXP_DECAY(x, a)
    step = density_stepper(init_density(rI, sg, ag), ag)
    for n in range(n_steps):
        zeta = varying_zeta(sg.x[:, None], ag.a[None, :], n * eps * da)
        rho = step(survival(zeta, ag), np.ones(sg.n_nodes))
    oracle, _ = oracle_march(n_steps, varying_zeta, ONES_X, rI, eps, sg, ag)
    return float(sg.quad_weights() @ (np.abs(rho - oracle) @ ag.w))


def test_oracle_agreement_first_order_banded():
    # age-varying off-rate: departure-cell rectangles vs trapezoid panels
    # give a genuine O(da) gap; halving da halves it within +-20%
    errs = [_oracle_l1_distance(da) for da in (4e-2, 2e-2, 1e-2)]
    assert errs[0] > errs[1] > errs[2]
    for hi, lo in zip(errs[:-1], errs[1:]):
        assert 1.6 <= hi / lo <= 2.4


def test_mu0_lower_bound_weak_mode():
    # discrete floor min(mu0(0), beta_m/(beta_m+zeta_M)) - 10 da
    eps, da = 0.05, 0.01
    sg, ag = SpaceGrid(nx=4), AgeGrid(da=da, a_max=10.0)
    rho = init_density(EXP_DECAY, sg, ag)
    beta_m, zeta_M = 0.5, 1.0
    floor = min(float(np.min(moment(rho, ag, 0))), beta_m / (beta_m + zeta_M)) - 10 * da
    zeta, step = np.ones((sg.n_nodes, ag.n_nodes)), density_stepper(rho, ag)
    for _ in range(1500):
        rho = step(survival(zeta, ag), np.full(sg.n_nodes, beta_m))
        assert np.min(moment(rho, ag, 0)) >= floor


def test_limit_density_constant_rates():
    ag = AgeGrid(da=0.01, a_max=10.0)
    ld = limit_density(1.0, np.ones(ag.n_nodes), ag)
    # K = 1, mu00 = 1/2, mu10 = 1/2, rho0 = e^-a / 2 (up to truncation e^-10)
    assert ld.mu00 == pytest.approx(0.5, abs=5e-5)
    assert ld.mu10 == pytest.approx(0.5, abs=5e-4)
    np.testing.assert_allclose(ld.rho0, (1.0 - ld.mu00) * np.exp(-ag.a), rtol=1e-12)


def test_limit_density_zero_on_rate():
    ag = AgeGrid(da=0.01, a_max=10.0)
    ld = limit_density(0.0, np.ones(ag.n_nodes), ag)
    assert ld.mu00 == 0.0 and ld.mu10 == 0.0
    assert np.all(ld.rho0 == 0.0)


def test_limit_density_fast_decay():
    ag = AgeGrid(da=0.01, a_max=10.0)
    ld = limit_density(1.0, np.full(ag.n_nodes, 2.0), ag)
    # K = 1/2: mu00 = 1/3, mu10 = beta(1-mu00)/zeta^2 = 1/6
    assert ld.mu00 == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert ld.mu10 == pytest.approx(1.0 / 6.0, abs=1e-5)


@pytest.mark.parametrize("zeta_shape", ["full", "age_only"])
def test_limit_density_on_a_formed_profile_is_bit_identical(zeta_shape):
    # a run whose off-rate ignores t forms the profile once and rescales rho0 in one buffer
    ag = AgeGrid(da=0.02, a_max=4.0)
    x = np.linspace(0, 1, 5)
    zeta0 = 1.0 + 0.5 * np.outer(np.sin(np.pi * x) ** 2 if zeta_shape == "full" else [1.0], ag.a / (1 + ag.a))
    profile, out = age_profile(zeta0, ag), np.empty((x.size, ag.n_nodes))
    for t in (0.0, 0.3, 1.7):
        beta0 = 0.5 + t * np.cos(np.pi * x) ** 2
        fresh, reused = limit_density(beta0, zeta0, ag), limit_density(beta0, zeta0, ag, profile, out)
        assert reused.rho0 is out
        for name in ("rho0", "mu00", "mu10"):
            a, b = getattr(fresh, name), getattr(reused, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_age_profile_holds_at_most_two_fields():
    # E and its panels, running sum and exp share one buffer: on the
    # (66, 1001) off-rate field the peak is 1.37 fields, where the panels,
    # their cumulative sum, its zero-padded copy and exp, each a field of
    # its own, took it to 4
    sg, ag, _ = build_grids(validate_config(make_config(nx=64, da=0.01)))
    zeta0 = 1.0 + 0.5 * np.outer(np.sin(np.pi * sg.x) ** 2, ag.a / (1 + ag.a))
    tracemalloc.start()
    try:
        age_profile(zeta0, ag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * zeta0.nbytes


def test_limit_density_pointwise_bound():
    # rho0 <= beta_M zeta_M/(zeta_M + beta_m) e^{-zeta_m a}
    ag = AgeGrid(da=0.02, a_max=10.0)
    x = np.linspace(0, 1, 5)
    zeta0 = 1.0 + 0.5 * np.outer(np.sin(np.pi * x) ** 2, ag.a / (1 + ag.a))
    beta0 = 0.5 + 0.4 * np.cos(np.pi * x) ** 2
    ld = limit_density(beta0, zeta0, ag)
    beta_M, beta_m, zeta_m, zeta_M = 0.9, 0.5, 1.0, 1.5
    bound = beta_M * zeta_M / (zeta_M + beta_m) * np.exp(-zeta_m * ag.a)
    assert np.all(ld.rho0 <= bound[None, :] + 1e-12)
