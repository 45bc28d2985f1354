"""Bond-density evolution against analytic and characteristics oracles."""

import warnings

import numpy as np
import pytest

from linkages.errors import HistoryMissing, MassAtLeastOne, NegativeDensity
from linkages.grids import AgeGrid, SpaceGrid
from linkages.kinetics import (
    density_characteristics_oracle,
    init_density,
    limit_density,
    moment,
    oracle_density_field,
    oracle_mu0_history,
    step_density,
)

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


def test_init_density_zero_field_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rho = init_density(lambda x, a: np.zeros(np.broadcast(x, a).shape), SG, AG)
    assert any("zero" in str(w.message) for w in caught)
    assert np.all(moment(rho, AG, 0) == 0.0)
    with pytest.raises(NegativeDensity):
        init_density(lambda x, a: np.zeros(np.broadcast(x, a).shape), SG, AG, strict_positive=True)


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
    new = step_density(rho, zeta, np.ones(SG.n_nodes), AG)
    np.testing.assert_allclose(new[:, 0], 1.0 / (1.0 + AG.w[0]), atol=1e-14)
    assert np.all(new[:, 1:] == 0.0)


def test_step_density_steady_profile():
    # 0.5 e^-a is the fixed point of the renewal with beta = zeta = 1
    rho = init_density(HALF_EXP, SG, AG)
    zeta = np.ones((SG.n_nodes, AG.n_nodes))
    new = step_density(rho, zeta, np.ones(SG.n_nodes), AG)
    # interior: exact shift times e^-da preserves the exponential
    np.testing.assert_allclose(new[:, 1:], rho[:, 1:], atol=1e-13)
    # renewal value returns the profile head up to O(da^2)
    np.testing.assert_allclose(new[:, 0], 0.5, atol=5 * AG.da**2 + 2e-5)


def test_step_density_pure_decay():
    rho = init_density(EXP_DECAY, SG, AG)
    zeta = np.full((SG.n_nodes, AG.n_nodes), 2.0)
    new = step_density(rho, zeta, np.zeros(SG.n_nodes), AG)
    np.testing.assert_allclose(
        new[:, 1:], rho[:, :-1] * np.exp(-2.0 * AG.da), atol=1e-14
    )
    assert np.all(new[:, 0] == 0.0)


def test_step_density_positivity_and_saturation():
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.0, 0.08, (SG.n_nodes, AG.n_nodes))
    for _ in range(5):
        zeta = rng.uniform(0.2, 3.0, (SG.n_nodes, AG.n_nodes))
        beta = rng.uniform(0.0, 2.0, SG.n_nodes)
        rho = step_density(rho, zeta, beta, AG)
        assert np.min(rho) >= 0.0
        assert np.max(moment(rho, AG, 0)) < 1.0 - 1e-12


def test_oracle_spot_values():
    eps, da = 0.05, 0.01
    ag = AgeGrid(da=da, a_max=10.0)
    # from the initial-datum branch: rho_I(a - t/eps) * exp(-t/eps)
    v = density_characteristics_oracle(
        np.array([0.3]), 2.0, eps, ZETA_ONE, ONES_X, EXP_DECAY, [], eps, ag
    )
    assert v[0] == pytest.approx(np.exp(-2.0), rel=1e-12)
    # t = 0 returns the initial datum exactly
    v0 = density_characteristics_oracle(
        np.array([0.3]), 1.5, 0.0, ZETA_ONE, ONES_X, EXP_DECAY, [], eps, ag
    )
    assert v0[0] == pytest.approx(np.exp(-1.5), rel=1e-14)
    # steady renewal branch: beta (1 - mu0) e^-a with mu0 = 1/2
    n = 300
    hist = [np.full(1, 0.5)] * (n + 1)
    v1 = density_characteristics_oracle(
        np.array([0.3]), 1.0, n * eps * da, ZETA_ONE, ONES_X, EXP_DECAY, hist, eps, ag
    )
    assert v1[0] == pytest.approx(0.5 * np.exp(-1.0), rel=1e-12)


def test_oracle_missing_history():
    eps, da = 0.05, 0.01
    ag = AgeGrid(da=da, a_max=10.0)
    with pytest.raises(HistoryMissing):
        density_characteristics_oracle(
            np.array([0.3]), 0.5, 100 * eps * da, ZETA_ONE, ONES_X, EXP_DECAY, [], eps, ag
        )


def test_scheme_equals_oracle_for_constant_rates():
    # with constant rates the composition and the quadrature of the closed
    # form coincide exactly when fed the same discrete renewal history
    eps, da = 0.05, 0.02
    sg, ag = SpaceGrid(nx=4), AgeGrid(da=da, a_max=10.0)
    n_steps = 400
    rho = init_density(lambda x, a: 0.9 * EXP_DECAY(x, a), sg, ag)
    zeta = np.ones((sg.n_nodes, ag.n_nodes))
    for n in range(n_steps):
        rho = step_density(rho, zeta, np.ones(sg.n_nodes), ag)
    rI = lambda x, a: 0.9 * EXP_DECAY(x, a)
    hist = oracle_mu0_history(n_steps, ZETA_ONE, ONES_X, rI, eps, sg, ag)
    oracle = oracle_density_field(n_steps, ZETA_ONE, ONES_X, rI, hist, eps, sg, ag)
    np.testing.assert_allclose(rho, oracle, atol=1e-13)


def varying_zeta(x, a, t):
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    return 1.0 + 0.4 * (a / (1.0 + a)) * (1.0 + np.sin(np.pi * x)) / 2.0


def _oracle_l1_distance(da, eps=0.05):
    sg, ag = SpaceGrid(nx=6), AgeGrid(da=da, a_max=10.0)
    n_steps = int(round(10.0 / da))  # T = 10 eps
    rI = lambda x, a: 0.9 * EXP_DECAY(x, a)
    rho = init_density(rI, sg, ag)
    for n in range(n_steps):
        zeta = varying_zeta(sg.x[:, None], ag.a[None, :], n * eps * da)
        rho = step_density(rho, zeta, np.ones(sg.n_nodes), ag)
    hist = oracle_mu0_history(n_steps, varying_zeta, ONES_X, rI, eps, sg, ag)
    oracle = oracle_density_field(n_steps, varying_zeta, ONES_X, rI, hist, eps, sg, ag)
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
    zeta = np.ones((sg.n_nodes, ag.n_nodes))
    for _ in range(1500):
        rho = step_density(rho, zeta, np.full(sg.n_nodes, beta_m), ag)
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
