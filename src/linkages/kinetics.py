"""Age-structured bond-density evolution and its closed forms.

The density rho(x, a, t) obeys transport in age with off-rate decay and the
renewal boundary rho(x, 0, t) = beta (1 - mu0), mu0 being the total
population.  With dt = eps*da the update is an exact shift along the
characteristic with per-cell exponential decay, which keeps the field
nonnegative for any size of zeta*da.

The renewal value is coupled to mu0 at the *new* time through the a=0
trapezoid weight; that self-reference is solved algebraically,

    rho[0] = beta (1 - m) / (1 + beta w0),   m = sum_{j>=1} w_j rho[j],

so the saturation bound mu0 < 1 is preserved exactly.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import HistoryMissing, MassAtLeastOne, NegativeDensity, NonfiniteValue


def init_density(fn, sgrid, agrid, strict_positive=False):
    """Sample the initial age distribution rho_I(x, a) onto the (nx+2, na+1) grid.

    Rejects negative values and per-x mass >= 1.  A vanishing field is legal
    (bond-free start) unless strict positivity is demanded; it only warns.
    """
    vals = np.asarray(fn(sgrid.x[:, None], agrid.a[None, :]), dtype=float)
    vals = np.broadcast_to(vals, (sgrid.n_nodes, agrid.n_nodes)).copy()
    if not np.all(np.isfinite(vals)):
        raise NonfiniteValue("initial density has non-finite entries")
    if np.min(vals) < 0:
        raise NegativeDensity(f"min rho_I = {np.min(vals):g}")
    mu0 = vals @ agrid.w
    if np.max(mu0) >= 1.0:
        raise MassAtLeastOne(f"max mu0(x, 0) = {np.max(mu0):.6g}")
    if np.min(mu0) <= 0.0:
        if strict_positive:
            raise NegativeDensity("initial population vanishes somewhere")
        warnings.warn("initial bond population is zero somewhere", stacklevel=2)
    return vals


def moment(rho, agrid, k):
    """Trapezoid moment mu_k(x) = int a^k rho(x, a) da, k in {0, 1, 2}."""
    if k not in (0, 1, 2):
        raise ValueError(f"moment order {k} not in {{0, 1, 2}}")
    return rho @ (agrid.w * agrid.a**k)


def step_density(rho, zeta_values, beta_values, agrid, zeta_at="departure"):
    """Advance the density one step of dt = eps*da.

    zeta_values is the off-rate on the (x, a) grid; for a prescribed rate it
    is sampled at the current time and read at the departure cell j-1.  In
    coupled mode the field is built from the fresh elongation and must be
    read at the arrival cell j (zeta_at="arrival"): that is the endpoint of
    the same characteristic, and it lets a newborn cohort feel the stretch it
    acquires during the step -- reading the departure value zeta(u=0) instead
    lets arbitrarily stretched newborns survive one cell forever.
    beta_values is the on-rate per x node at the new time.  Newborn mass is
    set from the shifted interior by the closed-form renewal above.
    """
    if not np.all(np.isfinite(zeta_values)):
        raise NonfiniteValue("off-rate field has non-finite entries")
    if zeta_at == "departure":
        hop = zeta_values[:, :-1]
    elif zeta_at == "arrival":
        hop = zeta_values[:, 1:]
    else:
        raise ValueError(f"zeta_at must be 'departure' or 'arrival', got {zeta_at!r}")
    new = np.empty_like(rho)
    new[:, 1:] = rho[:, :-1] * np.exp(-agrid.da * hop)
    m = new[:, 1:] @ agrid.w[1:]
    w0 = agrid.w[0]
    new[:, 0] = beta_values * (1.0 - m) / (1.0 + beta_values * w0)
    return new


def density_characteristics_oracle(x, a, t, zeta, beta, rho_I, mu0_history, eps, agrid):
    """Closed-form density value along characteristics (weak mode only).

    For a < t/eps the bond was created at time t - eps*a:

        beta(x, t-eps*a) (1 - mu0(x, t-eps*a)) exp(-int_0^a zeta),

    otherwise it descends from the initial datum:

        rho_I(x, a - t/eps) exp(-(1/eps) int_0^t zeta along the characteristic).

    x is an array of positions, a = j*da and t = n*eps*da grid-aligned values.
    mu0_history[m] holds mu0(x, t^m); the inner integrals are trapezoids along
    the characteristic, which lands on grid nodes thanks to dt = eps*da.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    da = agrid.da
    j = int(round(a / da))
    n = int(round(t / (eps * da)))
    if abs(j * da - a) > 1e-9 * max(a, 1.0) or abs(n * eps * da - t) > 1e-9 * max(t, 1.0):
        raise ValueError("oracle arguments must lie on the space-time grid")
    if j < n:  # a < t/eps: renewal branch
        if n - j >= len(mu0_history):
            raise HistoryMissing(f"mu0 history has no level {n - j}")
        mu0 = np.asarray(mu0_history[n - j], dtype=float)
        t_birth = t - eps * a
        # ages 0..a_j sampled at times t - eps*(a_j - a_k) = t^{n-j+k}
        ages = agrid.a[: j + 1]
        times = t_birth + eps * ages
        zvals = np.array([zeta(x, ak, tk) for ak, tk in zip(ages, times)])
        integral = np.trapezoid(zvals, dx=da, axis=0) if j > 0 else np.zeros_like(x)
        birth = np.asarray(beta(x, t_birth), dtype=float) * (1.0 - mu0)
        return birth * np.exp(-integral)
    ages = agrid.a[j - n : j + 1]
    times = np.arange(n + 1) * (eps * da)
    zvals = np.array([zeta(x, ak, tk) for ak, tk in zip(ages, times)])
    integral = np.trapezoid(zvals, dx=da, axis=0) if n > 0 else np.zeros_like(x)
    a0 = a - t / eps
    return np.asarray(rho_I(x, a0), dtype=float) * np.exp(-integral)


def _oracle_march(n_steps, zeta, beta, rho_I, eps, sgrid, agrid, mu0_history=None):
    """Evaluate the characteristics formula at every level up to n_steps.

    Per age slot the closed form is amplitude * exp(-I) with the amplitude
    fixed along its characteristic (initial datum or birth factor) and I the
    trapezoid of zeta along the characteristic; I is accumulated panel by
    panel, which reproduces the pointwise quadrature of
    density_characteristics_oracle exactly while staying vectorized.

    With mu0_history given, birth factors use it; otherwise the history is
    built self-consistently from the formula's own quadrature (the w0
    renewal self-reference solved algebraically, as in step_density).
    """
    x, w, da = sgrid.x, agrid.w, agrid.da
    X = x[:, None]
    A = np.asarray(rho_I(X, agrid.a[None, :]), dtype=float) * np.ones((sgrid.n_nodes, 1))
    E = np.zeros_like(A)
    vals = A.copy()
    mu = [vals @ w] if mu0_history is None else None
    zeta_now = np.asarray(zeta(X, agrid.a[None, :], 0.0), dtype=float) * np.ones_like(A)
    for m in range(1, n_steps + 1):
        t = m * eps * da
        zeta_next = np.asarray(zeta(X, agrid.a[None, :], t), dtype=float) * np.ones_like(A)
        E_new = np.empty_like(E)
        E_new[:, 1:] = E[:, :-1] + 0.5 * da * (zeta_now[:, :-1] + zeta_next[:, 1:])
        E_new[:, 0] = 0.0
        A_new = np.empty_like(A)
        A_new[:, 1:] = A[:, :-1]
        b = np.asarray(beta(x, t), dtype=float)
        if mu0_history is not None:
            mu_here = np.asarray(mu0_history[m], dtype=float)
        else:
            rest = (A_new[:, 1:] * np.exp(-E_new[:, 1:])) @ w[1:]
            mu_here = (w[0] * b + rest) / (1.0 + w[0] * b)
            mu.append(mu_here)
        A_new[:, 0] = b * (1.0 - mu_here)
        A, E, zeta_now = A_new, E_new, zeta_next
        vals = A * np.exp(-E)
    return vals, mu


def oracle_density_field(n, zeta, beta, rho_I, mu0_history, eps, sgrid, agrid):
    """Full (x, a) oracle field at time level n; convenience for tests."""
    field, _ = _oracle_march(n, zeta, beta, rho_I, eps, sgrid, agrid, mu0_history=mu0_history)
    return field


def oracle_mu0_history(n_steps, zeta, beta, rho_I, eps, sgrid, agrid):
    """Self-consistent mu0 history from the characteristics formula alone.

    Level m needs mu0 only at strictly earlier levels except for the a=0
    node, whose renewal self-reference through w0 is solved algebraically.
    Independent of the per-cell exponential marching whenever the rates vary
    along characteristics (trapezoid panels vs departure-cell rectangles).
    """
    _, mu = _oracle_march(n_steps, zeta, beta, rho_I, eps, sgrid, agrid)
    return mu


@dataclass
class LimitDensity:
    """Zero-scale density profile rho0(a) with its first two moments."""

    rho0: np.ndarray  # (..., na+1)
    mu00: np.ndarray
    mu10: np.ndarray


def limit_density(beta0, zeta0_values, agrid):
    """Closed-form limit profile for prescribed rates at one instant.

    With E(a) = exp(-int_0^a zeta0) and K = int E da:

        mu00 = beta0 K / (1 + beta0 K),
        rho0(a) = beta0 (1 - mu00) E(a),
        mu10 = beta0 (1 - mu00) int a E(a) da.

    zeta0_values has age as its last axis; beta0 broadcasts against the
    leading axes.
    """
    zeta0_values = np.asarray(zeta0_values, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    da = agrid.da
    panels = 0.5 * da * (zeta0_values[..., 1:] + zeta0_values[..., :-1])
    integral = np.concatenate(
        [np.zeros(zeta0_values.shape[:-1] + (1,)), np.cumsum(panels, axis=-1)], axis=-1
    )
    E = np.exp(-integral)
    K = E @ agrid.w
    mu00 = beta0 * K / (1.0 + beta0 * K)
    amp = beta0 * (1.0 - mu00)
    rho0 = amp[..., None] * E
    mu10 = amp * (E @ (agrid.w * agrid.a))
    return LimitDensity(rho0=rho0, mu00=mu00, mu10=mu10)
