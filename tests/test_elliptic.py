"""Tridiagonal kernel against dense and analytic oracles, and how it is loaded."""

import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

from conftest import dense_solve
from oracles import laplacian

import linkages
from linkages import elliptic
from linkages.elliptic import Operator, solve
from linkages.errors import DegenerateOperator
from linkages.grids import SpaceGrid


def test_identity_operator():
    g = SpaceGrid(nx=5)
    rhs = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
    z = solve(np.ones(5), 0.0, rhs, g)
    np.testing.assert_allclose(z[1:-1], rhs, atol=1e-14)
    assert z[0] == 0.0 and z[-1] == 0.0


def test_poisson_coefficients_nx3():
    # dx = 1/4: main diagonal 2/dx^2 = 32, off-diagonals -1/dx^2 = -16; the
    # solves of the unit vectors are the columns of the dense inverse
    g = SpaceGrid(nx=3)
    dense = np.array([[32.0, -16.0, 0.0], [-16.0, 32.0, -16.0], [0.0, -16.0, 32.0]])
    inverse = np.column_stack([solve(np.zeros(3), 1.0, e, g)[1:-1] for e in np.eye(3)])
    np.testing.assert_allclose(inverse, np.linalg.inv(dense))


def test_degenerate_operator_raises():
    g = SpaceGrid(nx=4)
    with pytest.raises(DegenerateOperator):
        solve(np.zeros(4), 0.0, np.ones(4), g)


@pytest.mark.parametrize("c", [-1.0, np.array([1.0, 2.0, -1e-300, 1.0])])
def test_negative_coefficient_raises(c):
    with pytest.raises(DegenerateOperator, match="negative coefficient"):
        solve(c, 1.0, np.ones(4), SpaceGrid(nx=4))


def test_negative_diffusion_weight_raises():
    with pytest.raises(DegenerateOperator, match="negative diffusion weight"):
        solve(np.ones(4), -1e-300, np.ones(4), SpaceGrid(nx=4))


@pytest.mark.parametrize("c", [0.0, 0.75, 3.0])
def test_scalar_coefficient_is_the_full_array(c):
    g = SpaceGrid(nx=6)
    rhs = np.array([1.0, -2.0, 3.0, 0.5, 0.25, -1.5])
    scalar, full = solve(c, 0.3, rhs, g), solve(np.full(6, c), 0.3, rhs, g)
    assert scalar.shape == full.shape == (8,) and scalar.tobytes() == full.tobytes()
    with pytest.raises(DegenerateOperator, match="c == 0 and kappa == 0"):
        solve(0.0, 0.0, rhs, g)


@pytest.mark.parametrize("factor, fires", [(10.0, True), (0.1, False)])
def test_residual_check_catches_a_perturbed_solution(monkeypatch, factor, fires):
    # moving the last interior node by d makes the residual main[-1]*|d| on
    # that row; the check fires above 1e-10 * max|rhs|.  gtsv solves on the
    # full grid, so that node is the one before the Dirichlet node
    g = SpaceGrid(nx=5)
    c = np.linspace(0.5, 1.5, 5)
    rhs = np.array([1.0, -2.0, 3.0, 0.5, 0.25])
    exact = solve(c, 0.1, rhs, g)
    main_last = c[-1] + 2.0 * (0.1 / g.dx**2)
    d = factor * 1e-10 * 3.0 / main_last
    gtsv = elliptic.dgtsv

    def perturbed(*args):
        *head, x, info = gtsv(*args)
        x[-2] += d
        return (*head, x, info)

    monkeypatch.setattr(elliptic, "dgtsv", perturbed)
    if fires:
        with pytest.raises(DegenerateOperator, match="residual"):
            solve(c, 0.1, rhs, g)
    else:
        assert solve(c, 0.1, rhs, g)[-2] == exact[-2] + d


@pytest.mark.parametrize("n", [1, 4])
def test_singular_solve_raises(n):
    # one node: c = 0 with kappa = 0 is the degenerate guard; four nodes with
    # a zero on the diagonal and no diffusion reach gtsv, which reports it,
    # counting from the Dirichlet node before the first interior node
    c, match = (np.zeros(1), "c == 0 and kappa == 0") if n == 1 else (np.array([1.0, 0.0, 1.0, 1.0]), "gtsv info=3")
    with pytest.raises(DegenerateOperator, match=match):
        solve(c, 0.0, np.ones(n), SpaceGrid(nx=n))


def test_single_node_against_dense_oracle():
    g = SpaceGrid(nx=1)
    z = solve(np.full(1, 0.5), 0.3, np.array([2.0]), g)
    np.testing.assert_allclose(z, dense_solve(0.5, 0.3, np.array([2.0]), 1), rtol=1e-15)
    assert z[0] == 0.0 and z[-1] == 0.0


def test_poisson_sin_oracle_second_order():
    errors = []
    for nx in (15, 31, 63):
        g = SpaceGrid(nx=nx)
        xi = g.x[1:-1]
        z = solve(np.zeros(nx), 1.0, np.pi**2 * np.sin(np.pi * xi), g)
        errors.append(np.max(np.abs(z - np.sin(np.pi * g.x))))
    # measured constant is ~pi^2/12 ~ 0.82
    for err, nx in zip(errors, (15, 31, 63)):
        dx = 1.0 / (nx + 1)
        assert 0.4 * dx**2 < err < 1.5 * dx**2
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    for r in ratios:
        assert 4.0 * 0.85 <= r <= 4.0 * 1.15


def test_against_dense_oracle():
    rng = np.random.default_rng(7)
    for nx in (8, 33, 64):
        g = SpaceGrid(nx=nx)
        c = rng.uniform(0.0, 2.0, nx)
        kappa = rng.uniform(1e-4, 1.0)
        rhs = rng.normal(size=nx)
        z = solve(c, kappa, rhs, g)
        z_ref = dense_solve(c, kappa, rhs, nx)
        np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-10 * max(1.0, np.abs(rhs).max()))


def test_mixed_coefficient_case():
    nx = 31
    g = SpaceGrid(nx=nx)
    xi = g.x[1:-1]
    rhs = 0.5 * np.sin(np.pi * xi)
    z = solve(np.full(nx, 0.5), 1e-3, rhs, g)
    z_ref = dense_solve(np.full(nx, 0.5), 1e-3, rhs, nx)
    np.testing.assert_allclose(z, z_ref, atol=1e-12)


def test_weak_maximum_principle():
    # rhs >= 0 implies solution >= 0, exactly for the M-matrix
    rng = np.random.default_rng(11)
    g = SpaceGrid(nx=40)
    for _ in range(50):
        c = rng.uniform(0.0, 1.0, 40)
        rhs = rng.uniform(0.0, 1.0, 40)
        z = solve(c, rng.uniform(1e-6, 0.5), rhs, g)
        assert np.min(z) >= 0.0


def test_symmetry():
    nx = 41
    g = SpaceGrid(nx=nx)
    xi = g.x[1:-1]
    c = 1.0 + np.sin(np.pi * xi) ** 2
    rhs = np.exp(-((xi - 0.5) ** 2) * 10.0)
    z = solve(c, 0.3, rhs, g)
    np.testing.assert_allclose(z, z[::-1], atol=1e-12)


def test_apply_matches_laplacian():
    # the operator with c = 0, kappa = 1 is -Lap_h: it inverts laplacian
    g = SpaceGrid(nx=20)
    z = np.sin(np.pi * g.x) * 0.7
    np.testing.assert_allclose(solve(0.0, 1.0, -laplacian(z, g.dx), g), z, atol=1e-11)


def test_rows_solve_to_the_bits_of_separate_calls():
    # one stacked system, 0 on the off-diagonal at each join: every block
    # gets the bits of its own call, with c and kappa per row
    rng = np.random.default_rng(5)
    for nx in (1, 2, 64):
        g = SpaceGrid(nx=nx)
        c = rng.uniform(0.0, 2.0, (4, nx))
        kappa = rng.uniform(1e-4, 1.0, (4, 1))
        rhs = rng.normal(size=(4, nx))
        z = solve(c, kappa, rhs, g)
        assert z.shape == (4, nx + 2)
        for i in range(4):
            assert z[i].tobytes() == solve(c[i], float(kappa[i, 0]), rhs[i], g).tobytes()
        assert solve(c[0], kappa[:1], rhs[:1], g).tobytes() == z[:1].tobytes()


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def interior_solve(c, kappa, rhs, dx):
    """The reference: the systems posed on the interior nodes alone, rows stacked with a join of 0, solved by gtsv.

    c and rhs have shape (rows, nx) and kappa (rows, 1); a single node is
    one division.  z is zero-padded.
    """
    k = np.broadcast_to(kappa / dx**2, rhs.shape)
    main, off = c + 2.0 * k, -k.copy()
    off[:, -1] = 0.0
    zi = rhs / main if main.size == 1 else elliptic.dgtsv(off.ravel()[:-1], main.ravel(), off.ravel()[:-1], rhs.ravel())[3]
    return np.pad(zi.reshape(rhs.shape), ((0, 0), (1, 1)))


def full_grid_data(rng, rows, nx):
    """c, b and f of rows systems on the full grid: nonzero at the Dirichlet nodes, c down to -1e-13, b + f negative and signed zeros."""
    c = rng.uniform(0.0, 2.0, (rows, nx + 2))
    c[rng.random(c.shape) < 0.1] = -1e-13  # a population's rounding, clamped at 0
    b, f = rng.normal(size=(2, rows, nx + 2))
    zeros = rng.random(b.shape) < 0.25
    b[zeros], f[zeros] = -0.0, np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return c, b, f


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("nx", [1, 2, 7, 64])
def test_the_full_grid_solve_has_the_bits_of_the_interior_layout(rows, nx):
    # the operator poses each system on the full grid, each Dirichlet node
    # an identity row with a zero off-diagonal on both sides, and zeroes b
    # + f there (a history's boundary rows hold past data); every z, sign
    # bits and its +0 boundary included, has the bits of its own system
    # posed on the interior nodes.  Every fifth draw has a row with kappa =
    # 0; one row is passed as a field of shape (nx+2,), with a scalar kappa
    rng = np.random.default_rng(100 * rows + nx)
    g = SpaceGrid(nx=nx)
    for draw in range(40):
        c, b, f = full_grid_data(rng, rows, nx)
        kappa = rng.uniform(1e-4, 1.0, (rows, 1))
        if draw % 5 == 0:
            kappa[-1], c[-1] = 0.0, c[-1] + 0.5
        if rows == 1:
            z = Operator(float(kappa[0, 0]), g).solve(c[0], b[0], f[0], clamped=True)[None]
        else:
            z = Operator(kappa, g).solve(c, b, f, clamped=True)
        assert z.shape == (rows, nx + 2)
        for i in range(rows):
            c_i, rhs_i = np.maximum(c[i : i + 1, 1:-1], 0.0), (b[i : i + 1] + f[i : i + 1])[:, 1:-1]
            assert np.array_equal(bits(z[i]), bits(interior_solve(c_i, kappa[i : i + 1], rhs_i, g.dx)[0]))
        assert np.array_equal(bits(z[:, [0, -1]]), bits(np.zeros((rows, 2))))


@pytest.mark.parametrize("data, value", [("b", np.nan), ("b", np.inf), ("c", np.nan)])
def test_a_block_that_is_not_finite_spreads_to_every_row(data, value):
    # no row of the stack stays finite, and the interior nodes have the bits
    # (NaN payloads included) of the stack posed on the interior nodes
    rng = np.random.default_rng(8)
    g, kappa = SpaceGrid(nx=5), np.array([[0.1], [0.2], [0.3]])
    c, b, f = full_grid_data(rng, 3, 5)
    {"b": b, "c": c}[data][1, 3] = value
    z = Operator(kappa, g).solve(c, b, f, clamped=True)
    assert not np.isfinite(z).all(axis=1).any()
    want = interior_solve(np.maximum(c[:, 1:-1], 0.0), kappa, (b + f)[:, 1:-1], g.dx)
    assert np.array_equal(bits(z[:, 1:-1]), bits(want[:, 1:-1]))


def test_rows_are_checked_block_by_block():
    g = SpaceGrid(nx=4)
    c, kappa = np.ones((2, 4)), np.array([[0.1], [0.2]])
    with pytest.raises(DegenerateOperator, match="negative diffusion weight"):
        solve(c, -kappa, np.ones((2, 4)), g)
    with pytest.raises(DegenerateOperator, match="c == 0 and kappa == 0"):
        solve(np.array([[1.0] * 4, [0.0] * 4]), np.array([[0.0], [0.0]]), np.ones((2, 4)), g)
    solve(np.array([[0.0] * 4, [1.0] * 4]), np.array([[0.1], [0.0]]), np.ones((2, 4)), g)  # each row solvable


def test_residual_is_checked_per_block_at_its_own_scale(monkeypatch):
    # the second block's last interior node moved by 10 times its own bound:
    # caught, though the first block's ||rhs||_inf of 1e6 would let it through
    g = SpaceGrid(nx=5)
    c, kappa = np.full((2, 5), 0.5), np.array([[0.1], [0.1]])
    rhs = np.array([[1e6, -2.0, 3.0, 0.5, 0.25], [1.0, -2.0, 3.0, 0.5, 0.25]])
    main_last = 0.5 + 2.0 * (0.1 / g.dx**2)
    gtsv = elliptic.dgtsv

    def perturbed(*args):
        *head, x, info = gtsv(*args)
        x[-2] += 10.0 * 1e-10 * 3.0 / main_last
        return (*head, x, info)

    monkeypatch.setattr(elliptic, "dgtsv", perturbed)
    with pytest.raises(DegenerateOperator, match="residual"):
        solve(c, kappa, rhs, g)


def test_a_clamped_coefficient_is_not_checked_again():
    # a population (clamped) is checked at -1e-12, as the rounding of the
    # kinetics allows, and clamped at 0; every other caller's coefficient
    # is checked at 0
    g = SpaceGrid(nx=4)
    c = np.array([1.0, 2.0, -1e-300, 1.0])
    with pytest.raises(DegenerateOperator, match="negative coefficient"):
        solve(c, 1.0, np.ones(4), g)
    assert np.all(np.isfinite(solve(c, 1.0, np.ones(4), g, clamped=True)))
    with pytest.raises(DegenerateOperator, match="negative population coefficient -2e-12: kinetics bug"):
        solve(np.array([1.0, 2.0, -2e-12, 1.0]), 1.0, np.ones(4), g, clamped=True)


def test_importing_the_cli_leaves_scipy_linalg_unimported():
    src = os.path.dirname(os.path.dirname(linkages.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, linkages.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_the_kernel_is_scipy_linalg_lapack_dgtsv():
    import scipy.linalg.lapack

    assert elliptic.dgtsv is scipy.linalg.lapack.dgtsv


def test_a_missing_lapack_extension_names_its_path(monkeypatch, tmp_path):
    monkeypatch.setattr(elliptic, "scipy", types.SimpleNamespace(__path__=[str(tmp_path)]))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg" / "_flapack"))):
        elliptic._flapack()
