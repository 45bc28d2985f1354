"""The scheme's own orders in the age step da and the space step dx.

Successive differences of run_weak and run_coupled trajectories, in
convergence_error's L2(Q_T) norm on a common output grid, must shrink at
the scheme's rates: first order in da (the rectangle survival factor, and
in the coupled model the Euler stretch) and second order in dx (the 3-point
Laplacian).  The sizes and the bounds are fixed in advance, from the
scheme, not from a measurement.
"""

import math

import numpy as np

from linkages.cli import coupled_config, reference_config
from linkages.config import validate_config
from linkages.diagnostics import convergence_error
from linkages.grids import SpaceGrid
from linkages.simulate import run_coupled, run_weak

DT_OUT = 0.005
COUPLED_DT_OUT = 0.004


def trajectory(nx, da):
    """The reference config's trajectory to t = 0.1 at eps = 0.05, sampled every DT_OUT."""
    vcfg = validate_config(reference_config(final_time=0.1, epsilon=0.05, nx=nx, da=da))
    return run_weak(vcfg, output_stride=round(DT_OUT / vcfg.dt), diag_stride=0).trajectory


def coupled_trajectory(nx, da):
    """The coupled config's positions to t = 0.1 at eps = 0.02, copied every COUPLED_DT_OUT."""
    vcfg = validate_config(coupled_config(final_time=0.1, epsilon=0.02, nx=nx, da=da))
    stride, zs = round(COUPLED_DT_OUT / vcfg.dt), []
    run_coupled(vcfg, diag_stride=0, observers=[lambda n, st: n % stride or zs.append(st.z.copy())])
    return np.array(zs)


def orders(trajs, sgrid, dt_out=DT_OUT):
    """log2 of the ratios of successive differences, for a step halved each time."""
    diffs = [convergence_error(a, b, dt_out, sgrid) for a, b in zip(trajs, trajs[1:])]
    return [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]


def test_weak_scheme_is_first_order_in_da():
    got = orders([trajectory(32, da) for da in (0.02, 0.01, 0.005, 0.0025)], SpaceGrid(nx=32))
    assert all(abs(p - 1.0) <= 0.1 for p in got), got


def test_weak_scheme_is_second_order_in_dx():
    # nx + 1 = 16, 32, 64, 128 cells, each run read on the 16-cell nodes
    got = orders([trajectory(cells - 1, 0.01)[:, :: cells // 16] for cells in (16, 32, 64, 128)], SpaceGrid(nx=15))
    assert all(abs(p - 2.0) <= 0.1 for p in got), got


def test_coupled_scheme_is_first_order_in_da():
    trajs = [coupled_trajectory(16, da) for da in (0.02, 0.01, 0.005, 0.0025)]
    got = orders(trajs, SpaceGrid(nx=16), COUPLED_DT_OUT)
    assert all(abs(p - 1.0) <= 0.1 for p in got), got


def test_coupled_scheme_is_second_order_in_dx():
    # nx + 1 = 16, 32, 64, 128 cells, each run read on the 16-cell nodes
    trajs = [coupled_trajectory(cells - 1, 0.01)[:, :: cells // 16] for cells in (16, 32, 64, 128)]
    got = orders(trajs, SpaceGrid(nx=15), COUPLED_DT_OUT)
    assert all(abs(p - 2.0) <= 0.1 for p in got), got
