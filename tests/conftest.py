from types import SimpleNamespace

import numpy as np
import pytest

from linkages.config import PastData, RateModel, SimulationConfig
from linkages.grids import AgeGrid, SpaceGrid
from linkages import presets


@pytest.fixture
def sgrid():
    return SpaceGrid(nx=15)


@pytest.fixture
def agrid():
    return AgeGrid(da=0.01, a_max=10.0)


def make_config(**overrides):
    """Constant-rate weak configuration on a small grid."""
    base = dict(
        epsilon=0.05,
        final_time=0.1,
        nx=15,
        da=0.01,
        a_max=10.0,
        rate_model=RateModel(),
        past_data=PastData(fn=presets.past_data_fn("sin_pi")),
        initial_density=presets.initial_density_fn("exp_decay"),
    )
    base.update(overrides)
    return SimulationConfig(**base)


@pytest.fixture
def weak_config():
    return make_config()


def capture_at(steps):
    """Observer for run_weak keeping z, rho and the delayed z at the given steps.

    The captures are appended to the observer's `captures` list.
    """

    def observe(n, st):
        if n in steps:
            observe.captures.append(SimpleNamespace(
                n=n, z=st.z.copy(), rho=st.rho.copy(), delayed_z=st.hist.matrix()
            ))

    observe.captures = []
    return observe


def dense_solve(c, kappa, rhs, nx):
    """Dense linear-algebra oracle for the tridiagonal kernel."""
    dx = 1.0 / (nx + 1)
    A = np.diag(np.broadcast_to(c, (nx,)) + 2.0 * kappa / dx**2)
    A -= np.diag(np.full(nx - 1, kappa / dx**2), 1)
    A -= np.diag(np.full(nx - 1, kappa / dx**2), -1)
    z = np.zeros(nx + 2)
    z[1:-1] = np.linalg.solve(A, rhs)
    return z
