from types import SimpleNamespace

import numpy as np
import pytest

from linkages.config import PastData, RateModel, SimulationConfig
from linkages.elliptic import Operator
from linkages.grids import AgeGrid, SpaceGrid
from linkages.kinetics import CohortRing, renew
from linkages.position import PositionHistory
from linkages import presets
from oracles import age_order


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
                n=n, z=st.z.copy(), rho=st.rho.copy(), delayed_z=age_order(st.hist)
            ))

    observe.captures = []
    return observe


def density_stepper(rho, agrid):
    """Step a copy of rho, in age order, as run_weak steps its density: on a kinetics.CohortRing.

    The ring reads a PositionHistory of zeros, whose push moves its head.
    Returns step(surv, beta_values), which takes one step with the survival
    factor surv and returns the new density in age order.
    """
    zeros = np.zeros(rho.shape[0])
    hist = PositionHistory(zeros, np.zeros(rho.shape))
    ring = CohortRing(np.array(rho, dtype=float), None, hist, agrid)

    def step(surv, beta_values):
        ring.surv = surv
        births, _ = renew(beta_values, 1.0 + beta_values * agrid.w[0], ring.sums()[0], agrid.w[0])
        ring.push(births, zeros)
        return ring.density()

    return step


def position_step(rho, hist, eps, sgrid, agrid, source=None):
    """The weak step's position solve for rho, the new level's density in age order.

    rho is laid out as a kinetics.CohortRing at hist's next head, where the
    cohort of age j >= 1 shares its column with its anchor z^{n+1-j}; a
    survival factor of ones leaves it as it is, and the ring's sums read
    hist.buf in place.
    """
    new = (hist.head - 1) % hist.depth
    ring = CohortRing(np.roll(rho, new, axis=1), np.ones((rho.shape[0], rho.shape[1] - 1)), hist, agrid)
    m, q = ring.sums()
    z = Operator(eps, sgrid).solve(m, q, None if source is None else eps * source, clamped=True)
    hist.push(z)
    return z


def dense_solve(c, kappa, rhs, nx):
    """Dense linear-algebra oracle for the tridiagonal kernel."""
    dx = 1.0 / (nx + 1)
    A = np.diag(np.broadcast_to(c, (nx,)) + 2.0 * kappa / dx**2)
    A -= np.diag(np.full(nx - 1, kappa / dx**2), 1)
    A -= np.diag(np.full(nx - 1, kappa / dx**2), -1)
    z = np.zeros(nx + 2)
    z[1:-1] = np.linalg.solve(A, rhs)
    return z
