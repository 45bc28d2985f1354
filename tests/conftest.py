from types import SimpleNamespace

import numpy as np
import pytest

from linkages.config import PastData, RateModel, SimulationConfig
from linkages.grids import AgeGrid, SpaceGrid
from linkages.kinetics import apply_survival, cohort_weights, renew_cohorts
from linkages.position import advance_position, delay_quadrature
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


class CohortRing:
    """A density stepped as the weak shift path steps it: a cohort ring at head.

    Column (head + j) % (na+1) of ring holds the cohort of age j; head
    starts at 0, with rho (copied) in age order, and moves back one column
    per step like a PositionHistory's.  step keeps the renewal's m and lag
    and returns the new density in age order.
    """

    def __init__(self, rho):
        self.ring, self.head = np.array(rho, dtype=float), 0

    def step(self, surv, beta_values, agrid):
        new = (self.head - 1) % self.ring.shape[1]
        apply_survival(self.ring, surv, self.head)
        _, self.m, self.lag = renew_cohorts(self.ring, beta_values, cohort_weights(agrid.w, new), new)
        self.head = new
        return self.rho

    @property
    def rho(self):
        return np.roll(self.ring, -self.head, axis=1)


def position_step(rho, hist, eps, sgrid, agrid, source=None):
    """The weak shift path's position step for rho, the new level's density in age order.

    rho is laid out as a cohort ring at hist's next head, where the cohort
    of age j >= 1 shares its column with its anchor z^{n+1-j}, and the delay
    quadrature reads hist.buf in place.
    """
    new = (hist.head - 1) % hist.depth
    ring = np.roll(rho, new, axis=1)
    lag = cohort_weights(agrid.w, new)
    lag[new] = 0.0
    return advance_position(delay_quadrature(lag, ring, hist.buf), ring @ lag, hist, eps, sgrid, source)


def dense_solve(c, kappa, rhs, nx):
    """Dense linear-algebra oracle for the tridiagonal kernel."""
    dx = 1.0 / (nx + 1)
    A = np.diag(np.broadcast_to(c, (nx,)) + 2.0 * kappa / dx**2)
    A -= np.diag(np.full(nx - 1, kappa / dx**2), 1)
    A -= np.diag(np.full(nx - 1, kappa / dx**2), -1)
    z = np.zeros(nx + 2)
    z[1:-1] = np.linalg.solve(A, rhs)
    return z
