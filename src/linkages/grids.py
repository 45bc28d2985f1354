"""Uniform space/age grids and the locked time stepping.

The time step is always dt = epsilon * da, so one step moves every
characteristic exactly one age cell and the delayed argument t - eps*a_j
lands on a stored time level (no interpolation anywhere).
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SpaceGrid:
    """Nodes x_i = i*dx on [0, 1]; first and last node carry Dirichlet data."""

    nx: int
    dx: float = field(init=False)
    x: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dx", 1.0 / (self.nx + 1))
        object.__setattr__(self, "x", np.linspace(0.0, 1.0, self.nx + 2))

    @property
    def n_nodes(self):
        return self.nx + 2

    @property
    def interior(self):
        return slice(1, self.nx + 1)

    def quad_weights(self):
        """Trapezoid weights in x (half weight at the Dirichlet nodes)."""
        w = np.full(self.nx + 2, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        return w


@dataclass(frozen=True)
class AgeGrid:
    """Nodes a_j = j*da up to a_max, with trapezoid quadrature weights."""

    da: float
    a_max: float
    na: int = field(init=False)
    a: np.ndarray = field(init=False)
    w: np.ndarray = field(init=False)

    def __post_init__(self):
        na = int(round(self.a_max / self.da))
        if abs(na * self.da - self.a_max) > 1e-9 * max(self.a_max, 1.0):
            raise ValueError(f"a_max={self.a_max} is not a multiple of da={self.da}")
        object.__setattr__(self, "na", na)
        object.__setattr__(self, "a", np.arange(na + 1) * self.da)
        w = np.full(na + 1, self.da)
        w[0] = w[-1] = 0.5 * self.da
        object.__setattr__(self, "w", w)

    @property
    def n_nodes(self):
        return self.na + 1


@dataclass(frozen=True)
class TimeStepping:
    """Step size dt = eps*da and total step count."""

    dt: float
    n_steps: int


def build_grids(config):
    """Build (SpaceGrid, AgeGrid, TimeStepping) from a validated configuration."""
    sgrid = SpaceGrid(nx=config.nx)
    agrid = AgeGrid(da=config.da, a_max=config.a_max)
    dt = config.epsilon * config.da
    n_steps = int(round(config.final_time / dt))
    return sgrid, agrid, TimeStepping(dt=dt, n_steps=n_steps)
