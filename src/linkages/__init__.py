"""Age-structured adhesion-bond kinetics coupled to an elastic position field.

A bond population rho(x, a, t), structured by age a, exchanges momentum with
a position field z(x, t) through a memory (Volterra) operator; in the small
scale limit the memory term becomes a friction coefficient and z obeys a
heat equation.  The fully coupled mode lets the bond off-rate depend on the
elongation, which can tear the population off wherever the on-rate vanishes.
"""

from .config import (
    PastData,
    RateModel,
    SimulationConfig,
    SourceModel,
    load_config,
    validate_config,
    with_overrides,
)
from .coupled import (
    CoupledState,
    coupled_step,
    riccati_gamma2,
    solve_velocity,
)
from .diagnostics import (
    DiagnosticsRecord,
    convergence_error,
    lyapunov_H,
    stretch_integrals,
)
from .elliptic import solve
from .grids import AgeGrid, SpaceGrid, TimeStepping, build_grids
from .kinetics import (
    LimitDensity,
    init_density,
    limit_density,
    survival,
)
from .limit import step_limit
from .position import (
    PositionHistory,
    initial_position,
)
from .simulate import (
    run_convergence_sweep,
    run_coupled,
    run_detachment,
    run_limit,
    run_weak,
)

__version__ = "0.1.0"
