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
    asymptotic_profile,
    coupled_step,
    init_elongation,
    mu_ode_residual,
    riccati_gamma2,
    riccati_p,
    solve_velocity,
    step_elongation,
)
from .diagnostics import (
    DiagnosticsRecord,
    convergence_error,
    dissipation,
    energy,
    energy_from_elongation,
    lyapunov_H,
    rho_convergence_H,
    stability_functional,
)
from .elliptic import TridiagonalOperator, assemble, laplacian, solve
from .grids import AgeGrid, SpaceGrid, TimeStepping, build_grids
from .kinetics import (
    LimitDensity,
    density_characteristics_oracle,
    init_density,
    limit_density,
    moment,
    oracle_density_field,
    oracle_mu0_history,
    step_density,
)
from .limit import step_limit
from .position import (
    PositionHistory,
    initial_position,
    step_position,
    volterra_residual,
)
from .simulate import (
    run_convergence_sweep,
    run_coupled,
    run_detachment,
    run_limit,
    run_weak,
)

__version__ = "0.1.0"
