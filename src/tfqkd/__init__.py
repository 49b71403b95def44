"""Key-rate simulation and parameter optimization for twin-field QKD over asymmetric channels."""

__version__ = "0.1.0"

from .channel import (  # noqa: F401
    ArrivingIntensities,
    ChannelScenario,
    arriving_intensity,
    first_order_diagnostics,
    x_basis_gain,
    x_basis_qber,
    yield_grid,
    z_basis_gain,
)
from .decoy import (  # noqa: F401
    DecoyObservations,
    LpProblem,
    build_problem,
    observations_from_scenario,
    sigma_multiplier_from_epsilon,
    solve_yield_bounds,
    widened_gain_interval,
)
from .optimizer import (  # noqa: F401
    EvaluationMode,
    KeyRateReport,
    ProtocolParameters,
    Strategy,
    add_fibre_transform,
    coordinate_descent,
    evaluate_key_rate,
    multistart,
    optimize_strategy,
)
from .security import (  # noqa: F401
    CatStateCoefficients,
    binary_entropy,
    cat_coefficients,
    key_rate,
    phase_error_bound_from_matrix,
)
