"""Key-rate simulation and parameter optimization for twin-field QKD over asymmetric channels."""

__version__ = "0.1.0"

from .channel import (  # noqa: F401
    ArrivingIntensities,
    ChannelScenario,
    first_order_diagnostics,
    poisson_pmf_rows,
    x_basis_gain,
    x_basis_qber,
    yield_grid,
    z_basis_gain,
)
from .decoy import (  # noqa: F401
    DecoyObservations,
    EvaluationMode,
    LpProblem,
    sigma_multiplier_from_epsilon,
    yield_lp,
)
from .optimizer import (  # noqa: F401
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
    binary_entropy,
    cat_amplitude_rows,
    cat_state,
    key_rate,
    phase_error_upper_bound,
)
