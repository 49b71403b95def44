"""Key-rate simulation and parameter optimization for twin-field QKD over asymmetric channels."""

__version__ = "0.1.0"

from .channel import ChannelScenario  # noqa: F401
from .decoy import EvaluationMode  # noqa: F401
from .optimizer import ProtocolParameters, Strategy, evaluate_key_rate, optimize_strategy  # noqa: F401
