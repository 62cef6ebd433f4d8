"""itfkan: interpretable KAN-based time series forecasting.

Taylor-expansion KAN layers with symbolic prior injection, trend/seasonal
decomposition, time-frequency synergy learning, and a post-training
prune/symbolify interpretability pipeline, on a self-contained float64
autodiff engine.
"""

from .tensor import Tensor, Graph, ShapeError, backward, no_grad
from .optim import Adam

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "Graph",
    "ShapeError",
    "backward",
    "no_grad",
    "Adam",
    "__version__",
]
