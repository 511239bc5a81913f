"""Pseudospectral abscissa of retarded linear time-delay systems.

The package predicts the epsilon-pseudospectral abscissa through a
spectral discretization plus a Hamiltonian criss-cross search, corrects
it with Gauss-Newton on the exact extremality equations, and ships
independent grid oracles for validation.
"""

from .corrector import AllStartsFailedError, CorrectionResult, correct
from .numerics import DelayPsaError
from .model import (
    PerturbationSpec,
    TimeDelaySystem,
    char_matrix,
    eval_level,
    eval_weight,
    shift_system,
)
from .oracle import GridRegion, contours, grid_level, grid_psa
from .pipeline import PsaResult, compute_psa
from .predictor import PredictionResult, predict, spectral_abscissa_exact

__version__ = "0.1.0"

__all__ = [
    "TimeDelaySystem",
    "PerturbationSpec",
    "char_matrix",
    "eval_weight",
    "eval_level",
    "shift_system",
    "predict",
    "PredictionResult",
    "spectral_abscissa_exact",
    "correct",
    "CorrectionResult",
    "AllStartsFailedError",
    "DelayPsaError",
    "compute_psa",
    "PsaResult",
    "GridRegion",
    "grid_level",
    "grid_psa",
    "contours",
    "__version__",
]
