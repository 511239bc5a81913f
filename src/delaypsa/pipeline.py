"""End-to-end pseudospectral abscissa computation: predict, then correct."""

from __future__ import annotations

from dataclasses import dataclass

from .corrector import CorrectionResult, correct
from .predictor import PredictionResult, predict


@dataclass(frozen=True)
class PsaResult:
    """Combined result: corrected abscissa plus both stage records."""

    alpha_eps: float
    omega_eps: float
    prediction: PredictionResult
    correction: CorrectionResult

    @property
    def warnings(self):
        return self.prediction.warnings + self.correction.warnings


def compute_psa(system, pert, N=15, tol=1e-3, gn_tol=None):
    """Compute the epsilon-pseudospectral abscissa of a retarded system.

    Runs the Hamiltonian criss-cross predictor at mesh order N to bracket
    the abscissa within tol, then runs Gauss-Newton from each frequency where
    the lower end was proved inside, on the exact extremality equations, to
    residual tolerance gn_tol.  The iteration budgets are fixed constants
    (predictor.BISECT_MAX_ITER, corrector.GN_MAX_ITER).  Returns a
    PsaResult; raises corrector.AllStartsFailedError when no start converges.
    """
    prediction = predict(system, pert, N=N, tol=tol)
    correction = correct(system, pert, prediction, gn_tol=gn_tol)
    return PsaResult(
        alpha_eps=correction.alpha_eps,
        omega_eps=correction.omega_eps,
        prediction=prediction,
        correction=correction,
    )
