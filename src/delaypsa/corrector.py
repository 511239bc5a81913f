"""Gauss-Newton correction of a predicted pseudospectral abscissa point.

A rightmost point lam = sigma + j*omega of the epsilon-pseudospectrum
satisfies a nonlinear eigenvalue system: the doubled matrix

    H(lam, xi) = [[F(lam), -xi^{-2} I], [I, -F(lam)*]]

(with F the characteristic matrix and xi = 1/(eps * w(sigma)) the target
resolvent singular value) must be singular, and the active singular value
curve must be at an extremum in omega.  The unknowns are one complex null
vector x = [u; v], omega and sigma; as the real vector (Re x, Im x, omega,
sigma) they give 4n+2 degrees of freedom constrained by 4n+3 real
equations (null vector, anchor normalization, extremality), solved by
Gauss-Newton with the analytic Jacobian.  Starts come straight from the
predictor's frequency list.  The equations are posed on the exact F of the
caller's system: the predictor recenters only for its rational
approximation, and the recentered F at j*omega is F(sigma + j*omega)
exactly.  F, F' and F'' come from one `model.char_matrix` call in each
`jacobian`; each Gauss-Newton step makes one `jacobian` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .model import char_matrix, check_pair, eval_weight

GN_MAX_ITER = 50  # Gauss-Newton iterations per start
GN_TOL = 1e-10  # default residual tolerance, scaled by 1 + max ||A_i||_2


class AllStartsFailedError(numerics.DelayPsaError):
    """No Gauss-Newton start converged; the prediction cannot be corrected."""


def sv_threshold(pert, system, sigma):
    """Target singular value xi(sigma) = 1/(eps*w(sigma)) and its slope.

    w is strictly decreasing when a delayed weight is finite, so xi is
    nondecreasing in sigma; dxi/dsigma = -xi * w'(sigma)/w(sigma) >= 0.
    """
    w = eval_weight(pert, system, sigma)
    xi = 1.0 / (pert.epsilon * w)
    dxi = -xi * eval_weight(pert, system, sigma, 1) / w
    return xi, dxi


def build_nleig(system, lam, xi):
    """Doubled nonlinear eigenvalue matrix H(lam, xi), 2n x 2n.

    With f = char_matrix(system, lam) the blocks are [[f, -xi^{-2} I],
    [I, -f*]], where -f* is -conj(lam) I + sum_i A_i^T exp(-conj(lam)*tau_i).
    """
    return _nleig_from(char_matrix(system, lam), xi)


def _nleig_from(f, xi):  # `build_nleig` on f = F(lam)
    n = f.shape[0]
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, :n] = f
    h[:n, n:] = -(xi ** -2) * np.eye(n)
    h[n:, :n] = np.eye(n)
    h[n:, n:] = -f.conj().T
    return h


def start_vector(nleig_matrix):
    """Unit-norm smallest right singular vector, phase-fixed for reproducibility.

    The entry of largest magnitude is rotated to the positive real axis so
    reruns produce the same anchor.
    """
    x = numerics.svd_complex(nleig_matrix, vectors=True)[2][-1].conj()
    k = int(np.argmax(np.abs(x)))
    phase = x[k] / abs(x[k])
    x = x / phase
    return x / np.linalg.norm(x)


@dataclass
class CorrectorState:
    """Unknowns x = [u; v], omega, sigma of the extremality system, plus the anchor."""

    x: np.ndarray
    omega: float
    sigma: float
    anchor: np.ndarray

    def apply_step(self, step):
        m = len(self.x)
        self.x = self.x + step[:m] + 1j * step[m : 2 * m]
        self.omega = float(self.omega + step[2 * m])
        self.sigma = float(self.sigma + step[2 * m + 1])

    def fold(self):
        """Conjugate-fold to omega >= 0 (the mirror state solves the same system)."""
        if self.omega < 0.0:
            self.x = self.x.conj()
            self.anchor = self.anchor.conj()
            self.omega = -self.omega


def residual(system, pert, state):
    """Real residual vector r, length 4n+3, as returned by `jacobian`."""
    return jacobian(system, pert, state)[0]


def _put_real_form(jac, row, mat):
    """Write z -> mat z as [[Re mat, -Im mat], [Im mat, Re mat]] at jac[row, 0]."""
    p, q = mat.shape
    jac[row : row + p, :q] = mat.real
    jac[row : row + p, q : 2 * q] = -mat.imag
    jac[row + p : row + 2 * p, :q] = mat.imag
    jac[row + p : row + 2 * p, q : 2 * q] = mat.real


def jacobian(system, pert, state):
    """Residual r and its analytic Jacobian J, from one H at lam = sigma + j*omega.

    r, length 4n+3, has rows Re/Im of H(lam) x (4n), Re/Im of anchor* x - 1
    (2), and the extremality condition Im{ v* P u } (1), x = [u; v],
    P = F'(lam).  J, shape (4n+3, 4n+2), is in (Re x, Im x, omega, sigma);
    its x columns are the real forms of H and anchor*.  With pu = P u and
    qv = P* v, the omega column is dH/domega x = j [pu; qv] and the sigma
    column, which chains through F(lam) and through xi(sigma), is
    dH/dsigma x = [pu + 2 xi^-3 xi' v; -qv].
    """
    n = system.n
    x, u, v = state.x, state.x[:n], state.x[n:]
    xi, dxi = sv_threshold(pert, system, state.sigma)
    f, p, p2 = char_matrix(system, complex(state.sigma, state.omega), (0, 1, 2))
    h = _nleig_from(f, xi)
    pu = p @ u
    qv = p.conj().T @ v
    hx = h @ x
    norm_res = state.anchor.conj() @ x - 1.0
    r = np.concatenate([
        hx.real, hx.imag, [norm_res.real, norm_res.imag],
        [np.imag(v.conj() @ pu)],
    ])

    jac = np.zeros((4 * n + 3, 4 * n + 2))
    _put_real_form(jac, 0, h)
    _put_real_form(jac, 4 * n, state.anchor.conj()[None, :])
    dhx = np.stack([
        1j * np.concatenate([pu, qv]),
        np.concatenate([pu + 2.0 * xi ** -3 * dxi * v, -qv]),
    ], axis=1)
    jac[: 2 * n, 4 * n :] = dhx.real
    jac[2 * n : 4 * n, 4 * n :] = dhx.imag
    # g = Im(v* P u) = Im(qv* u) + Im(v* pu); dP/domega = j F'', dP/dsigma = F''
    s = v.conj() @ (p2 @ u)
    jac[4 * n + 2] = np.concatenate([
        -qv.imag, pu.imag, qv.real, -pu.real, [s.real, s.imag],
    ])
    return r, jac


@dataclass(frozen=True)
class GaussNewtonResult:
    """One Gauss-Newton run: where the iteration went and how it ended."""

    state: CorrectorState
    converged: bool
    status: str  # converged | max-iterations | diverged | rank-deficient | stalled
    iterations: int
    residual_norms: tuple


def gn_tolerance(gn_tol):
    """gn_tol as a float (GN_TOL for None); ValueError unless 0 < gn_tol < inf."""
    gn_tol = GN_TOL if gn_tol is None else float(gn_tol)
    if not 0.0 < gn_tol < math.inf:
        raise ValueError(f"gn_tol must be positive and finite, got {gn_tol!r}")
    return gn_tol


def gauss_newton(system, pert, start, gn_tol=GN_TOL):
    """Solve the extremality system from a CorrectorState start.

    Full-step Gauss-Newton through a dense least-squares solve, with one
    `jacobian` linearization per iteration.  status records the first exit
    met, tested in this order at each iterate: ||r|| <= gn_tol *
    (1 + max ||A_i||_2), the last step below 1e-14 relative, three
    consecutive residual increases, GN_MAX_ITER steps taken, a
    rank-deficient step; an iterate so far left that w(sigma) or
    F overflows is diverged.  A converged run takes one more step from the
    Jacobian of the converged iterate, unless it is rank deficient, so the
    error no longer depends on the start; the returned state is then one
    step past the last of residual_norms (the norms evaluated), and the step
    is not counted in iterations.  The result is also `correct`'s per-start
    record.  gn_tol is trusted: `correct` applies `gn_tolerance` to it.
    """
    state = CorrectorState(
        x=start.x.astype(complex),
        omega=float(start.omega),
        sigma=float(start.sigma),
        anchor=start.anchor.astype(complex),
    )
    threshold = gn_tol * (1.0 + max(system.norms))
    norms, grew, stalled, status = [], 0, False, None
    for iterations in range(GN_MAX_ITER + 1):
        try:
            with np.errstate(over="raise", invalid="raise"):
                r, jac = jacobian(system, pert, state)
        except (OverflowError, FloatingPointError):  # w or F far left
            status = "diverged"
            break
        norms.append(float(np.linalg.norm(r)))
        grew = grew + 1 if len(norms) >= 2 and norms[-1] > norms[-2] else 0
        if norms[-1] <= threshold:
            status = "converged"
        elif stalled:
            status = "stalled"
        elif grew >= 3:
            status = "diverged"
        elif iterations == GN_MAX_ITER:
            status = "max-iterations"
        else:
            try:
                step = numerics.least_squares_real(jac, r)
            except numerics.RankDeficientError:
                status = "rank-deficient"
        if status:
            break
        state.apply_step(step)
        unknowns = np.concatenate([state.x.real, state.x.imag,
                                   [state.omega, state.sigma]])
        stalled = np.linalg.norm(step) < 1e-14 * (1.0 + np.linalg.norm(unknowns))
    if status == "converged":
        try:  # polish with the Jacobian already built
            state.apply_step(numerics.least_squares_real(jac, r))
        except numerics.RankDeficientError:
            pass
        state.fold()
    return GaussNewtonResult(state, status == "converged", status, iterations,
                             tuple(norms))


@dataclass(frozen=True)
class CorrectionResult:
    """Corrected abscissa (max over converged starts) and diagnostics.

    per_start holds the GaussNewtonResult of each start, in frequency order.
    """

    alpha_eps: float
    omega_eps: float
    per_start: tuple
    warnings: tuple = ()


def correct(system, pert, prediction, gn_tol=None):
    """Correct a prediction: one Gauss-Newton run per predicted frequency.

    The omega_i are where the predictor proved alpha_pred inside; start
    vectors are the smallest singular vectors of the doubled matrix at
    lam = alpha_pred + j*omega_i; each converged run lands on an extremal point
    of the pseudospectrum boundary, and the corrected abscissa is the
    largest corrected sigma.  gn_tol passes `gn_tolerance` first.  Raises
    AllStartsFailedError when nothing converges; warns when the correction
    moves further than 10 x the prediction bracket width, or lands left of
    prediction.roots[0], if any (no rightmost point can: roots are inside).
    """
    check_pair(system, pert)
    gn_tol = gn_tolerance(gn_tol)
    freqs = np.atleast_1d(np.asarray(prediction.frequencies, dtype=float))
    if freqs.size == 0:
        raise ValueError("prediction carries no frequencies to correct")
    sigma0 = float(prediction.alpha_pred)
    xi0, _ = sv_threshold(pert, system, sigma0)
    outcomes = []
    for omega0 in freqs:
        x0 = start_vector(build_nleig(system, complex(sigma0, omega0), xi0))
        state0 = CorrectorState(x=x0, omega=float(omega0), sigma=sigma0, anchor=x0)
        outcomes.append(gauss_newton(system, pert, state0, gn_tol=gn_tol))
    winners = [s for s in outcomes if s.converged]
    if not winners:
        raise AllStartsFailedError(
            "no Gauss-Newton start converged; retry with a finer prediction "
            "(smaller tol or larger N)"
        )
    best = max(winners, key=lambda s: s.state.sigma).state
    warnings = []
    lo, hi = prediction.bracket
    if abs(best.sigma - prediction.alpha_pred) > 10.0 * (hi - lo):
        warnings.append(
            "correction moved more than 10x the prediction bracket width; "
            "consider a smaller predictor tol or a larger mesh order N"
        )
    if prediction.roots and best.sigma < prediction.roots[0].real:
        warnings.append(f"corrected abscissa {best.sigma!r} is left of the "
                        f"spectral abscissa {prediction.roots[0].real!r}; it "
                        "is not the rightmost point of the pseudospectrum")
    failed = len(outcomes) - len(winners)
    if failed:
        warnings.append(f"{failed} of {len(outcomes)} correction starts did not converge")
    return CorrectionResult(
        alpha_eps=float(best.sigma),
        omega_eps=float(best.omega),
        per_start=tuple(outcomes),
        warnings=tuple(warnings),
    )
