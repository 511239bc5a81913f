"""Level-set prediction of the pseudospectral abscissa via Hamiltonian bisection.

For the discretized system the weighted resolvent norm along a vertical
line Re lam = sigma can be tested against the threshold 1/epsilon without
scanning frequencies: the test matrix

    H(sigma) = [[A_N - sigma I,  (w(sigma) eps) B_N B_N^T],
                [-(w(sigma) eps) B_N B_N^T,  -(A_N - sigma I)^T]]

has imaginary-axis eigenvalues exactly when the line still meets the
approximate pseudospectrum.  Bisection on sigma (with exponential search
for the initial upper bound) yields the predicted abscissa together with
the frequencies where the line touches the level set; both seed the
corrector.  Most trial sigmas are proved inside by one n x n singular
value at a candidate frequency, so the eigensolve of H runs only where
that certificate fails (see `bisect`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .discretization import (
    SingularResolventError,
    assemble,
    level_approx,
    spectral_abscissa_approx,
)
from .model import char_matrix, check_pair, eval_weight, shift_system


BISECT_MAX_ITER = 100  # bisection steps, doubling steps included


class PredictionError(numerics.DelayPsaError):
    """Bisection failed (iteration budget, or no boundary frequencies found)."""


@dataclass(frozen=True)
class SpectralAbscissa:
    """Rightmost-root estimate: value and the converged roots (empty on fallback)."""

    value: float
    roots: tuple


@dataclass(frozen=True)
class PredictionResult:
    """Predicted abscissa, boundary frequencies and bisection diagnostics.

    Built by `predict`.  alpha_pred and the bracket are reported in the
    original (unshifted) spectral coordinates; shift_used records the
    recentering applied before discretization and roots the characteristic
    roots that set it (those of `spectral_abscissa_exact`).  Frequencies are
    folded to omega >= 0, sorted, and deduplicated within 1e-8 * (1 + omega).
    """

    alpha_pred: float
    frequencies: np.ndarray
    iterations: int
    bracket: tuple
    shift_used: float
    warnings: tuple = ()
    roots: tuple = ()


def _newton_root(system, lam0, tol, max_iter):
    """Newton iteration on [F(lam) v; c* v - 1] = 0 from a starting guess."""
    n = system.n
    f = char_matrix(system, lam0)
    sv = numerics.svd_complex(f, vectors=True)
    v = sv.right_h[-1].conj()
    c = v.copy()
    lam = complex(lam0)
    for _ in range(max_iter):
        f = char_matrix(system, lam)
        res_top = f @ v
        res_norm = math.hypot(
            float(np.linalg.norm(res_top)), abs(c.conj() @ v - 1.0)
        )
        if res_norm <= tol:
            return lam, True
        jac = np.zeros((n + 1, n + 1), dtype=complex)
        jac[:n, :n] = f
        jac[:n, n] = char_matrix(system, lam, 1) @ v
        jac[n, :n] = c.conj()
        rhs = np.concatenate([-res_top, [1.0 - c.conj() @ v]])
        try:
            step = numerics.solve_complex(jac, rhs)
        except numerics.SingularMatrixError:
            return lam, False
        v = v + step[:n]
        lam = lam + step[n]
        if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
            return lam, False
    return lam, False


def spectral_abscissa_exact(system, disc):
    """Spectral abscissa of the true characteristic matrix.

    Newton-corrects the 10 rightmost eigenvalues of the collocation matrix
    on the exact root equations F(lam) v = 0, c* v = 1 (at most 40 steps
    each, to a residual of 1e-12 * (1 + max ||A_i||_2)).  Falls back to the
    discretized abscissa, with no roots, if no start converges.
    """
    vals = numerics.eig_real(disc.state_matrix)
    starts = vals[np.argsort(-vals.real)][:10]
    scale = 1.0 + max(np.linalg.norm(a, 2) for a in system.matrices)
    roots = []
    for lam0 in starts:
        lam, ok = _newton_root(system, lam0, tol=1e-12 * scale, max_iter=40)
        if ok:
            if not any(abs(lam - r) <= 1e-8 * (1.0 + abs(r)) for r in roots):
                roots.append(lam)
    if not roots:
        return SpectralAbscissa(spectral_abscissa_approx(disc), ())
    value = max(r.real for r in roots)
    roots.sort(key=lambda r: (-r.real, abs(r.imag)))
    return SpectralAbscissa(float(value), tuple(roots))


def hamiltonian(disc, pert, sigma):
    """Level-set test matrix at abscissa sigma for the discretized system."""
    w = eval_weight(pert, disc.system, sigma)
    coupling = (w * pert.epsilon) * (disc.input_matrix @ disc.input_matrix.T)
    shifted = disc.state_matrix - sigma * np.eye(disc.state_matrix.shape[0])
    return np.block([[shifted, coupling], [-coupling, -shifted.T]])


def imaginary_axis_frequencies(ham):
    """Nonnegative frequencies of the (numerically) imaginary eigenvalues.

    An eigenvalue lam counts as imaginary when |Re lam| <= tol_im * max(1, |lam|)
    with tol_im = 1e-8 * max(1, ||ham||_inf).  Frequencies are folded to
    omega >= 0, sorted, and merged within 1e-8 * (1 + omega).
    """
    tol_im = 1e-8 * max(1.0, np.linalg.norm(ham, np.inf))
    vals = numerics.eig_real(ham)
    mask = np.abs(vals.real) <= tol_im * np.maximum(1.0, np.abs(vals))
    omegas = np.sort(np.abs(vals[mask].imag))
    merged = []
    for w in omegas:
        if not merged or w - merged[-1] > 1e-8 * (1.0 + w):
            merged.append(float(w))
    return np.array(merged)


def _inside_certificate(disc, pert, sigma, candidates):
    """Index of the first candidate frequency proving sigma inside, or None.

    sigma_min(F_N(sigma + j*omega)) < eps * w(sigma) at one omega makes the
    norm of the transfer function along Re = sigma exceed 1/(eps w(sigma));
    as that norm decays to 0 at infinite frequency, the threshold is met at
    some real omega*, so H(sigma) has the imaginary eigenvalue j*omega*.  A
    1e-8 relative margin keeps the verdict clear of rounding.  A candidate
    on a pole of the rational interpolant proves nothing and is skipped; if
    every candidate is skipped, the eigensolve decides.
    """
    threshold = 1.0 / ((1.0 - 1e-8) * pert.epsilon)
    for k, omega in enumerate(candidates):
        try:
            if level_approx(disc, pert, sigma, omega) > threshold:
                return k
        except SingularResolventError:
            continue
    return None


def bisect(disc, pert, tol):
    """Bracket the discretized pseudospectral abscissa to width tol.

    Starts from sigma_lo = alpha(A_N) with the upper end at infinity; the
    step, starting at tol, doubles while no finite upper bound exists, then
    ordinary bisection takes over.  A trial sigma is first tested at a few
    candidate frequencies with `_inside_certificate` (one n x n singular
    value each); only when none proves sigma inside does the imaginary-axis
    test of `hamiltonian` decide.  The certificate implies that test's
    verdict, so the sigma sequence is the same as with eigensolves alone.
    Candidates are the last certified frequency, then the midpoints of the
    last eigensolve's crossings, initially the frequency of the rightmost
    eigenvalue of A_N.  Returns (sigma_lo, sigma_hi, frequencies, iterations)
    in the coordinates of disc: sigma_lo is the final lower end (inside the
    level set), and the frequencies are read off the test matrix there,
    reusing the eigensolve that set sigma_lo when there was one.  Raises
    PredictionError after BISECT_MAX_ITER steps.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    vals = numerics.eig_real(disc.state_matrix)
    rightmost = vals[np.argmax(vals.real)]
    sigma_lo = float(rightmost.real)
    candidates = [abs(rightmost.imag)]
    freqs_lo = None  # crossings of the eigensolve that set sigma_lo
    sigma_hi = math.inf
    delta = tol
    iterations = 0
    while sigma_hi - sigma_lo > tol:
        if iterations >= BISECT_MAX_ITER:
            raise PredictionError(
                f"bisection did not reach width {tol} in {BISECT_MAX_ITER} iterations"
            )
        if math.isinf(sigma_hi):
            delta *= 2.0
            sigma_mid = sigma_lo + delta
        else:
            sigma_mid = 0.5 * (sigma_lo + sigma_hi)
        k = _inside_certificate(disc, pert, sigma_mid, candidates)
        if k is not None:
            candidates.insert(0, candidates.pop(k))
            sigma_lo, freqs_lo = sigma_mid, None
        else:
            freqs = imaginary_axis_frequencies(hamiltonian(disc, pert, sigma_mid))
            if freqs.size:
                sigma_lo, freqs_lo = sigma_mid, freqs
                # each inside interval of the line is [0, f1] or [f_i, f_i+1]
                points = np.concatenate([[0.0], freqs])
                candidates = list(0.5 * (points[:-1] + points[1:]))
            else:
                sigma_hi = sigma_mid
        iterations += 1
    if freqs_lo is None:
        freqs_lo = imaginary_axis_frequencies(hamiltonian(disc, pert, sigma_lo))
    if freqs_lo.size == 0:
        raise PredictionError(
            "no boundary frequencies at the final lower bound; "
            "the imaginary-axis tolerance is too tight for this problem"
        )
    return sigma_lo, sigma_hi, freqs_lo, iterations


def predict(system, pert, N=15, tol=1e-3):
    """Predict the pseudospectral abscissa at mesh order N.

    Recenter the system at its exact spectral abscissa (so the
    discretization is most accurate where the level set is resolved), run
    the Hamiltonian bisection there to width tol, and report in original
    coordinates, with a warning when the shift is the discretized abscissa.
    """
    check_pair(system, pert)
    disc0 = assemble(system, N)
    sa = spectral_abscissa_exact(system, disc0)
    shifted_sys, shifted_pert = shift_system(system, pert, sa.value)
    disc = assemble(shifted_sys, N)
    sigma_lo, sigma_hi, freqs, iterations = bisect(disc, shifted_pert, tol)
    warnings = () if sa.roots else (
        "spectral abscissa: Newton correction failed for every start; "
        "using the discretized abscissa as the shift",
    )
    return PredictionResult(
        alpha_pred=sa.value + sigma_lo,
        frequencies=freqs,
        iterations=iterations,
        bracket=(sa.value + sigma_lo, sa.value + sigma_hi),
        shift_used=sa.value,
        warnings=warnings,
        roots=sa.roots,
    )
