"""Level-set prediction of the pseudospectral abscissa via Hamiltonian tests.

For the discretized system the weighted resolvent norm along a vertical
line Re lam = sigma can be tested against the threshold 1/epsilon without
scanning frequencies: the test matrix

    H(sigma) = [[A_N - sigma I,  (w(sigma) eps) B_N B_N^T],
                [-(w(sigma) eps) B_N B_N^T,  -(A_N - sigma I)^T]]

has imaginary-axis eigenvalues exactly when the line still meets the
approximate pseudospectrum.  Criss-cross level raising brackets the
predicted abscissa: n x n singular values move sigma right along
horizontal lines and re-centre omega along vertical ones, and an
eigensolve of H tests each new vertical line (see `bisect`).  The
abscissa and the frequencies where it was proved inside seed the
corrector.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import numerics
from .discretization import (
    SingularResolventError,
    assemble,
    level_approx,
    reassemble,
    spectral_abscissa_approx,
)
from .model import (char_matrix, check_pair, eval_weight, shift_system,
                    shift_weights)


BISECT_MAX_ITER = 100  # rounds of `bisect` (one level-test eigensolve
                       # each), and of each `_horizontal_search`


class PredictionError(numerics.DelayPsaError):
    """The level-set search failed (round budget, or no boundary frequencies)."""


@dataclass(frozen=True)
class SpectralAbscissa:
    """Rightmost-root estimate: value and the converged roots (empty on fallback)."""

    value: float
    roots: tuple


@dataclass(frozen=True)
class PredictionResult:
    """Predicted abscissa, boundary frequencies and search diagnostics.

    Built by `predict`.  alpha_pred and the bracket are reported in the
    original (unshifted) spectral coordinates; shift_used records the
    recentering applied before discretization and roots the characteristic
    roots that set it (those of `spectral_abscissa_exact`).  Frequencies are
    those `bisect` returns: omega >= 0, sorted, one start each.
    """

    alpha_pred: float
    frequencies: np.ndarray
    iterations: int  # rounds of `bisect`, one level-test eigensolve each
    bracket: tuple
    shift_used: float
    warnings: tuple = ()
    roots: tuple = ()


def _newton_roots(system, starts, tol, max_iter):
    """Newton on [F(lam) v; c* v - 1] = 0 from all starts at once; (lam, ok).

    Each start runs as if alone: its residual is tested before each of at
    most max_iter steps, and a singular Jacobian or non-finite lam ends it.
    The live starts' lam, v and bordered Jacobian carry over from step to
    step, compacted only when some start stops.
    """
    n = system.n
    out = np.array(starts, dtype=complex)
    ok = np.zeros(out.shape, dtype=bool)
    live, lam = np.arange(out.size), out.copy()  # the live starts' indices and lam
    f, fp = char_matrix(system, lam, (0, 1))
    c = numerics.svd_complex(f, vectors=True).right_h[:, -1:]  # the rows c*
    v = c.conj().transpose(0, 2, 1)  # the columns v, with c* v = 1 at start
    jac = np.zeros((lam.size, n + 1, n + 1), dtype=complex)
    jac[:, n:, :n] = c  # the border row [c*, 0] never changes
    for _ in range(max_iter):
        res = np.concatenate([f @ v, jac[:, n:, :n] @ v - 1.0], axis=1)
        # ||res|| >= max |res_i|, so only rows that can pass are squared: a
        # far-off start's residual is finite, but its square can overflow
        small = np.abs(res[:, :, 0]).max(axis=1) <= tol
        if small.any():
            small[small] = np.linalg.norm(res[small, :, 0], axis=1) <= tol
            ok[live[small]], out[live], keep = True, lam, ~small
            live, lam, v, jac, f, fp, res = [
                x[keep] for x in (live, lam, v, jac, f, fp, res)]
            if not live.size:
                break
        jac[:, :n] = np.concatenate([f, fp @ v], axis=2)
        try:
            step, solved = numerics.solve_complex(jac, -res), True
        except numerics.SingularMatrixError:  # drop only the singular ones
            step, solved = np.zeros_like(res), np.ones(live.size, dtype=bool)
            for i in range(live.size):
                try:
                    step[i] = numerics.solve_complex(jac[i], -res[i])
                except numerics.SingularMatrixError:
                    solved[i] = False
        v += step[:, :n]
        lam += step[:, n, 0]
        keep = solved & np.isfinite(lam)
        if not keep.all():
            out[live] = lam
            live, lam, v, jac = [x[keep] for x in (live, lam, v, jac)]
        f, fp = char_matrix(system, lam, (0, 1))
    out[live] = lam
    return out, ok


def spectral_abscissa_exact(system, disc):
    """Spectral abscissa of the true characteristic matrix.

    Newton-corrects the 10 rightmost eigenvalues of the collocation matrix
    on the exact root equations F(lam) v = 0, c* v = 1, all starts together
    (`_newton_roots`), each with its own 40 steps, residual tolerance
    1e-12 * (1 + max ||A_i||_2) and failure exit, as if alone.  A start that
    is an earlier one or its conjugate takes that one's result, conjugated
    as F(conj lam) = conj F(lam).  Falls back to the discretized abscissa,
    with no roots, if no start converges.
    """
    vals = disc.eigenvalues
    starts = vals[np.argsort(-vals.real)][:10]
    _, own, src = np.unique(starts.real + 1j * abs(starts.imag),
                            return_index=True, return_inverse=True)
    lams, oks = _newton_roots(system, starts[own],
                              1e-12 * (1.0 + max(system.norms)), max_iter=40)
    lams = np.where(starts == starts[own][src], lams[src], lams[src].conj())
    oks = oks[src]
    roots = []
    for lam in lams[oks].tolist():  # deduplicated in start order
        if not any(abs(lam - r) <= 1e-8 * (1.0 + abs(r)) for r in roots):
            roots.append(lam)
    if not roots:
        return SpectralAbscissa(spectral_abscissa_approx(disc), ())
    roots.sort(key=lambda r: (-r.real, abs(r.imag)))
    return SpectralAbscissa(roots[0].real, tuple(roots))


def hamiltonian(disc, pert, sigma):
    """Level-set test matrix H(sigma) for the discretized system; its
    coupling blocks +-eps w(sigma) B_N B_N^T are +-eps w(sigma) I in the
    last n x n block, as B_N = [0; I]."""
    w = eval_weight(pert, disc.system, sigma)
    dim, n = disc.state_matrix.shape[0], disc.system.n
    coupling = np.zeros((dim, dim))
    coupling[-n:, -n:] = (w * pert.epsilon) * np.eye(n)
    shifted = disc.state_matrix - sigma * np.eye(dim)
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


def _narrow(gap, a, ga, b, gb, width):
    """Shrink a bracket, gap(a) < 0 <= gap(b), to |b - a| <= width.

    Illinois regula falsi that bisects when two steps have not halved the
    bracket.  Interpolated points keep width/2 from both ends, so the
    bracket closes once the estimate settles; one that rounds to an end is
    replaced by the midpoint, and the search stops where that rounds to an
    end too.  Returns (a, gap(a)).
    """
    side, widths = 0, [math.inf, math.inf]
    while abs(b - a) > width:
        lo, hi = min(a, b), max(a, b)
        x = 0.5 * (a + b)
        if abs(b - a) <= 0.5 * widths[-2] and gb < math.inf:
            t = a - ga * (b - a) / (gb - ga)
            t = min(max(t, lo + 0.5 * width), hi - 0.5 * width)
            x = t if lo < t < hi else x
        widths.append(abs(b - a))
        if not lo < x < hi:
            break
        gx = gap(x)
        if gx < 0.0:
            a, ga, gb, side = x, gx, 0.5 * gb if side < 0 else gb, -1
        else:
            b, gb, ga, side = x, gx, 0.5 * ga if side > 0 else ga, 1
    return a, ga


def _horizontal_search(disc, pert, omega, sigma, sigma_hi, tol):
    """Rightmost (sigma, omega) proved inside near Im lam = omega, or -inf.

    sigma_min(F_N(sigma + j*omega)) < eps w(sigma) by a 1e-8 relative margin
    proves that H(sigma) has an imaginary eigenvalue: the transfer-function
    norm along Re = sigma exceeds 1/(eps w(sigma)) there and decays to 0 at
    infinite frequency.  A pole of the rational interpolant proves nothing.
    A local criss-cross with n x n work: find the edge along the horizontal
    line (to tol/4, below sigma_hi), then the inside interval of the
    vertical line there (its ends to 1% of its length, or tol), and repeat
    from its middle until a round gains less than tol/2.  An interval that
    reaches the real axis is [-u, u], as the set is symmetric (u is found
    like any end); 0 and u/2 are both tried.  Walks to an edge step
    max(tol, 1e-3), then double the step, or go 1.25 times as far as the
    zero of the secant through the last two points when the gap rose and
    that is farther.  omega is where sigma was proved (the start's on -inf).
    """
    target = (1.0 - 1e-8) * pert.epsilon

    def gap(s, w):  # negative proves s + j*w inside
        try:
            return 1.0 / level_approx(disc, pert, s, w) - target
        except SingularResolventError:
            return math.inf

    def walk(f, a, fa, sign, stop, f_stop):
        # from a, inside, toward stop: (a, f(a), b, f(b)) at the first
        # point b not proved inside, or at b = stop
        step = max(tol, 1e-3)
        while True:
            b = a + sign * step
            if sign * (b - stop) >= 0.0:
                return a, fa, stop, fa if a == stop else f_stop()
            fb = f(b)
            if not fb < 0.0:
                return a, fa, b, fb
            lead = 1.25 * fb * step / (fa - fb) if fb > fa else 0.0
            a, fa, step = b, fb, max(2.0 * step, lead)

    def horizontal(w, s, g):
        along = partial(gap, w=w)
        bracket = walk(along, s, g, 1.0, sigma_hi, lambda: math.inf)
        return _narrow(along, *bracket, 0.25 * tol)

    g = gap(sigma, omega)
    if not g < 0.0:
        return -math.inf, omega
    sigma, g = horizontal(omega, sigma, g)
    for _ in range(BISECT_MAX_ITER):
        across = partial(gap, sigma)
        down = walk(across, omega, g, -1.0, 0.0, partial(across, 0.0))
        up = walk(across, omega, g, 1.0, math.inf, None)
        width = max(0.01 * (up[2] - down[2]), tol)
        u = _narrow(across, *up, width)[0]
        if down[3] < 0.0:  # inside on the real axis
            trials = [0.0, 0.5 * u]
        else:
            trials = [0.5 * (u + _narrow(across, *down, width)[0])]
        best = (sigma, omega, g)
        for w in trials:
            gw = across(w) if w != omega else math.inf
            if gw < 0.0:
                s, gs = horizontal(w, sigma, gw)
                if s > best[0]:
                    best = (s, w, gs)
        gained, (sigma, omega, g) = best[0] - sigma, best
        if not gained >= 0.5 * tol:
            break
    return sigma, omega


def _check_tol(tol):
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def bisect(disc, pert, tol, roots=()):
    """Bracket the discretized pseudospectral abscissa to width tol.

    Criss-cross level raising (Burke, Lewis and Overton, 2003).  The first
    round searches at the frequencies (omega >= 0) of the three rightmost
    roots (characteristic roots in disc's coordinates), each from its real
    part, and at 0 from the rightmost's.  Unless that proves a point at or
    right of the rightmost root inside (a line with no crossings bounds the
    set only right of every eigenvalue of A_N, and the rightmost root
    stands in for the rightmost one), or without roots, it starts again
    from sigma_lo = alpha(A_N), with candidates the frequencies of the
    three rightmost eigenvalues of A_N (omega >= 0) and 0.
    Each round moves sigma_lo to the best point `_horizontal_search` proves
    inside near a candidate (each starting at the best point so far, which
    a later one need only beat); that point is usually within tol of a
    locally rightmost one.  The round then tests sigma_lo + tol with an
    eigensolve of `hamiltonian`: no crossings end the search; crossings
    f_1 < ... < f_k make it sigma_lo, with candidates 0 (the middle of
    [-f_1, f_1]; the set is symmetric) and (f_i + f_i+1)/2.  A round with
    no candidate proved inside (poles, tangency) takes the eigensolve
    bisection step instead.
    Returns (sigma_lo, sigma_hi, frequencies, iterations) in disc's
    coordinates: sigma_lo proved inside, sigma_hi outside by an eigensolve,
    where sigma_lo was proved (a search's omega, or the crossings of the
    eigensolve that set it; one more eigensolve reads the crossings only
    when neither did), and the rounds (one eigensolve each).
    Raises PredictionError after BISECT_MAX_ITER rounds, and ValueError
    unless 0 < tol < inf.
    """
    _check_tol(tol)
    folded = sorted(dict.fromkeys((r.real, abs(r.imag)) for r in roots),
                    key=lambda r: -r[0])[:3]
    sigma_lo, candidates = -math.inf, {}  # omega -> where its search starts
    for s, w in [*folded, (folded[0][0], 0.0)] if folded else ():
        candidates.setdefault(w, s)
    freqs_lo = None  # where sigma_lo was proved inside
    sigma_hi, delta, iterations = math.inf, tol, 0
    while sigma_hi - sigma_lo > tol:
        if iterations >= BISECT_MAX_ITER:
            raise PredictionError(f"level-set search did not reach width "
                                  f"{tol} in {BISECT_MAX_ITER} iterations")
        best = -math.inf
        for omega, start in candidates.items():  # later ones need only beat best
            s, w = _horizontal_search(
                disc, pert, omega, max(start, best), sigma_hi, tol)
            if s > best:
                best, best_omega = s, w
        if sigma_lo == -math.inf and not (folded and best >= folded[0][0]):
            vals = disc.eigenvalues
            upper = vals[vals.imag >= 0.0]
            rightmost = upper[np.argsort(-upper.real)][:3]
            sigma_lo = float(rightmost[0].real)
            candidates = dict.fromkeys([*rightmost.imag.tolist(), 0.0], sigma_lo)
            continue
        if best > sigma_lo or (best == sigma_lo and freqs_lo is None):
            sigma_lo, freqs_lo = best, np.array([best_omega])
        if best == sigma_lo:  # some candidate was proved inside
            if sigma_hi - sigma_lo <= tol:
                break
            sigma_mid = sigma_lo + tol
            while sigma_mid - sigma_lo > tol:  # rounding must not widen it
                sigma_mid = math.nextafter(sigma_mid, sigma_lo)
        elif math.isinf(sigma_hi):
            delta *= 2.0
            sigma_mid = sigma_lo + delta
        else:
            sigma_mid = 0.5 * (sigma_lo + sigma_hi)
        freqs = imaginary_axis_frequencies(hamiltonian(disc, pert, sigma_mid))
        if freqs.size:
            sigma_lo, freqs_lo = sigma_mid, freqs
            candidates = dict.fromkeys([0.0, *(0.5 * (freqs[:-1] + freqs[1:]))],
                                       sigma_lo)
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


# system -> {N: (SpectralAbscissa, recentered Discretization)}; the values
# hold the shifted system, never the key, so an entry dies with its system
_RECENTERED = weakref.WeakKeyDictionary()


def predict(system, pert, N=15, tol=1e-3):
    """Predict the pseudospectral abscissa at mesh order N.

    Recenter the system at its exact spectral abscissa (so the
    discretization is most accurate where the level set is resolved), run
    `bisect`'s criss-cross search there from the recentered roots to width
    tol, and report in original coordinates, with a warning when the shift
    is the discretized abscissa.  The recentering (one assembly and one
    eigensolve of A_N; `reassemble` gives the recentered A_N) depends only
    on the system and N: it runs on the first call for a system object and
    N, and later calls reuse it.  Raises ValueError, before any assembly,
    unless 0 < tol < inf.
    """
    check_pair(system, pert)
    _check_tol(tol)
    recentered = _RECENTERED.setdefault(system, {})
    if N not in recentered:
        disc = assemble(system, N)
        sa = spectral_abscissa_exact(system, disc)
        shifted_sys = shift_system(system, pert, sa.value)[0]
        recentered[N] = sa, reassemble(disc, shifted_sys)
    sa, disc = recentered[N]
    shifted_pert = shift_weights(system, pert, sa.value)
    sigma_lo, sigma_hi, freqs, iterations = bisect(
        disc, shifted_pert, tol, tuple(r - sa.value for r in sa.roots))
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
