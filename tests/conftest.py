import math

import numpy as np
import pytest

from delaypsa import (
    GridRegion,
    PerturbationSpec,
    TimeDelaySystem,
    grid_psa,
    numerics,
)
from delaypsa.discretization import char_matrix_approx, spectral_abscissa_approx
from delaypsa.model import _CHUNK, char_matrix, check_pair, eval_weight
from delaypsa.oracle import frequency_bound
from delaypsa.predictor import SpectralAbscissa


@pytest.fixture
def one_delay():
    """Scalar feedback plant dx/dt = -x(t - 1)."""
    return TimeDelaySystem((0.0, 1.0), (np.array([[0.0]]), np.array([[-1.0]])))


@pytest.fixture
def one_delay_pert():
    return PerturbationSpec((1.0, 1.0), 0.1)


def delay_free(a):
    """Scalar plant dx/dt = a x(t); its pseudospectrum is the disk |z - a| <= eps."""
    return TimeDelaySystem((0.0,), (np.array([[float(a)]]),))


@pytest.fixture
def random_system():
    """Factory for small random retarded systems with unit weights."""

    def make(seed, n_max=3, m_max=2, epsilon=0.1, lo=-1.0, hi=1.0):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        mats = tuple(rng.uniform(lo, hi, (n, n)) for _ in range(m + 1))
        delays = (0.0,) + tuple(np.sort(rng.uniform(0.05, 1.0, m)))
        system = TimeDelaySystem(delays, mats)
        pert = PerturbationSpec((1.0,) * (m + 1), epsilon)
        return system, pert

    return make


# random plant recipes: rng, n, m -> TimeDelaySystem


def _criterion10_plant(rng, n, m):
    delays = (0.0,) + tuple(np.sort(rng.uniform(0.1, 1.0, m)))
    mats = tuple(rng.normal(0.0, 1.0, (n, n)) / math.sqrt(n)
                 for _ in range(m + 1))
    return TimeDelaySystem(delays, mats)


def _stiff_plant(rng, n, m):
    mats = tuple(rng.uniform(-2.0, 2.0, (n, n)) for _ in range(m + 1))
    delays = (0.0,) + tuple(np.sort(10.0 ** rng.uniform(-3.0, 1.0, m)))
    return TimeDelaySystem(delays, mats)


def _small_batch_plant(rng, n, m):
    # the small-batch benchmark workload's recipe
    mats = tuple(rng.uniform(-2.0, 2.0, (n, n)) for _ in range(m + 1))
    delays = (0.0,) + tuple(np.sort(rng.uniform(0.01, 1.0, m)))
    return TimeDelaySystem(delays, mats)


def _large_norm_plant(rng, n, m):
    # ROADMAP's large-norm recipe: matrices uniform(-50, 50), delays up to 1
    mats = tuple(rng.uniform(-50.0, 50.0, (n, n)) for _ in range(m + 1))
    delays = (0.0,) + tuple(np.sort(rng.uniform(0.01, 1.0, m)))
    return TimeDelaySystem(delays, mats)


def _wide_plant(rng, n, m):
    # the wrong-basin reproducer's recipe (ROADMAP item 1)
    mats = tuple(rng.uniform(-10.0, 10.0, (n, n)) for _ in range(m + 1))
    delays = (0.0,) + tuple(np.sort(rng.uniform(0.01, 3.0, m)))
    return TimeDelaySystem(delays, mats)


def far_left_plant():
    """F(lam) = lam + 400 - 1e-200 exp(-2 lam), unit weights, eps = 0.01:
    exp(-2 lam) overflows left of Re lam = -354.9, in F (a Newton start of
    the spectral abscissa goes there) and in w (the Gauss-Newton run does)."""
    return (TimeDelaySystem((0.0, 2.0), ([[-400.0]], [[1e-200]])),
            PerturbationSpec((1.0, 1.0), 0.01))


def grid_alpha_ref(system, pert, res):
    """The brute-force grid oracle's abscissa, on a 0.01-spaced region from
    just left of compute_psa's recentring shift to 0.5 right of its answer
    res, up to the frequency bound (at most 40)."""
    sa = res.prediction.shift_used
    wmax = min(frequency_bound(system, pert, sa - 0.05), 40.0)
    region = GridRegion(
        sa - 0.05, res.alpha_eps + 0.5, -0.02, wmax,
        max(41, int((res.alpha_eps + 0.55 - sa) / 0.01)),
        max(41, int((wmax + 0.02) / 0.01)),
    )
    return grid_psa(system, pert, region, refine_iters=3).value


# the per-start Newton loop that spectral_abscissa_exact ran before it
# refined its starts together; the batched iteration must reproduce it


def newton_root(system, lam0, tol, max_iter):
    """Newton iteration on [F(lam) v; c* v - 1] = 0 from a starting guess."""
    n = system.n
    f = char_matrix(system, lam0)
    v = numerics.svd_complex(f, vectors=True)[2][-1].conj()
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


def spectral_abscissa_reference(system, disc):
    """spectral_abscissa_exact with each start refined alone by newton_root."""
    vals = disc.eigenvalues
    starts = vals[np.argsort(-vals.real)][:10]
    scale = 1.0 + max(np.linalg.norm(a, 2) for a in system.matrices)
    roots = []
    for lam0 in starts:
        lam, ok = newton_root(system, lam0, tol=1e-12 * scale, max_iter=40)
        if ok:
            if not any(abs(lam - r) <= 1e-8 * (1.0 + abs(r)) for r in roots):
                roots.append(lam)
    if not roots:
        return SpectralAbscissa(spectral_abscissa_approx(disc), ())
    value = max(r.real for r in roots)
    roots.sort(key=lambda r: (-r.real, abs(r.imag)))
    return SpectralAbscissa(float(value), tuple(roots))


# char_matrix as it was before it filled one buffer in place, and the
# oracle's sigma_min sweep as it was before it called char_matrix; the
# kernels that replaced them must reproduce them bit for bit


def char_matrix_reference(system, lam, k=0):
    """k-th lam-derivative of F, one new stack per delay term."""
    lam = np.asarray(lam, dtype=complex)[..., None, None]
    f = (lam if k == 0 else float(k == 1)) * np.eye(system.n, dtype=complex)
    for tau, a in zip(system.delays, system.matrices):
        f = f - ((-tau) ** k * a) * np.exp(-lam * tau)
    return f


def smallest_singular_reference(system, lam):
    """sigma_min(F(lam)) at every point of the array lam, evaluated in chunks.

    Each chunk's stack lam*I - sum_i A_i exp(-lam*tau_i) is built in place
    through one scratch stack, so no stack is allocated per delay.
    """
    flat = lam.ravel()
    n = system.n
    eye = np.eye(n, dtype=complex)
    step = max(1, _CHUNK // (n * n))
    out = np.empty(flat.size)
    for start in range(0, flat.size, step):
        chunk = flat[start : start + step]
        mats = chunk[:, None, None] * eye
        tmp = np.empty_like(mats)
        for tau, a in zip(system.delays, system.matrices):
            np.multiply(np.exp(-chunk * tau)[:, None, None], a, out=tmp)
            np.subtract(mats, tmp, out=mats)
        out[start : start + len(chunk)] = numerics.singular_values(mats)[:, -1]
    return out.reshape(lam.shape)


# reference computations on the discretization, used only by tests


def input_matrix(disc):
    """B_N = [0; I]: the unit block in the last block row of (N+1)n x n."""
    n = disc.system.n
    return np.eye(disc.state_matrix.shape[0])[:, -n:]


def transfer_function(disc, lam):
    """B_N^T (lam I - A_N)^{-1} B_N, the n x n transfer function at lam.

    Equals the inverse of char_matrix_approx(disc, lam) wherever both are
    defined; raises SingularMatrixError when lam is an eigenvalue of A_N.
    """
    dim = disc.state_matrix.shape[0]
    b = input_matrix(disc)
    x = numerics.solve_complex(lam * np.eye(dim) - disc.state_matrix, b)
    return b.T @ x


def level_approx(disc, pert, sigma, omega):
    """Discretized level f_N(sigma + j*omega) = w(sigma) / sigma_min(F_N)."""
    smin = numerics.svd_complex(char_matrix_approx(disc, complex(sigma, omega)))[-1]
    with np.errstate(divide="ignore"):  # +inf at a root of F_N
        return eval_weight(pert, disc.system, sigma) / smin


def level_sup_profile(disc, pert, sigmas, omega_max, n_omega=400):
    """sup over omega >= 0 of f_N(sigma + j*omega), one value per sigma.

    Scans a uniform frequency grid on [0, omega_max] augmented with the
    imaginary parts of the eigenvalues of the collocation matrix (the sup
    turns into a narrow resonance spike as sigma approaches the discretized
    spectral abscissa, and the eigenvalue frequencies sit at those spikes),
    then sharpens the best candidate with golden-section search.
    """
    check_pair(disc.system, pert)
    eig_im = np.abs(numerics.eig_real(disc.state_matrix).imag)
    seeds = eig_im[eig_im <= omega_max]
    base = np.linspace(0.0, omega_max, n_omega)
    candidates = np.unique(np.concatenate([base, seeds]))
    out = []
    for sigma in np.atleast_1d(np.asarray(sigmas, dtype=float)):
        vals = np.array([level_approx(disc, pert, sigma, w) for w in candidates])
        k = int(np.argmax(vals))
        lo = candidates[max(k - 1, 0)]
        hi = candidates[min(k + 1, len(candidates) - 1)]
        out.append(_golden_max(
            lambda w: level_approx(disc, pert, sigma, w), lo, hi, vals[k]
        ))
    return np.array(out)


def _golden_max(fun, lo, hi, best_val):
    """Golden-section maximization on [lo, hi]; returns max(found, best_val)."""
    if hi <= lo:
        return best_val
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(80):
        if b - a < 1e-12 * (1.0 + abs(a)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return max(best_val, fc, fd)
