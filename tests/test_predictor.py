import gc
import math
import time
import weakref

import numpy as np
import pytest

from delaypsa import PerturbationSpec, TimeDelaySystem, eval_weight, predict
from delaypsa import numerics, predictor
from delaypsa.discretization import (
    assemble,
    level_approx,
    spectral_abscissa_approx,
)
from delaypsa.model import char_matrix, shift_system
from delaypsa.numerics import svd_complex
from delaypsa.predictor import (
    PredictionError,
    bisect,
    hamiltonian,
    imaginary_axis_frequencies,
    spectral_abscissa_exact,
)

from conftest import (
    _criterion10_plant,
    _small_batch_plant,
    _stiff_plant,
    _wide_plant,
    delay_free,
    input_matrix,
    newton_root,
    spectral_abscissa_reference,
)

# principal root pair of lam + exp(-lam) = 0, frozen from an independent
# Newton iteration at 1e-14 residual
SA_ONE_DELAY = -0.3181315052047662
OMEGA_PRINCIPAL = 1.337235701430689


# --- exact spectral abscissa -------------------------------------------------


def test_abscissa_one_delay_frozen(one_delay):
    sa = spectral_abscissa_exact(one_delay, assemble(one_delay, 15))
    assert sa.roots
    assert abs(sa.value - SA_ONE_DELAY) < 1e-10
    principal = sa.roots[0]
    assert abs(principal.real - SA_ONE_DELAY) < 1e-10
    assert abs(abs(principal.imag) - OMEGA_PRINCIPAL) < 1e-10


def test_abscissa_roots_come_in_conjugate_pairs(one_delay):
    sa = spectral_abscissa_exact(one_delay, assemble(one_delay, 15))
    complex_roots = [r for r in sa.roots if abs(r.imag) > 1e-8]
    for r in complex_roots:
        assert any(abs(r.conjugate() - s) < 1e-8 for s in complex_roots)


def test_abscissa_delay_free():
    sys0 = TimeDelaySystem((0.0,), (np.diag([-1.0, -3.0]),))
    sa = spectral_abscissa_exact(sys0, assemble(sys0, 8))
    assert abs(sa.value - (-1.0)) < 1e-12


def test_abscissa_scalar_undelayed():
    sa = spectral_abscissa_exact(delay_free(1.0), assemble(delay_free(1.0), 3))
    assert abs(sa.value - 1.0) < 1e-12


def test_abscissa_fallback_when_newton_fails(monkeypatch, one_delay,
                                            one_delay_pert):
    # with no converged root the shift is the discretized abscissa, read
    # from the one eigensolve of the unshifted A_N
    a_n = assemble(one_delay, 15).state_matrix
    on_a_n = []
    eig = numerics.eig_real

    def counted(matrix):
        on_a_n.append(np.array_equal(matrix, a_n))
        return eig(matrix)

    monkeypatch.setattr(predictor, "_newton_roots",
                        lambda system, starts, tol, max_iter: [])
    monkeypatch.setattr(numerics, "eig_real", counted)
    res = predict(one_delay, one_delay_pert, N=15, tol=1e-3)
    assert sum(on_a_n) == 1
    assert any("Newton correction failed for every start" in w
               for w in res.warnings)
    assert res.roots == ()
    assert res.shift_used == spectral_abscissa_approx(assemble(one_delay, 15))


@pytest.mark.parametrize("recipe", [_small_batch_plant, _wide_plant,
                                    _criterion10_plant, _stiff_plant])
def test_abscissa_matches_per_start_reference(recipe):
    # refining the starts together changes no start's iteration: the
    # same value and roots, up to rounding of the stacked products
    for seed in range(40):
        rng = np.random.default_rng([18, seed])
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        system = recipe(rng, n, m)
        disc = assemble(system, 15)
        got = spectral_abscissa_exact(system, disc)
        want = spectral_abscissa_reference(system, disc)
        assert len(got.roots) == len(want.roots)
        for a, b in zip((got.value, *got.roots), (want.value, *want.roots)):
            assert abs(a - b) <= 1e-15 * abs(b)


@pytest.mark.parametrize("failure", ["singular", "non-finite"])
def test_newton_failed_start_leaves_the_others(monkeypatch, failure):
    # one start's Jacobian is singular, or its first step infinite: that
    # start adds no root, and every other start ends as it does alone
    system = _small_batch_plant(np.random.default_rng(7), 2, 2)
    vals = assemble(system, 15).eigenvalues
    starts = vals[np.argsort(-vals.real)][:10]
    tol = 1e-12 * (1.0 + max(system.norms))
    want = [newton_root(system, s, tol, 40) for s in starts]
    bad = next(k for k, (_, ok) in enumerate(want)  # one that takes a step
               if ok and not newton_root(system, starts[k], tol, 1)[1])
    anchor = svd_complex(char_matrix(system, starts[bad]),
                         vectors=True).right_h[-1]  # its row c*
    solve, n = numerics.solve_complex, system.n

    def failing(a, b):
        hit = np.all(a[..., n, :n] == anchor, axis=-1)
        if failure == "singular" and hit.any():
            raise numerics.SingularMatrixError("singular")
        x = solve(a, b)
        if failure == "non-finite":
            x[hit] = np.inf
        return x

    monkeypatch.setattr(numerics, "solve_complex", failing)
    got = predictor._newton_roots(system, starts, tol, 40)
    others = [lam_k for k, (lam_k, ok_k) in enumerate(want) if ok_k and k != bad]
    assert len(got) == len(others) == sum(ok_k for _, ok_k in want) - 1
    for lam, lam_k in zip(got, others):  # in start order
        assert abs(lam - lam_k) <= 1e-15 * abs(lam_k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_stops_when_no_start_is_left(monkeypatch):
    # F(lam) = lam + 800: every start steps onto -800, where exp(-lam) in F
    # overflows, so each ends within a step; the empty stack then ends the
    # iteration (stepping on to the 40-step budget made 41 calls)
    calls = []

    def counted(system, lam, k=0):
        calls.append(np.size(lam))
        return char_matrix(system, lam, k)

    monkeypatch.setattr(predictor, "char_matrix", counted)
    res = predict(TimeDelaySystem((0.0, 1.0), ([[-800.0]], [[0.0]])),
                  PerturbationSpec((1.0, 1.0), 0.01), N=15)
    assert res.roots == ()
    assert 1 <= len(calls) <= 2 and all(calls)  # none on an empty stack


def test_abscissa_roots_actually_solve(one_delay):
    sa = spectral_abscissa_exact(one_delay, assemble(one_delay, 15))
    for r in sa.roots:
        assert abs(r + np.exp(-r)) < 1e-10


# --- level-set test matrix ---------------------------------------------------


def test_hamiltonian_scalar_closed_form():
    a, eps, sigma = 0.7, 0.25, 0.3
    pert = PerturbationSpec((1.0,), eps)
    disc = assemble(delay_free(a), 0)
    ham = hamiltonian(disc, pert, sigma)
    assert np.allclose(ham, [[a - sigma, eps], [-eps, -(a - sigma)]])
    vals = np.linalg.eigvals(ham)
    expect = np.sqrt(complex((a - sigma) ** 2 - eps**2))
    assert np.allclose(np.sort_complex(vals), np.sort_complex([-expect, expect]))


def test_hamiltonian_eigenvalue_structure():
    # spectra of these test matrices are symmetric about both axes
    rng = np.random.default_rng(2)
    sys1 = TimeDelaySystem(
        (0.0, 0.8), (rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
    )
    pert = PerturbationSpec((1.0, 1.0), 0.2)
    vals = np.linalg.eigvals(hamiltonian(assemble(sys1, 6), pert, 0.1))
    for lam in vals:
        assert np.min(np.abs(vals - (-lam.conjugate()))) < 1e-8


def test_frequencies_scalar_inside():
    # sigma = a: eigenvalues +-j eps, one boundary frequency at eps
    eps = 0.25
    pert = PerturbationSpec((1.0,), eps)
    disc = assemble(delay_free(0.4), 0)
    freqs = imaginary_axis_frequencies(hamiltonian(disc, pert, 0.4))
    assert len(freqs) == 1
    assert abs(freqs[0] - eps) < 1e-12


def test_frequencies_scalar_outside():
    # sigma = a + 2 eps: eigenvalues +-eps*sqrt(3), no imaginary axis crossing
    eps = 0.25
    pert = PerturbationSpec((1.0,), eps)
    disc = assemble(delay_free(0.4), 0)
    freqs = imaginary_axis_frequencies(hamiltonian(disc, pert, 0.4 + 2 * eps))
    assert freqs.size == 0


def test_frequencies_match_singular_value_crossings(one_delay, one_delay_pert):
    # reported frequencies are where a singular value of the shifted
    # transfer function meets 1/(eps*w(sigma))
    sa = SA_ONE_DELAY
    shifted_sys, shifted_pert = shift_system(one_delay, one_delay_pert, sa)
    disc = assemble(shifted_sys, 15)
    sigma = 0.12  # inside (0, alpha_eps - sa)
    freqs = imaginary_axis_frequencies(hamiltonian(disc, shifted_pert, sigma))
    assert freqs.size >= 1
    w = eval_weight(shifted_pert, shifted_sys, sigma)
    target = 1.0 / (shifted_pert.epsilon * w)
    n_big = disc.state_matrix.shape[0]
    for omega in freqs:
        shifted_state = disc.state_matrix - sigma * np.eye(n_big)
        resolvent = np.linalg.solve(
            1j * omega * np.eye(n_big) - shifted_state, input_matrix(disc)
        )
        gvals = svd_complex(input_matrix(disc).T @ resolvent).values
        assert np.min(np.abs(gvals - target)) < 1e-6 * target


def test_frequencies_match_dense_level_scan(one_delay, one_delay_pert):
    # crossing count agreement with a dense scan of sigma_min(F_N) vs eps*w
    from delaypsa.discretization import char_matrix_approx

    sa = SA_ONE_DELAY
    shifted_sys, shifted_pert = shift_system(one_delay, one_delay_pert, sa)
    disc = assemble(shifted_sys, 15)
    sigma = 0.1
    freqs = imaginary_axis_frequencies(hamiltonian(disc, shifted_pert, sigma))
    w = eval_weight(shifted_pert, shifted_sys, sigma)
    level = shifted_pert.epsilon * w
    omegas = np.linspace(0.0, 4.0, 4001)
    smin = np.array([
        svd_complex(char_matrix_approx(disc, sigma + 1j * om)).values[-1]
        for om in omegas
    ])
    below = smin < level
    crossings = omegas[np.nonzero(np.diff(below))[0]]
    assert len(crossings) == len(freqs)
    for omega in freqs:
        assert np.min(np.abs(crossings - omega)) < 1e-3  # scan pitch


# --- bisection ---------------------------------------------------------------


def test_bisect_disk_quarter():
    pert = PerturbationSpec((1.0,), 0.25)
    disc = assemble(delay_free(0.0), 0)
    sigma_lo, sigma_hi, freqs, _ = bisect(disc, pert, tol=1e-6)
    assert abs(sigma_lo - 0.25) < 1e-6
    assert sigma_hi - sigma_lo <= 1e-6
    # the boundary frequency at the lower end is nearly zero
    assert freqs[0] < 1e-3


def test_bisect_hands_back_omega_without_gain(monkeypatch):
    # the disk |z| <= 1e-4 is narrower than tol/4: the search proves the
    # eigenvalue 0 inside but cannot move right of it, and hands back the
    # frequency where it proved it instead of solving the test matrix at 0,
    # whose crossing is 1e-4
    pert = PerturbationSpec((1.0,), 1e-4)
    calls = _count_calls(monkeypatch, "imaginary_axis_frequencies")
    sigma_lo, sigma_hi, freqs, _ = bisect(assemble(delay_free(0.0), 0), pert,
                                          tol=1e-2)
    assert (sigma_lo, len(calls)) == (0.0, 1)
    assert sigma_lo <= 1e-4 <= sigma_hi
    assert np.array_equal(freqs, [0.0])


def test_bisect_respects_budget():
    # sigma_lo + 1e-300 rounds to sigma_lo, so no vertical test can end the
    # search, and doubling from 1e-300 to the disk's radius takes about 1000
    # steps; the horizontal search must stop where its midpoint rounds
    pert = PerturbationSpec((1.0,), 0.25)
    disc = assemble(delay_free(0.0), 0)
    start = time.perf_counter()
    with pytest.raises(PredictionError, match="100 iterations"):
        bisect(disc, pert, tol=1e-300)
    assert time.perf_counter() - start < 1.0


def test_bisect_rejects_bad_tol(monkeypatch):
    # predict, bisect's one caller, checks tol before any assembly
    pert = PerturbationSpec((1.0,), 0.25)
    assemblies = _count_calls(monkeypatch, "assemble")
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            predict(delay_free(0.0), pert, N=0, tol=tol)
        assert not assemblies


# --- end-to-end prediction ---------------------------------------------------


def test_predict_disk_shifted_coordinates():
    # the disk |z - 1| <= 0.5: the search runs recentered at the root 1.0
    pert = PerturbationSpec((1.0,), 0.5)
    res = predict(delay_free(1.0), pert, N=0, tol=1e-4)
    assert abs(res.alpha_pred - 1.5) < 1e-4
    assert res.shift_used == 1.0


def test_predict_one_delay_frozen(one_delay, one_delay_pert):
    # the bracket contains the discretized abscissa of the eigensolve-only
    # bisection at width 1e-10, taken at the same shift
    res = predict(one_delay, one_delay_pert, N=15, tol=1e-3)
    assert res.shift_used == pytest.approx(SA_ONE_DELAY, abs=1e-10)
    assert res.warnings == ()
    lo, hi = res.bracket
    ref_lo, ref_hi, _, _ = _reference_bisect(
        *_shifted_disc(one_delay, one_delay_pert, 15), 1e-10)
    assert lo <= res.shift_used + ref_lo
    assert res.shift_used + ref_hi <= hi
    assert lo == res.alpha_pred
    assert hi - lo <= 1e-3


def test_predict_tightens_with_tol(one_delay, one_delay_pert):
    wide = predict(one_delay, one_delay_pert, N=15, tol=1e-2)
    tight = predict(one_delay, one_delay_pert, N=15, tol=1e-6)
    assert wide.bracket[0] <= tight.alpha_pred <= wide.bracket[1]


def test_predict_frequencies_sorted_nonnegative(one_delay, one_delay_pert):
    res = predict(one_delay, one_delay_pert, N=15, tol=1e-3)
    freqs = np.asarray(res.frequencies)
    assert np.all(freqs >= 0.0)
    assert np.all(np.diff(freqs) > 0.0)


def test_predict_bound_exceeds_spectral_abscissa(random_system):
    # the pseudospectrum contains the spectrum, so alpha_pred clears the
    # abscissa up to the bracket width
    for seed in (0, 4, 9):
        system, pert = random_system(seed)
        res = predict(system, pert, N=12, tol=1e-4)
        assert res.alpha_pred >= res.shift_used - 1e-4


def _fields(res):
    return (res.alpha_pred, res.frequencies.tolist(), res.iterations,
            res.bracket, res.shift_used, res.warnings, res.roots)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(predictor, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(predictor, name, counted)
    return calls


def test_predict_reuses_recentering_across_epsilon(monkeypatch):
    # the spectral abscissa and both discretizations depend on the system
    # and N only, so a second epsilon on the same object reuses them; the
    # recentered discretization is the first one's last block row rewritten,
    # so each fresh system takes one assembly
    system = _criterion10_plant(np.random.default_rng(3), 3, 2)
    abscissas = _count_calls(monkeypatch, "spectral_abscissa_exact")
    assemblies = _count_calls(monkeypatch, "assemble")
    perts = [PerturbationSpec((1.0,) * 3, eps) for eps in (0.01, 0.2)]
    reused = [predict(system, p, N=12, tol=1e-6) for p in perts]
    assert (len(abscissas), len(assemblies)) == (1, 1)
    for pert, res in zip(perts, reused):
        fresh = TimeDelaySystem(system.delays, system.matrices)
        assert _fields(predict(fresh, pert, N=12, tol=1e-6)) == _fields(res)
    assert (len(abscissas), len(assemblies)) == (3, 3)


def test_predict_fresh_plant_one_assembly_two_eigensolves(monkeypatch):
    # the small-batch benchmark's plants: one assembly and one eigensolve of
    # A_N, whose refined roots seed the search, then the one level test;
    # the recentred A_N is reassembled from the first and never eigensolved
    # (the per-plant analysis used to take 2 assemblies and 3 eigensolves)
    dims = []
    eig = numerics.eig_real

    def counted(matrix):
        dims.append(matrix.shape[0])
        return eig(matrix)

    monkeypatch.setattr(numerics, "eig_real", counted)
    assemblies = _count_calls(monkeypatch, "assemble")
    for i in range(18):
        rng = np.random.default_rng([1, i])
        n, m = divmod(i % 9, 3)
        system = _small_batch_plant(rng, n + 1, m + 1)
        pert = PerturbationSpec((1.0,) * (m + 2),
                                float(10.0 ** rng.uniform(-3.0, 0.0)))
        dims.clear()
        assemblies.clear()
        predict(system, pert, N=15, tol=1e-3)
        assert dims == [16 * (n + 1), 32 * (n + 1)]
        assert len(assemblies) == 1
        assert "eigenvalues" not in vars(predictor._RECENTERED[system][15][1])


def test_predict_singular_values_on_fresh_plants(monkeypatch):
    # the small-batch benchmark's first nine plants: walks to an edge that
    # step past the zero of the secant once the gap rises take 137 n x n
    # singular values in all, where steps that only double took 179
    calls = []

    def counted(matrix, vectors=False):
        calls.append(vectors)
        return svd_complex(matrix, vectors)

    monkeypatch.setattr(numerics, "svd_complex", counted)
    for i in range(9):
        rng = np.random.default_rng([1, i])
        n, m = divmod(i, 3)
        system = _small_batch_plant(rng, n + 1, m + 1)
        pert = PerturbationSpec((1.0,) * (m + 2),
                                float(10.0 ** rng.uniform(-3.0, 0.0)))
        predict(system, pert, N=15, tol=1e-3)
    assert len(calls) <= 145


@pytest.mark.parametrize("recipe", [_small_batch_plant, _criterion10_plant,
                                    _stiff_plant])
def test_bisect_with_unproved_roots_runs_unseeded(recipe):
    # roots that prove nothing inside (moved far right of the set) leave
    # the search to start from A_N's eigenvalues, exactly as without roots
    for seed in range(6):
        rng = np.random.default_rng([71, seed])
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        system = recipe(rng, n, m)
        pert = PerturbationSpec((1.0,) * (m + 1),
                                float(10.0 ** rng.uniform(-3.0, 0.0)))
        disc, shifted_pert = _shifted_disc(system, pert, 15)
        sa = spectral_abscissa_exact(system, assemble(system, 15))
        far = tuple(r - sa.value + 50.0 for r in sa.roots)
        got = bisect(disc, shifted_pert, 1e-6, far)
        want = bisect(disc, shifted_pert, 1e-6)
        assert got[0::3] == want[0::3] and got[1] == want[1]
        assert got[2].tobytes() == want[2].tobytes()


def test_bisect_needs_the_rightmost_root_proved():
    # on this plant N = 15 resolves the rightmost root pair poorly: it is
    # not proved inside, while the real root left of it is.  A search that
    # started there would find no crossings right of it and miss A_N's
    # rightmost eigenvalue; the seeded search starts over from A_N instead
    rng = np.random.default_rng([2, 41])
    system = _wide_plant(rng, 2, 3)
    pert = PerturbationSpec((1.0,) * 4, float(10.0 ** rng.uniform(-3.0, 0.0)))
    disc, shifted_pert = _shifted_disc(system, pert, 15)
    sa = spectral_abscissa_exact(system, assemble(system, 15))
    roots = tuple(r - sa.value for r in sa.roots)
    got = bisect(disc, shifted_pert, 1e-3, roots)
    want = bisect(disc, shifted_pert, 1e-3)
    assert got[:2] == want[:2] and got[3] == want[3]
    assert got[2].tobytes() == want[2].tobytes()
    assert want[0] > 0.0  # right of the rightmost root


def test_predict_new_mesh_order_misses(monkeypatch):
    system = _criterion10_plant(np.random.default_rng(3), 3, 2)
    pert = PerturbationSpec((1.0,) * 3, 0.05)
    abscissas = _count_calls(monkeypatch, "spectral_abscissa_exact")
    predict(system, pert, N=12, tol=1e-4)
    predict(system, pert, N=10, tol=1e-4)
    predict(system, pert, N=12, tol=1e-4)
    assert len(abscissas) == 2


def test_predict_keeps_no_system_alive():
    system = _criterion10_plant(np.random.default_rng(3), 3, 2)
    predict(system, PerturbationSpec((1.0,) * 3, 0.05), N=12, tol=1e-4)
    assert system in predictor._RECENTERED
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None


# --- horizontal search -----------------------------------------------------


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
@pytest.mark.parametrize("c, r, start", [(0.3 + 2.0j, 0.5, 0.1 + 1.8j),
                                         (-1.0, 0.7, -1.2 + 0.3j)])
def test_horizontal_search_finds_disk_edge(c, r, start, tol):
    # the level evaluator of a disk, |lam - c| - r, with no discretization:
    # the rightmost point is c + r, off the axis or, for c = -1, on it
    # (the vertical interval there reaches the real axis: [-u, u])
    def gap(s, w):
        return abs(complex(s, w) - c) - r

    sigma, omega = predictor._horizontal_search(
        gap, start.imag, start.real, math.inf, tol)
    assert c.real + r - 0.25 * tol <= sigma < c.real + r
    assert gap(sigma, omega) < 0.0  # proved inside where it says
    assert abs(omega - c.imag) <= math.sqrt(r * tol)


def test_horizontal_search_outside_start():
    def gap(s, w):  # the disk |lam - 1| < 0.5
        return abs(complex(s, w) - 1.0) - 0.5

    assert predictor._horizontal_search(gap, 2.0, 0.0, math.inf, 1e-3) == (
        -math.inf, 2.0)


@pytest.mark.parametrize("N", [4, 6, 15, 20])
@pytest.mark.parametrize("recipe", [_criterion10_plant, _wide_plant,
                                    _stiff_plant])
def test_certificate_implies_crossings(monkeypatch, recipe, N):
    # every sigma the n x n horizontal search reports as proved inside also
    # has imaginary-axis eigenvalues of the test matrix, so it is a valid
    # lower end without that eigensolve.  The frequency it returns is
    # proved inside, sigma_min(F_N(sigma + j*omega)) < (1 - 1e-8) eps
    # w(sigma), so it is a start for the corrector.  The proof is checked
    # rather than omega's place among the crossings: near a tangency the
    # crossings of the test matrix move by more than the proof's margin
    # (stiff plant, N = 20: omega 0.3937090 proved inside, crossings
    # 0.3937172 and 0.3937190)
    search = predictor._horizontal_search
    checked, problem = [], []  # problem: the (disc, pert) bisect was given

    def recorded(disc, pert, *args):
        problem[:] = disc, pert
        return bisect(disc, pert, *args)

    def cross_checked(gap, *args):
        sigma, omega = search(gap, *args)
        disc, pert = problem
        if sigma > -math.inf:
            freqs = imaginary_axis_frequencies(hamiltonian(disc, pert, sigma))
            proved = (1.0 / level_approx(disc, pert, sigma, omega)
                      < (1.0 - 1e-8) * pert.epsilon)
            checked.append((sigma, omega, freqs.size, proved))
        return sigma, omega

    monkeypatch.setattr(predictor, "bisect", recorded)
    monkeypatch.setattr(predictor, "_horizontal_search", cross_checked)
    for seed in range(4):
        rng = np.random.default_rng([N, seed])
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        system = recipe(rng, n, m)
        pert = PerturbationSpec((1.0,) * (m + 1),
                                float(10.0 ** rng.uniform(-3.0, 0.0)))
        predict(system, pert, N=N, tol=1e-6)
    assert checked
    assert [c for c in checked if c[2] == 0 or not c[3]] == []


def _reference_bisect(disc, pert, tol):
    """The bisection with an eigensolve at every step and at the end."""
    sigma_lo = spectral_abscissa_approx(disc)
    sigma_hi = math.inf
    delta = tol
    iterations = 0
    while sigma_hi - sigma_lo > tol:
        if math.isinf(sigma_hi):
            delta *= 2.0
            sigma_mid = sigma_lo + delta
        else:
            sigma_mid = 0.5 * (sigma_lo + sigma_hi)
        if imaginary_axis_frequencies(hamiltonian(disc, pert, sigma_mid)).size:
            sigma_lo = sigma_mid
        else:
            sigma_hi = sigma_mid
        iterations += 1
    freqs = imaginary_axis_frequencies(hamiltonian(disc, pert, sigma_lo))
    return sigma_lo, sigma_hi, freqs, iterations


def _shifted_disc(system, pert, N):
    sa = spectral_abscissa_exact(system, assemble(system, N)).value
    shifted_sys, shifted_pert = shift_system(system, pert, sa)
    return assemble(shifted_sys, N), shifted_pert


@pytest.fixture(scope="module")
def large_plant():
    # the acceptance criterion-10 plant, (n, m) = (10, 7)
    system = _criterion10_plant(np.random.default_rng(7), 10, 7)
    return system, PerturbationSpec((1.0,) * 8, 0.05)


def _assert_matches_reference(disc, pert, tol):
    sigma_lo, sigma_hi, freqs, iterations = bisect(disc, pert, tol)
    ref_lo, ref_hi, ref_freqs, ref_iterations = _reference_bisect(disc, pert, tol)
    assert (sigma_lo, sigma_hi, iterations) == (ref_lo, ref_hi, ref_iterations)
    assert np.array_equal(freqs, ref_freqs)
    return iterations


def _assert_contains_reference(disc, pert, tol):
    # the eigensolve-only bisection at width 1e-10 brackets the discretized
    # abscissa alpha_N; the criss-cross bracket must contain that bracket,
    # and every returned frequency proves sigma_lo inside:
    # sigma_min(F_N(sigma_lo + j*omega)) < (1 - 1e-8) eps w(sigma_lo)
    sigma_lo, sigma_hi, freqs, _ = bisect(disc, pert, tol)
    alpha_lo, alpha_hi, _, _ = _reference_bisect(disc, pert, 1e-10)
    assert sigma_lo <= alpha_lo <= alpha_hi <= sigma_hi
    assert sigma_hi - sigma_lo <= tol
    assert freqs.size
    for omega in freqs:
        smin_over_w = 1.0 / level_approx(disc, pert, sigma_lo, omega)
        assert smin_over_w < (1.0 - 1e-8) * pert.epsilon


def test_bisect_matches_reference_disk():
    pert = PerturbationSpec((1.0,), 0.25)
    _assert_contains_reference(assemble(delay_free(0.0), 0), pert, 1e-6)


def test_bisect_matches_reference_one_delay(one_delay, one_delay_pert):
    _assert_contains_reference(
        *_shifted_disc(one_delay, one_delay_pert, 15), 1e-6)


def test_bisect_matches_reference_on_poles(monkeypatch, one_delay,
                                           one_delay_pert):
    # with every candidate on a pole of the rational interpolant, the
    # certificate skips them all and the eigensolve decides each step
    poles, solves = [], []
    level_test = predictor.imaginary_axis_frequencies

    def on_pole(*args):
        poles.append(args)
        raise numerics.SingularMatrixError("pole")

    def counted(ham):
        solves.append(1)
        return level_test(ham)

    disc, pert = _shifted_disc(one_delay, one_delay_pert, 15)
    monkeypatch.setattr(predictor, "level_approx", on_pole)
    monkeypatch.setattr(predictor, "imaginary_axis_frequencies", counted)
    iterations = _assert_matches_reference(disc, pert, 1e-6)
    assert len(poles) >= iterations
    assert len(solves) >= iterations


def test_bisect_matches_reference_large(large_plant):
    _assert_contains_reference(*_shifted_disc(*large_plant, 15), 1e-6)


def test_predict_eigensolve_count_large(monkeypatch, large_plant):
    # an eigensolve at every step needs 36 level tests on this plant, and
    # bisection with the one-point certificate 11; criss-cross whose
    # horizontal search stops at the first edge needs 3, and the local
    # search reaches the peak, so one vertical test finds no crossings and
    # the frequency where the search proved sigma_lo starts the corrector
    calls = _count_calls(monkeypatch, "imaginary_axis_frequencies")
    predict(*large_plant, N=15, tol=1e-6)
    assert len(calls) == 1


def test_predict_real_axis_peak_level_tests(monkeypatch):
    # this plant's rightmost point at eps = 0.3 is on the real axis; the
    # middle of an interval that reaches the real axis, 0, is tried, where
    # f_1/2 would halve omega every round and take 8 or more vertical tests;
    # the one vertical test finds no crossings and ends the search
    system = _criterion10_plant(np.random.default_rng(1), 10, 7)
    calls = _count_calls(monkeypatch, "imaginary_axis_frequencies")
    predict(system, PerturbationSpec((1.0,) * 8, 0.3), N=15, tol=1e-6)
    assert len(calls) == 1


@pytest.mark.parametrize("seed, eps_index", [
    (5, 0), (5, 1), (5, 2), (5, 3), (12, 0), (12, 1), (12, 2), (12, 3),
    (4, 2), (4, 3), (9, 2),
])
def test_predict_level_tests_steady(monkeypatch, seed, eps_index):
    # the eps-sweep benchmark's (10, 7) plants and epsilon grid, where
    # criss-cross that stops at the first edge along a candidate took 3 to
    # 5 level tests; the local search ends within tol of the peak, so each
    # takes only the vertical test, and the frequency where the search
    # proved sigma_lo starts the corrector.  (4, 2) peaks near
    # its second eigenvalue (omega 0.79), apart from the real-axis peak
    # its rightmost, real eigenvalue climbs, so it needs the next
    # eigenvalues' candidates; (9, 2) peaks on the real axis, away from
    # its rightmost eigenvalue (omega 0.83), and needs them or the
    # candidate 0; (12, 2) needs the u/2 trial of an interval that
    # reaches the real axis
    system = _criterion10_plant(np.random.default_rng(seed), 10, 7)
    eps = float(np.geomspace(1e-3, 0.3, 4)[eps_index])
    calls = _count_calls(monkeypatch, "imaginary_axis_frequencies")
    predict(system, PerturbationSpec((1.0,) * 8, eps), N=15, tol=1e-6)
    assert len(calls) == 1


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_narrow_returns_inside_point_within_width(sign):
    # gap(x) = sign * (x - root) is negative on the inside side of the root
    root = 0.3
    calls = []

    def gap(x):
        calls.append(x)
        return sign * (x - root)

    a, b = root - sign * 0.7, root + sign * 1.1
    x, gx = predictor._narrow(gap, a, gap(a), b, gap(b), 1e-9)
    assert gx == gap(x) < 0.0
    assert abs(x - root) <= 1e-9
    assert len(calls) <= 12  # bisection alone needs 31 steps


def test_narrow_stops_where_the_midpoint_rounds():
    x, gx = predictor._narrow(lambda x: x - 1.0, 0.5, -0.5, 1.0, 0.0, 1e-300)
    assert gx < 0.0
    assert 1.0 - 1e-15 < x < 1.0
