import dataclasses
import math

import numpy as np
import pytest

from delaypsa import (
    PerturbationSpec,
    TimeDelaySystem,
    correct,
    eval_level,
    numerics,
    predict,
)
from delaypsa import corrector
from delaypsa.corrector import (
    AllStartsFailedError,
    CorrectorState,
    build_nleig,
    gauss_newton,
    jacobian,
    residual,
    start_vector,
    sv_threshold,
)
from delaypsa.discretization import assemble
from delaypsa.model import shift_system
from delaypsa.predictor import (
    PredictionResult,
    hamiltonian,
    imaginary_axis_frequencies,
)

from conftest import delay_free, far_left_plant

ALPHA_EPS_ONE_DELAY = -0.16516820502210675
OMEGA_EPS_ONE_DELAY = 1.330240712318655


def disk_state(a, eps):
    """Exact extremal state of the disk case: sigma = a + eps, omega = 0."""
    x = np.array([eps, 1.0], dtype=complex)
    x /= np.linalg.norm(x)
    return CorrectorState(x=x, omega=0.0, sigma=a + eps, anchor=x.copy())


# --- singular value threshold ------------------------------------------------


def test_threshold_delay_free():
    pert = PerturbationSpec((1.0,), 0.1)
    xi, dxi = sv_threshold(pert, delay_free(0.0), 0.7)
    assert xi == 10.0 and dxi == 0.0


def test_threshold_one_delay_hand_value(one_delay):
    pert = PerturbationSpec((1.0, 1.0), 0.5)
    xi, dxi = sv_threshold(pert, one_delay, 0.0)
    assert abs(xi - 1.0) < 1e-15
    assert abs(dxi - 0.5) < 1e-15


def test_threshold_inverse_identity(one_delay, one_delay_pert):
    from delaypsa import eval_weight

    for sigma in (-0.4, 0.0, 1.3):
        xi, _ = sv_threshold(one_delay_pert, one_delay, sigma)
        w = eval_weight(one_delay_pert, one_delay, sigma)
        assert abs(xi * one_delay_pert.epsilon * w - 1.0) < 1e-14


def test_threshold_slope_matches_finite_differences(one_delay, one_delay_pert):
    h = 1e-7
    xp, _ = sv_threshold(one_delay_pert, one_delay, 0.2 + h)
    xm, _ = sv_threshold(one_delay_pert, one_delay, 0.2 - h)
    _, dxi = sv_threshold(one_delay_pert, one_delay, 0.2)
    assert abs(dxi - (xp - xm) / (2 * h)) < 1e-7


# --- doubled matrix ----------------------------------------------------------


def test_nleig_block_layout():
    rng = np.random.default_rng(6)
    sys1 = TimeDelaySystem(
        (0.0, 0.9), (rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
    )
    pert = PerturbationSpec((1.0, 1.0), 0.2)
    shifted, _ = shift_system(sys1, pert, 0.1)
    h = build_nleig(shifted, 0.5j, 4.0)
    assert h.shape == (4, 4)
    assert np.allclose(h[:2, 2:], -(4.0**-2) * np.eye(2))
    assert np.allclose(h[2:, :2], np.eye(2))


def test_nleig_scalar_determinant_closed_form():
    # n=1, m=0: det H = -omega^2 - (a - sigma)^2 + xi^-2
    rng = np.random.default_rng(10)
    pert = PerturbationSpec((1.0,), 0.3)
    for _ in range(8):
        a = float(rng.uniform(-1, 1))
        sigma = float(rng.uniform(-1, 1))
        omega = float(rng.uniform(0, 2))
        xi = float(rng.uniform(0.5, 5))
        shifted, _ = shift_system(delay_free(a), pert, sigma)
        det = np.linalg.det(build_nleig(shifted, 1j * omega, xi))
        expect = -(omega**2) - (a - sigma) ** 2 + xi**-2
        assert abs(det - expect) < 1e-12 * max(1.0, abs(expect))


def test_nleig_determinant_is_real_on_axis(random_system):
    # real system data makes det H(j omega, sigma, xi) real for any omega
    rng = np.random.default_rng(14)
    for seed in range(10):
        system, pert = random_system(seed)
        sigma = float(rng.uniform(-1, 1))
        omega = float(rng.uniform(0, 5))
        xi = float(rng.uniform(0.2, 10))
        shifted, _ = shift_system(system, pert, sigma)
        det = np.linalg.det(build_nleig(shifted, 1j * omega, xi))
        assert abs(det.imag) <= 1e-10 * max(abs(det), 1e-12)


def test_nleig_real_for_real_argument(random_system):
    system, pert = random_system(3)
    shifted, _ = shift_system(system, pert, 0.2)
    h = build_nleig(shifted, complex(0.4), 2.0)
    assert np.max(np.abs(h.imag)) == 0.0


def test_derivative_identity_is_real(random_system):
    # [-v* u*] dH/domega [u; v] equals 2 Im(v* P u): real for any u, v
    system, pert = random_system(5)
    n = system.n
    rng = np.random.default_rng(19)
    sigma, omega, xi = 0.15, 1.2, 3.0
    shifted, _ = shift_system(system, pert, sigma)
    h = 1e-6
    dh = (
        build_nleig(shifted, 1j * (omega + h), xi)
        - build_nleig(shifted, 1j * (omega - h), xi)
    ) / (2 * h)
    for _ in range(5):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        row = np.concatenate([-v.conj(), u.conj()])
        val = row @ (dh @ np.concatenate([u, v]))
        assert abs(val.imag) < 1e-6 * (1.0 + abs(val))


# --- start vectors -----------------------------------------------------------


def test_start_vector_unit_norm_and_phase(random_system):
    system, pert = random_system(2)
    shifted, _ = shift_system(system, pert, 0.1)
    x = start_vector(build_nleig(shifted, 0.9j, 2.5))
    assert abs(np.linalg.norm(x) - 1.0) < 1e-14
    top = x[np.argmax(np.abs(x))]
    assert abs(top.imag) < 1e-14 and top.real > 0.0


def test_start_vector_nullspace_of_singular_matrix():
    # scalar closed form: H singular iff omega^2 = xi^-2 - (a-sigma)^2
    a, sigma, xi = 0.0, 0.1, 5.0
    omega = math.sqrt(xi**-2 - (a - sigma) ** 2)
    pert = PerturbationSpec((1.0,), 0.3)
    shifted, _ = shift_system(delay_free(a), pert, sigma)
    h = build_nleig(shifted, 1j * omega, xi)
    x = start_vector(h)
    assert np.linalg.norm(h @ x) < 1e-10


def test_start_vector_reproducible(random_system):
    system, pert = random_system(7)
    shifted, _ = shift_system(system, pert, 0.05)
    h = build_nleig(shifted, 1.4j, 1.8)
    assert np.max(np.abs(start_vector(h) - start_vector(h))) < 1e-12


# --- residual ----------------------------------------------------------------


def test_residual_zero_at_disk_solution():
    pert = PerturbationSpec((1.0,), 0.25)
    r = residual(delay_free(0.3), pert, disk_state(0.3, 0.25))
    assert np.linalg.norm(r) < 1e-10


def test_residual_length(one_delay, one_delay_pert):
    state = CorrectorState(
        x=np.array([1.0 + 0j, 1.0 + 0j]), omega=1.0, sigma=0.0,
        anchor=np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    )
    assert residual(one_delay, one_delay_pert, state).shape == (4 * 1 + 3,)


def test_residual_grows_linearly_near_solution():
    pert = PerturbationSpec((1.0,), 0.25)
    sys0 = delay_free(0.0)
    norms = []
    for delta in (1e-3, 5e-4):
        state = disk_state(0.0, 0.25)
        state.sigma += delta
        norms.append(np.linalg.norm(residual(sys0, pert, state)))
    ratio = norms[0] / norms[1]
    assert 1.6 < ratio < 2.4


# --- Jacobian ----------------------------------------------------------------


def _random_state(system, rng):
    n = system.n
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    anchor = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    anchor /= np.linalg.norm(anchor)
    return CorrectorState(
        x=np.concatenate([u, v]), omega=float(rng.uniform(0.2, 2.0)),
        sigma=float(rng.uniform(-0.5, 0.5)), anchor=anchor,
    )


def test_jacobian_matches_finite_differences(random_system):
    rng = np.random.default_rng(23)
    for seed in (0, 5, 11):
        system, pert = random_system(seed)
        state = _random_state(system, rng)
        jac = jacobian(system, pert, state)[1]
        n = system.n
        assert jac.shape == (4 * n + 3, 4 * n + 2)
        h = 1e-6
        fd = np.zeros_like(jac)
        for k in range(4 * n + 2):
            step = np.zeros(4 * n + 2)
            step[k] = h
            plus = CorrectorState(state.x, state.omega, state.sigma,
                                  state.anchor)
            plus.apply_step(step)
            minus = CorrectorState(state.x, state.omega, state.sigma,
                                   state.anchor)
            minus.apply_step(-step)
            fd[:, k] = (
                residual(system, pert, plus) - residual(system, pert, minus)
            ) / (2 * h)
        rel = np.max(np.abs(jac - fd)) / max(1.0, np.max(np.abs(fd)))
        assert rel < 1e-6


def test_jacobian_full_column_rank_at_disk_solution():
    pert = PerturbationSpec((1.0,), 0.25)
    jac = jacobian(delay_free(0.0), pert, disk_state(0.0, 0.25))[1]
    assert np.linalg.matrix_rank(jac) == 4 * 1 + 2


# --- Gauss-Newton ------------------------------------------------------------


def test_gauss_newton_disk_converges_fast():
    pert = PerturbationSpec((1.0,), 0.25)
    sys0 = delay_free(0.0)
    pred = predict(sys0, pert, N=0, tol=1e-2)
    res = correct(sys0, pert, pred)
    assert abs(res.alpha_eps - 0.25) < 1e-10
    assert all(s.iterations <= 8 for s in res.per_start)


def test_gauss_newton_fixed_point():
    pert = PerturbationSpec((1.0,), 0.25)
    run = gauss_newton(delay_free(0.0), pert, disk_state(0.0, 0.25))
    assert run.converged and run.status == "converged"
    assert run.iterations <= 1
    assert abs(run.state.sigma - 0.25) < 1e-12


def test_gauss_newton_folds_negated_frequency(one_delay, one_delay_pert):
    pred = predict(one_delay, one_delay_pert, N=15, tol=1e-4)
    base = correct(one_delay, one_delay_pert, pred)
    # start from the mirrored frequency by hand
    sigma0 = pred.alpha_pred
    shifted, _ = shift_system(one_delay, one_delay_pert, sigma0)
    xi0, _ = sv_threshold(one_delay_pert, one_delay, sigma0)
    omega0 = -float(pred.frequencies[0])
    x0 = start_vector(build_nleig(shifted, 1j * omega0, xi0))
    state0 = CorrectorState(x=x0, omega=omega0, sigma=sigma0, anchor=x0.copy())
    run = gauss_newton(one_delay, one_delay_pert, state0)
    assert run.converged
    assert run.state.omega > 0.0
    assert abs(run.state.sigma - base.alpha_eps) < 1e-10
    assert abs(run.state.omega - base.omega_eps) < 1e-8


def test_gauss_newton_budget_status(monkeypatch, one_delay, one_delay_pert):
    pred = predict(one_delay, one_delay_pert, N=15, tol=1e-3)
    sigma0 = pred.alpha_pred
    shifted, _ = shift_system(one_delay, one_delay_pert, sigma0)
    xi0, _ = sv_threshold(one_delay_pert, one_delay, sigma0)
    x0 = start_vector(build_nleig(shifted, 1j * float(pred.frequencies[0]), xi0))
    state0 = CorrectorState(x=x0, omega=float(pred.frequencies[0]),
                            sigma=sigma0, anchor=x0.copy())
    monkeypatch.setattr(corrector, "GN_MAX_ITER", 0)
    run = gauss_newton(one_delay, one_delay_pert, state0)
    assert not run.converged and run.status == "max-iterations"


def _off_disk_state():
    """Disk-case state 1e-3 right of the solution, so no start converges at once."""
    state = disk_state(0.0, 0.25)
    state.sigma += 1e-3
    return state


def test_gauss_newton_rank_deficient_exit(monkeypatch):
    def deficient(jac, res):
        raise numerics.RankDeficientError(
            f"numerical rank 3 < {jac.shape[1]} columns")

    monkeypatch.setattr(numerics, "least_squares_real", deficient)
    run = gauss_newton(delay_free(0.0), PerturbationSpec((1.0,), 0.25),
                       _off_disk_state())
    assert run.status == "rank-deficient" and not run.converged
    assert run.iterations == 0
    assert len(run.residual_norms) == 1


def test_gauss_newton_keeps_converged_state_without_polish(monkeypatch):
    # the polish step's solve fails: the converged iterate is returned as is
    solve = numerics.least_squares_real

    def deficient_when_converged(jac, res):
        if np.linalg.norm(res) <= 1e-10:
            raise numerics.RankDeficientError(
                f"numerical rank 3 < {jac.shape[1]} columns")
        return solve(jac, res)

    monkeypatch.setattr(numerics, "least_squares_real", deficient_when_converged)
    system, pert = delay_free(0.0), PerturbationSpec((1.0,), 0.25)
    run = gauss_newton(system, pert, _off_disk_state())
    assert run.converged and run.status == "converged"
    assert run.iterations >= 1
    assert len(run.residual_norms) == run.iterations + 1
    r = residual(system, pert, run.state)
    assert np.linalg.norm(r) == run.residual_norms[-1]


def test_gauss_newton_stalled_exit(monkeypatch):
    monkeypatch.setattr(numerics, "least_squares_real",
                        lambda jac, res: np.zeros(jac.shape[1]))
    run = gauss_newton(delay_free(0.0), PerturbationSpec((1.0,), 0.25),
                       _off_disk_state())
    assert run.status == "stalled" and not run.converged
    assert run.iterations == 1
    assert len(run.residual_norms) == 2
    assert run.residual_norms[0] == run.residual_norms[1]


def test_gauss_newton_diverged_exit(monkeypatch):
    # every step moves sigma further from the solution, so the residual
    # grows on each of the next three iterations
    def away(jac, res):
        step = np.zeros(jac.shape[1])
        step[-1] = 0.1
        return step

    monkeypatch.setattr(numerics, "least_squares_real", away)
    run = gauss_newton(delay_free(0.0), PerturbationSpec((1.0,), 0.25),
                       _off_disk_state())
    assert run.status == "diverged" and not run.converged
    assert run.iterations == 3
    assert len(run.residual_norms) == 4
    assert np.all(np.diff(run.residual_norms) > 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gauss_newton_far_left_iterate_diverges():
    # the one predicted start walks left until w overflows: that run ends
    # as diverged, so the solve fails with AllStartsFailedError
    system, pert = far_left_plant()
    pred = predict(system, pert, N=15, tol=1e-3)
    with pytest.raises(AllStartsFailedError):
        correct(system, pert, pred)
    (omega,) = pred.frequencies
    xi, _ = sv_threshold(pert, system, pred.alpha_pred)
    x0 = start_vector(build_nleig(system, complex(pred.alpha_pred, omega), xi))
    run = gauss_newton(system, pert,
                       CorrectorState(x0, float(omega), pred.alpha_pred, x0))
    assert run.status == "diverged" and not run.converged
    assert run.state.sigma < -354.9
    assert len(run.residual_norms) == run.iterations  # none at the last one
    # a start that is already that far left ends at once
    run = gauss_newton(system, pert, CorrectorState(x0, 1.0, -1000.0, x0))
    assert run.status == "diverged" and run.iterations == 0
    assert run.residual_norms == ()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gauss_newton_far_left_iterate_diverges_unperturbed_delay():
    # with the delayed matrix unperturbed w(sigma) has no delayed term, so
    # it never overflows; the iterate's F does, and that ends the run as
    # diverged instead of failing the least-squares solve
    system, pert = far_left_plant()
    pert = PerturbationSpec((1.0, math.inf), pert.epsilon)
    pred = predict(system, pert, N=15, tol=1e-3)
    with pytest.raises(AllStartsFailedError):
        correct(system, pert, pred)
    (omega,) = pred.frequencies
    xi, _ = sv_threshold(pert, system, pred.alpha_pred)
    x0 = start_vector(build_nleig(system, complex(pred.alpha_pred, omega), xi))
    run = gauss_newton(system, pert,
                       CorrectorState(x0, float(omega), pred.alpha_pred, x0))
    assert run.status == "diverged" and not run.converged
    assert run.state.sigma < -354.9
    assert len(run.residual_norms) == run.iterations  # none at the last one
    run = gauss_newton(system, pert, CorrectorState(x0, 1.0, -1000.0, x0))
    assert run.status == "diverged" and run.iterations == 0


def crossing_prediction(sys, pert, N=15):
    """predict(sys, pert), with its frequencies replaced by the two
    crossings of the level set with Re lam = alpha_pred: two starts."""
    pred = predict(sys, pert, N=N, tol=1e-3)
    shifted_sys, shifted_pert = shift_system(sys, pert, pred.shift_used)
    ham = hamiltonian(assemble(shifted_sys, N), shifted_pert,
                      pred.alpha_pred - pred.shift_used)
    pred = dataclasses.replace(pred,
                               frequencies=imaginary_axis_frequencies(ham))
    assert len(pred.frequencies) == 2
    return pred


def test_correct_warns_on_failed_starts(one_delay, one_delay_pert, monkeypatch):
    solve = numerics.least_squares_real
    calls = []

    def first_fails(jac, res):
        calls.append(1)
        if len(calls) == 1:
            raise numerics.RankDeficientError(
                f"numerical rank 0 < {jac.shape[1]} columns")
        return solve(jac, res)

    pred = crossing_prediction(one_delay, one_delay_pert)
    monkeypatch.setattr(numerics, "least_squares_real", first_fails)
    res = correct(one_delay, one_delay_pert, pred)
    failed, kept = res.per_start
    assert failed.status == "rank-deficient" and not failed.converged
    assert failed.iterations == 0 and len(failed.residual_norms) == 1
    assert kept.status == "converged" and kept.converged
    assert len(kept.residual_norms) == kept.iterations + 1
    assert "1 of 2 correction starts did not converge" in res.warnings
    assert abs(res.alpha_eps - ALPHA_EPS_ONE_DELAY) < 1e-10


# --- correction driver -------------------------------------------------------


def distinct_solutions(res, tol=1e-8):
    """Converged (sigma, omega) pairs of a CorrectionResult, deduplicated
    within tol-relative."""
    out = []
    for s in res.per_start:
        if not s.converged:
            continue
        if not any(
            abs(s.state.sigma - a) <= tol * (1.0 + abs(a))
            and abs(s.state.omega - b) <= tol * (1.0 + abs(b))
            for a, b in out
        ):
            out.append((s.state.sigma, s.state.omega))
    return out


def test_correct_one_delay_frozen(one_delay, one_delay_pert):
    # both crossings of Re lam = alpha_pred straddle one extremal point
    res = correct(one_delay, one_delay_pert,
                  crossing_prediction(one_delay, one_delay_pert))
    assert abs(res.alpha_eps - ALPHA_EPS_ONE_DELAY) < 1e-10
    assert abs(res.omega_eps - OMEGA_EPS_ONE_DELAY) < 1e-8
    assert len(res.per_start) == 2
    assert all(s.converged for s in res.per_start)
    assert len(distinct_solutions(res)) == 1
    # the frequency the predictor hands over reaches the same point
    res = correct(one_delay, one_delay_pert,
                  predict(one_delay, one_delay_pert, N=15, tol=1e-3))
    assert abs(res.alpha_eps - ALPHA_EPS_ONE_DELAY) < 1e-10
    assert abs(res.omega_eps - OMEGA_EPS_ONE_DELAY) < 1e-8


def test_corrected_point_sits_on_level_set(one_delay, one_delay_pert):
    pred = predict(one_delay, one_delay_pert, N=15, tol=1e-3)
    res = correct(one_delay, one_delay_pert, pred)
    lam = complex(res.alpha_eps, res.omega_eps)
    f = eval_level(one_delay, one_delay_pert, lam)
    assert abs(f - 1.0 / one_delay_pert.epsilon) < 1e-8 / one_delay_pert.epsilon


def test_correct_reports_failures(one_delay, one_delay_pert):
    pred = predict(one_delay, one_delay_pert, N=15, tol=1e-3)
    with pytest.raises(AllStartsFailedError):
        correct(one_delay, one_delay_pert, pred, gn_tol=1e-30)


@pytest.mark.parametrize("gn_tol", [0.0, -1e-10, math.nan, math.inf])
def test_gn_tol_outside_range_is_rejected(one_delay, one_delay_pert, gn_tol):
    # a bound that is never met would spend every start's budget, and one
    # that is always met would mark the first iterate converged
    pred = predict(one_delay, one_delay_pert, N=15, tol=1e-3)
    with pytest.raises(ValueError, match="gn_tol"):
        correct(one_delay, one_delay_pert, pred, gn_tol=gn_tol)


def test_correct_checks_gn_tol_once(one_delay, one_delay_pert, monkeypatch):
    # correct checks gn_tol where it enters; gauss_newton trusts it
    pred = crossing_prediction(one_delay, one_delay_pert)
    check, calls = corrector.gn_tolerance, []
    monkeypatch.setattr(corrector, "gn_tolerance",
                        lambda gn_tol: calls.append(gn_tol) or check(gn_tol))
    res = correct(one_delay, one_delay_pert, pred)
    assert len(res.per_start) == 2 and calls == [None]


def test_gn_tol_extremes_inside_range_are_accepted():
    pert = PerturbationSpec((1.0,), 0.25)
    for gn_tol in (5e-324, 1e308):
        assert corrector.gn_tolerance(gn_tol) == gn_tol
        run = gauss_newton(delay_free(0.0), pert, disk_state(0.0, 0.25),
                           gn_tol=gn_tol)
        assert run.status in ("converged", "stalled")


def test_correct_requires_frequencies(one_delay, one_delay_pert):
    empty = PredictionResult(
        alpha_pred=0.0, frequencies=np.array([]), iterations=0,
        bracket=(0.0, 0.0), shift_used=0.0,
    )
    with pytest.raises(ValueError, match="frequencies"):
        correct(one_delay, one_delay_pert, empty)


def test_left_of_shift_warning_needs_a_root():
    # the warning compares the answer with the rightmost certified root;
    # a shift that is no root (the fallback, roots empty) proves nothing
    sys0 = delay_free(0.0)
    pert = PerturbationSpec((1.0,), 0.25)
    pred = dataclasses.replace(predict(sys0, pert, N=0, tol=1e-6),
                               shift_used=1.0)
    assert pred.roots and pred.roots[0].real == 0.0
    assert not any("left of" in w for w in correct(sys0, pert, pred).warnings)
    for roots in ((), (1.0 + 0.0j,)):
        res = correct(sys0, pert, dataclasses.replace(pred, roots=roots))
        left = [w for w in res.warnings if "left of the spectral abscissa" in w]
        assert len(left) == len(roots)
        assert not left or "spectral abscissa 1.0;" in left[0]


def test_correct_warns_on_large_move():
    # predict for one level, correct for a larger one: the corrector walks
    # well past the prediction bracket and must say so
    sys0 = delay_free(0.0)
    pred = predict(sys0, PerturbationSpec((1.0,), 0.25), N=0, tol=1e-6)
    res = correct(sys0, PerturbationSpec((1.0,), 0.26), pred)
    assert abs(res.alpha_eps - 0.26) < 1e-10
    assert any("bracket" in w for w in res.warnings)
    # an open bracket bounds no move
    open_pred = dataclasses.replace(pred, bracket=(pred.alpha_pred, math.inf))
    res = correct(sys0, PerturbationSpec((1.0,), 0.26), open_pred)
    assert not any("bracket" in w for w in res.warnings)
