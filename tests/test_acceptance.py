"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Each criterion is evaluated at its stated tolerance against analytic cases,
independent brute-force oracles, or structural identities.  Run with -s to
see the lines as they print.
"""

import math
import time

import numpy as np
import pytest

from delaypsa import (
    GridRegion,
    PerturbationSpec,
    TimeDelaySystem,
    compute_psa,
    correct,
    grid_psa,
    predict,
)
from delaypsa.corrector import CorrectorState, build_nleig, jacobian, residual
from delaypsa.discretization import (
    assemble,
    char_matrix_approx,
    spectral_abscissa_approx,
)
from delaypsa.model import shift_system
from delaypsa.oracle import frequency_bound
from delaypsa.predictor import bisect

from conftest import (
    delay_free,
    grid_alpha_ref,
    level_sup_profile,
    transfer_function,
)


def report(num, name, ok, detail):
    line = f"criterion {num:>2} {'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(line)
    assert ok, line


def random_plant(rng, n_max=3, m_max=2, lo=-1.0, hi=1.0):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    mats = tuple(rng.uniform(lo, hi, (n, n)) for _ in range(m + 1))
    delays = (0.0,) + tuple(np.sort(rng.uniform(0.05, 1.0, m)))
    return TimeDelaySystem(delays, mats)


def criterion3_cases():
    """The frozen random batch shared by criteria 3 and 8."""
    rng = np.random.default_rng(20260818)
    out = []
    for _ in range(10):
        system = random_plant(rng)
        out.append((system, PerturbationSpec((1.0,) * (system.m + 1), 0.1)))
    return out


def test_criterion_01_analytic_disk():
    # |alpha_eps - (a + eps)| <= 1e-8; <= 8 GN iterations from a tol=1e-2
    # prediction; under 0.1 s per case after warmup
    cases = [(0.0, 0.25), (1.0, 0.5), (-2.0, 0.1)]
    compute_psa(delay_free(0.0), PerturbationSpec((1.0,), 0.25), tol=1e-2)
    worst_err, worst_iters, worst_time = 0.0, 0, 0.0
    for a, eps in cases:
        pert = PerturbationSpec((1.0,), eps)
        t0 = time.perf_counter()
        res = compute_psa(delay_free(a), pert, tol=1e-2)
        dt = time.perf_counter() - t0
        worst_err = max(worst_err, abs(res.alpha_eps - (a + eps)))
        worst_iters = max(worst_iters, *(s.iterations for s in res.correction.per_start))
        worst_time = max(worst_time, dt)
    ok = worst_err <= 1e-8 and worst_iters <= 8 and worst_time < 0.1
    report(1, "analytic disk cases", ok,
           f"max |alpha_eps-(a+eps)| {worst_err:.2e} (<=1e-8), "
           f"max GN iterations {worst_iters} (<=8), "
           f"max runtime {worst_time * 1e3:.1f} ms (<100)")


def test_criterion_02_normal_matrix():
    # alpha_eps = -0.7 +- 1e-6 for diag(-1,-2), eps=0.3; grid agrees to 2e-3
    sys2 = TimeDelaySystem((0.0,), (np.diag([-1.0, -2.0]),))
    pert = PerturbationSpec((1.0,), 0.3)
    res = compute_psa(sys2, pert, tol=1e-4)
    err = abs(res.alpha_eps - (-0.7))
    grid = grid_psa(sys2, pert, GridRegion(-1.6, 0.0, -0.6, 0.6, 161, 121),
                    refine_iters=2)
    gap = abs(res.alpha_eps - grid.value)
    ok = err <= 1e-6 and gap <= 2e-3
    report(2, "normal-matrix union of disks", ok,
           f"|alpha_eps+0.7| {err:.2e} (<=1e-6), grid gap {gap:.2e} (<=2e-3)")


def test_criterion_03_oracle_equivalence():
    # corrector vs brute-force grid oracle on 10 random retarded systems
    t0 = time.perf_counter()
    worst = 0.0
    for system, pert in criterion3_cases():
        res = compute_psa(system, pert, N=15, tol=1e-4)
        worst = max(worst,
                    abs(res.alpha_eps - grid_alpha_ref(system, pert, res)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 2e-3 and elapsed < 60.0
    report(3, "oracle equivalence x10", ok,
           f"worst |corrector-grid| {worst:.2e} (<=2e-3), "
           f"total {elapsed:.1f} s (<60)")


def test_criterion_04_transfer_identity():
    # B^T (lam I - A_N)^{-1} B vs F_N(lam)^{-1}, 20 probes, <= 1e-8 relative
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        system = random_plant(rng, n_max=4, m_max=3)
        disc = assemble(system, int(rng.integers(2, 13)))
        alpha = spectral_abscissa_approx(disc)
        lam = complex(alpha + rng.uniform(0.1, 2.0), rng.uniform(-4.0, 4.0))
        lhs = transfer_function(disc, lam)
        rhs = np.linalg.inv(char_matrix_approx(disc, lam))
        worst = max(worst, np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
    ok = worst <= 1e-8
    report(4, "resolvent transfer identity", ok,
           f"max relative error {worst:.2e} (<=1e-8) over 20 probes")


def test_criterion_05_monotone_profile():
    # the frequency-sup of f_N is strictly decreasing in sigma, vanishes far
    # right, blows up at the discretized abscissa, and brackets 1/eps at the
    # bisection output
    system = TimeDelaySystem((0.0, 1.0), (np.array([[0.0]]), np.array([[-2.0]])))
    pert = PerturbationSpec((1.0, 1.0), 0.1)
    disc = assemble(system, 15)
    alpha = spectral_abscissa_approx(disc)
    scale = max(np.linalg.norm(a, 2) for a in system.matrices)
    wmax = frequency_bound(system, pert, alpha)
    sigmas = np.linspace(alpha + 1e-3, alpha + 2.0, 20)
    prof = level_sup_profile(disc, pert, sigmas, wmax)
    decreasing = bool(np.all(np.diff(prof) < 0.0))
    far = level_sup_profile(disc, pert, [alpha + 1e3 * scale], wmax)[0]
    near = level_sup_profile(disc, pert, [alpha + 1e-6 * scale], wmax)[0]
    tol = 1e-6
    lo, hi, _, _ = bisect(disc, pert, tol=tol)  # alpha_pred is lo
    p_lo = level_sup_profile(disc, pert, [lo], wmax)[0]
    p_hi = level_sup_profile(disc, pert, [hi], wmax)[0]
    level = 1.0 / pert.epsilon
    brackets = p_lo >= level >= p_hi
    slope = (p_lo - p_hi) / (hi - lo)
    consistent = abs(p_lo - level) <= 3.0 * slope * tol
    ok = decreasing and far < 1e-3 and near > 1e3 and brackets and consistent
    report(5, "monotone level profile", ok,
           f"strictly decreasing {decreasing}, far {far:.1e} (<1e-3), "
           f"near {near:.1e} (>1e3), bracket {brackets}, "
           f"|profile(alpha)-1/eps| {abs(p_lo - level):.1e} "
           f"(<= {3.0 * slope * tol:.1e})")


def test_criterion_06_determinant_symmetry():
    # det H(j omega, sigma, xi) real to 1e-9 relative on 50 probes, and
    # [-v* u*] dH/domega [u; v] real (the extremality factor identity)
    rng = np.random.default_rng(606)
    worst_det, worst_deriv = 0.0, 0.0
    for _ in range(50):
        system = random_plant(rng)
        n = system.n
        sigma = float(rng.uniform(-1.0, 1.0))
        omega = float(rng.uniform(0.0, 5.0))
        xi = float(rng.uniform(0.2, 10.0))
        shifted, _ = shift_system(
            system, PerturbationSpec((1.0,) * (system.m + 1), 0.1), sigma
        )
        det = np.linalg.det(build_nleig(shifted, 1j * omega, xi))
        worst_det = max(worst_det, abs(det.imag) / max(abs(det), 1e-300))
        h = 1e-5
        dh = (build_nleig(shifted, 1j * (omega + h), xi)
              - build_nleig(shifted, 1j * (omega - h), xi)) / (2 * h)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        val = np.concatenate([-v.conj(), u.conj()]) @ (
            dh @ np.concatenate([u, v])
        )
        worst_deriv = max(worst_deriv, abs(val.imag) / (1.0 + abs(val)))
    ok = worst_det <= 1e-9 and worst_deriv <= 1e-9
    report(6, "determinant symmetry", ok,
           f"max |Im det|/|det| {worst_det:.2e} (<=1e-9), "
           f"max derivative-identity imag part {worst_deriv:.2e} (<=1e-9)")


def test_criterion_07_jacobian_validation():
    # analytic corrector Jacobian vs central differences, 20 random states
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(20):
        system = random_plant(rng)
        pert = PerturbationSpec((1.0,) * (system.m + 1), 0.1)
        n = system.n
        anchor = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        anchor /= np.linalg.norm(anchor)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        state = CorrectorState(
            x=np.concatenate([u, v]),
            omega=float(rng.uniform(0.1, 3.0)),
            sigma=float(rng.uniform(-0.8, 0.8)),
            anchor=anchor,
        )
        jac = jacobian(system, pert, state)[1]
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
            fd[:, k] = (residual(system, pert, plus)
                        - residual(system, pert, minus)) / (2 * h)
        worst = max(worst, np.max(np.abs(jac - fd)) / np.max(np.abs(fd)))
    ok = worst <= 1e-5
    report(7, "Jacobian vs finite differences", ok,
           f"max relative deviation {worst:.2e} (<=1e-5) over 20 states")


def test_criterion_08_quadratic_convergence():
    # residual histories on the criterion-3 batch show the quadratic
    # signature: with the last three norms a, b, c the contraction gives
    # c <= 10 b^2/a, down to a rounding floor
    eps_mach = np.finfo(float).eps
    checked = 0
    ok_all = True
    detail = []
    for system, pert in criterion3_cases():
        res = compute_psa(system, pert, N=15, tol=1e-4)
        scale = max(np.linalg.norm(a, 2) for a in system.matrices)
        floor = 200.0 * eps_mach * (1.0 + scale)
        for start in res.correction.per_start:
            hist = start.residual_norms
            if len(hist) < 3:
                continue
            a, b, c = hist[-3], hist[-2], hist[-1]
            bound = max(10.0 * b * b / a if a > 0 else math.inf, floor)
            checked += 1
            if c > bound:
                ok_all = False
                detail.append(f"violation c={c:.2e} bound={bound:.2e}")
    ok = ok_all and checked > 0
    report(8, "quadratic convergence signature", ok,
           f"{checked} histories checked, all within 10 b^2/a "
           f"(floor 200 eps (1+scale))" if ok_all else "; ".join(detail))


def test_criterion_09_prediction_gap():
    # |alpha^N - alpha_eps| nonincreasing over N = 3, 6, 10 and <= 1e-3 at
    # N = 10, on one fixed random plant
    rng = np.random.default_rng(3)
    mats = tuple(rng.uniform(-1.5, 1.5, (2, 2)) for _ in range(3))
    system = TimeDelaySystem((0.0, 0.5, 1.3), mats)
    pert = PerturbationSpec((1.0, 1.0, 1.0), 0.1)
    ref = compute_psa(system, pert, N=18, tol=1e-8).alpha_eps
    gaps = [abs(predict(system, pert, N=N, tol=1e-8).alpha_pred - ref)
            for N in (3, 6, 10)]
    nonincreasing = all(gaps[k + 1] <= gaps[k] + 1e-12 for k in range(2))
    ok = nonincreasing and gaps[-1] <= 1e-3
    report(9, "prediction gap vs mesh order", ok,
           f"gaps at N=3,6,10: {gaps[0]:.2e}, {gaps[1]:.2e}, {gaps[2]:.2e} "
           f"(nonincreasing, last <=1e-3)")


def test_criterion_10_scale_sanity():
    # a (n, m) = (10, 7) plant completes at N=15, tol=1e-3 inside 30 s
    rng = np.random.default_rng(7)
    n, m = 10, 7
    delays = (0.0,) + tuple(np.sort(rng.uniform(0.1, 1.0, m)))
    mats = tuple(rng.normal(0.0, 1.0, (n, n)) / math.sqrt(n)
                 for _ in range(m + 1))
    system = TimeDelaySystem(delays, mats)
    pert= PerturbationSpec((1.0,) * (m + 1), 0.05)
    t0 = time.perf_counter()
    res = compute_psa(system, pert, N=15, tol=1e-3)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0 and res.alpha_eps >= res.prediction.shift_used
    report(10, "large plant scale sanity", ok,
           f"(n,m)=(10,7) at N=15 in {elapsed:.2f} s (<30), "
           f"alpha_eps {res.alpha_eps:+.6f}")
