import math

import numpy as np
import pytest

from delaypsa import (
    GridRegion,
    PerturbationSpec,
    PredictionResult,
    TimeDelaySystem,
    compute_psa,
    contours,
    correct,
    eval_level,
    eval_weight,
    grid_level,
    grid_psa,
    predict,
    shift_system,
)

from conftest import (
    _criterion10_plant,
    _small_batch_plant,
    _wide_plant,
    delay_free,
    grid_alpha_ref,
)

_REGION = GridRegion(-1.0, 0.5, 0.0, 2.0, 5, 5)
_PREDICTION = PredictionResult(alpha_pred=-0.2, frequencies=np.array([1.3]),
                               iterations=0, bracket=(-0.2, -0.1),
                               shift_used=-0.3)
ENTRY_POINTS = {
    "compute_psa": lambda s, p: compute_psa(s, p),
    "predict": lambda s, p: predict(s, p),
    "correct": lambda s, p: correct(s, p, _PREDICTION),
    "grid_level": lambda s, p: grid_level(s, p, _REGION),
    "grid_psa": lambda s, p: grid_psa(s, p, _REGION),
    "contours": lambda s, p: contours(s, p, _REGION),
    "eval_level": lambda s, p: eval_level(s, p, 0.1 + 1.0j),
    "eval_weight": lambda s, p: eval_weight(p, s, 0.1),
    "shift_system": lambda s, p: shift_system(s, p, 0.1),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_mismatched_pair_raises_value_error(name, one_delay):
    # two matrices, one weight: the entry points validate the pair once and
    # the model helpers reject it through their strict loops
    with pytest.raises(ValueError):
        ENTRY_POINTS[name](one_delay, PerturbationSpec((1.0,), 0.1))


def test_compute_composes_predict_and_correct(one_delay, one_delay_pert):
    pred = predict(one_delay, one_delay_pert, N=15, tol=1e-3)
    corr = correct(one_delay, one_delay_pert, pred)
    res = compute_psa(one_delay, one_delay_pert, N=15, tol=1e-3)
    assert res.alpha_eps == corr.alpha_eps
    assert res.omega_eps == corr.omega_eps
    assert res.prediction.alpha_pred == pred.alpha_pred


def test_result_carries_both_stages(one_delay, one_delay_pert):
    res = compute_psa(one_delay, one_delay_pert, N=15, tol=1e-3)
    assert res.prediction.bracket[0] <= res.prediction.alpha_pred
    assert all(s.converged for s in res.correction.per_start)
    assert res.warnings == ()


def test_warnings_concatenate_across_stages():
    # a cross-level mismatch makes the corrector warn; the pipeline result
    # must surface it
    sys0 = delay_free(0.0)
    pred = predict(sys0, PerturbationSpec((1.0,), 0.25), N=0, tol=1e-6)
    corr = correct(sys0, PerturbationSpec((1.0,), 0.26), pred)
    assert corr.warnings  # sanity for the scenario itself
    res = compute_psa(sys0, PerturbationSpec((1.0,), 0.25), N=0, tol=1e-6)
    assert res.warnings == res.prediction.warnings + res.correction.warnings


def test_left_of_shift_answer_warns():
    # small-batch-wide seed 1 plant 166 (n = m = 2): Gauss-Newton lands at
    # 0.108488, left of the spectral abscissa 0.130621, which every
    # pseudospectrum contains; the answer must not come back silently (until
    # the reseed of ROADMAP item 1 repairs it).  The small-batch plant drawn
    # from the same stream is answered correctly and does not warn.
    def warned(recipe):
        rng = np.random.default_rng([1, 166])
        system = recipe(rng, 2, 2)
        pert = PerturbationSpec((1.0,) * 3, float(10.0 ** rng.uniform(-3.0, 0.0)))
        res = compute_psa(system, pert, N=15, tol=1e-3)
        left = any("left of the spectral abscissa" in w for w in res.warnings)
        assert left == (res.alpha_eps < res.prediction.shift_used)
        return left

    assert warned(_wide_plant)
    assert not warned(_small_batch_plant)


def test_scale_invariance_of_the_disk():
    # alpha_eps(a, eps) = a + eps across magnitudes
    for a, eps in ((0.0, 1e-3), (5.0, 2.0), (-10.0, 0.5)):
        res = compute_psa(delay_free(a), PerturbationSpec((1.0,), eps),
                          tol=1e-6)
        assert abs(res.alpha_eps - (a + eps)) < 1e-8 * max(1.0, abs(a))


@pytest.mark.parametrize("seed", range(5))
def test_alpha_does_not_depend_on_the_prediction(seed):
    # a finer prediction starts Gauss-Newton elsewhere; the polish step
    # leaves both answers at the same converged value
    system = _criterion10_plant(np.random.default_rng(100 + seed), 10, 7)
    pert = PerturbationSpec((1.0,) * 8, 0.01)
    coarse = compute_psa(system, pert, tol=1e-3).alpha_eps
    fine = compute_psa(system, pert, tol=1e-6).alpha_eps
    assert abs(coarse - fine) <= 1e-12 * abs(fine)


def _small_batch_case(i, seed=1):
    # the small-batch benchmark's plant i: (n, m) from i mod 9, matrices
    # uniform(-2, 2), delays up to 1, epsilon 10**uniform(-3, 0)
    rng = np.random.default_rng([seed, i])
    n, m = (k + 1 for k in divmod(i % 9, 3))
    mats = tuple(rng.uniform(-2.0, 2.0, (n, n)) for _ in range(m + 1))
    delays = (0.0,) + tuple(np.sort(rng.uniform(0.01, 1.0, m)))
    eps = float(10.0 ** rng.uniform(-3.0, 0.0))
    return TimeDelaySystem(delays, mats), PerturbationSpec((1.0,) * (m + 1), eps)


def _large_case():
    # the acceptance suite's criterion-10 plant
    system = _criterion10_plant(np.random.default_rng(7), 10, 7)
    return system, PerturbationSpec((1.0,) * 8, 0.05)


@pytest.mark.parametrize("case", [0, 4, 8, "large"])
def test_handed_off_frequencies_start_the_corrector(case):
    # the predictor hands the corrector the frequency where its search
    # proved the lower end inside; Gauss-Newton converges from it to the
    # abscissa the brute-force grid oracle finds (criterion 3's tolerance)
    system, pert = _large_case() if case == "large" else _small_batch_case(case)
    res = compute_psa(system, pert, N=15, tol=1e-3)
    assert res.prediction.frequencies.size
    assert all(s.converged for s in res.correction.per_start)
    assert abs(res.alpha_eps - grid_alpha_ref(system, pert, res)) <= 2e-3


@pytest.mark.parametrize("seed, plant", [(2, 4899), (3, 195), (3, 458)])
def test_real_axis_interval_hands_off_its_upper_half(seed, plant):
    # small-batch plants whose last vertical interval reaches the real
    # axis, with a stationary point of the boundary on the axis left of the
    # rightmost point (seed 2 plant 4899: sigma 1.66445 on the axis, the
    # rightmost point 1.66510 at omega 0.254).  Halving the last inside
    # point of the doubling walk up, not the interval's narrowed end,
    # started Gauss-Newton between the two basins: plant 4899 was stopped
    # as diverging, and plants 195 and 458 silently returned the point on
    # the axis, 3.2e-4 and 2.8e-4 left of the rightmost one.  The grid
    # oracle resolves these plants to 5.4e-5 or better
    system, pert = _small_batch_case(plant, seed)
    res = compute_psa(system, pert, N=15, tol=1e-3)
    assert all(s.converged for s in res.correction.per_start)
    assert abs(res.alpha_eps - grid_alpha_ref(system, pert, res)) <= 1e-4


def _large_norm_plant(i):
    # matrices uniform(-50, 50), delays up to 1
    rng = np.random.default_rng([7, i])
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    mats = tuple(rng.uniform(-50.0, 50.0, (n, n)) for _ in range(m + 1))
    delays = (0.0,) + tuple(np.sort(rng.uniform(0.01, 1.0, m)))
    eps = float(10.0 ** rng.uniform(-3.0, 0.0))
    return TimeDelaySystem(delays, mats), PerturbationSpec((1.0,) * (m + 1), eps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("plant", [81, 151])
def test_far_newton_start_does_not_overflow(plant):
    # at N = 6 a Newton start of these plants walks far left, where its
    # residual is finite but squaring it overflows; that start fails and
    # the answer comes back, left of the shift only with the warning
    res = compute_psa(*_large_norm_plant(plant), N=6, tol=1e-3)
    assert math.isfinite(res.alpha_eps)
    assert res.alpha_eps >= res.prediction.shift_used or any(
        "left of the spectral abscissa" in w for w in res.warnings)
