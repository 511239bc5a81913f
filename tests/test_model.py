import dataclasses
import math

import numpy as np
import pytest

from delaypsa import (
    PerturbationSpec,
    TimeDelaySystem,
    char_matrix,
    eval_level,
    eval_weight,
    numerics,
    shift_system,
)
from delaypsa.model import check_pair, delay_bound

from conftest import (
    _criterion10_plant,
    _large_norm_plant,
    _small_batch_plant,
    _stiff_plant,
    _wide_plant,
    char_matrix_reference,
    delay_free,
)


def test_valid_delay_free_scalar():
    sys0 = delay_free(0.0)
    assert sys0.n == 1 and sys0.m == 0 and sys0.tau_max == 0.0


def test_rejects_negative_delay():
    with pytest.raises(ValueError, match="nonpositive delay"):
        TimeDelaySystem((0.0, -1.0), (np.zeros((1, 1)), np.zeros((1, 1))))


def test_rejects_missing_zero_delay():
    with pytest.raises(ValueError, match="zero delay"):
        TimeDelaySystem((0.5, 1.0), (np.zeros((1, 1)), np.zeros((1, 1))))


def test_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        TimeDelaySystem((0.0, 1.0), (np.zeros((2, 2)), np.zeros((3, 3))))


def test_rejects_count_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        TimeDelaySystem((0.0, 1.0, 2.0), (np.zeros((2, 2)), np.zeros((2, 2))))


def test_rejects_nonfinite_matrix():
    with pytest.raises(ValueError, match="non-finite"):
        TimeDelaySystem((0.0,), (np.array([[np.nan]]),))


@pytest.mark.parametrize("delays, matrices, message", [
    ((), (), "at least the zero-delay term"),
    ((0.0,), (np.zeros((1, 2)),), "not square"),
    ((0.0, math.inf), (np.zeros((1, 1)), np.zeros((1, 1))), "delays must be finite"),
])
def test_rejects_malformed_system(delays, matrices, message):
    with pytest.raises(ValueError, match=message):
        TimeDelaySystem(delays, matrices)


def test_weights_validation():
    with pytest.raises(ValueError, match="positive"):
        PerturbationSpec((1.0, -2.0), 0.1)
    with pytest.raises(ValueError, match="finite"):
        PerturbationSpec((math.inf, math.inf), 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        PerturbationSpec((1.0,), 0.0)
    with pytest.raises(ValueError, match="nonempty"):
        PerturbationSpec((), 0.1)


def test_system_matrices_are_read_only_copies():
    a0 = np.eye(2)
    system = TimeDelaySystem((0.0, 1.0), (a0, np.eye(2)))
    with pytest.raises(ValueError, match="read-only"):
        system.matrices[0][0, 0] = 5.0
    a0[0, 0] = 5.0  # the caller's array stays writable and apart
    assert system.matrices[0][0, 0] == 1.0


def test_system_norms_are_cached_and_read_only():
    system = TimeDelaySystem((0.0, 1.0), (np.diag([3.0, -4.0]), [[1.0, 1.0],
                                                                 [1.0, 1.0]]))
    assert system.norms == (4.0, float(np.linalg.norm(system.matrices[1], 2)))
    assert system.norms is system.norms
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.norms = (0.0, 0.0)


def test_system_char_matrix_tables_are_cached_and_read_only():
    system = TimeDelaySystem((0.0, 0.5), (np.diag([3.0, -4.0]), np.eye(2)))
    assert system.delay_array.tolist() == [0.0, 0.5]
    assert np.array_equal(system.identity, np.eye(2))
    terms = system.delay_terms((0, 1, 2))
    assert terms.shape == (2, 3, 2, 2)
    assert np.array_equal(terms[:, 0], system.matrices)
    assert np.array_equal(terms[1, 2], 0.25 * np.eye(2))
    assert system.delay_terms((0, 1, 2)) is terms
    tables = (system.delay_array, system.identity, terms,
              system.delay_terms((1,)))
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 7.0


def test_systems_hash_and_compare_by_identity():
    a = TimeDelaySystem((0.0, 1.0), (np.eye(2), np.eye(2)))
    b = TimeDelaySystem((0.0, 1.0), (np.eye(2), np.eye(2)))
    assert hash(a) == hash(a)
    assert a == a
    assert a != b
    assert len({a, b}) == 2


def test_check_pair_counts_weights():
    sys1 = TimeDelaySystem((0.0, 1.0), (np.zeros((1, 1)), np.eye(1)))
    with pytest.raises(ValueError, match="weights"):
        check_pair(sys1, PerturbationSpec((1.0,), 0.1))


def test_char_matrix_delay_free():
    assert np.allclose(char_matrix(delay_free(0.0), 1.0), [[1.0]])
    assert np.allclose(char_matrix(delay_free(2.0), 2.0), [[0.0]])


def test_char_matrix_one_delay_at_zero():
    # 0 - 1*exp(0) = -1
    sys1 = TimeDelaySystem((0.0, 1.0), (np.zeros((1, 1)), np.eye(1)))
    assert np.allclose(char_matrix(sys1, 0.0), [[-1.0]])


def test_char_matrix_slope_matches_finite_differences():
    rng = np.random.default_rng(21)
    sys1 = TimeDelaySystem(
        (0.0, 0.7, 1.3), tuple(rng.standard_normal((3, 3)) for _ in range(3))
    )
    lam = 0.2 + 0.9j
    h = 1e-6
    fd = (char_matrix(sys1, lam + h) - char_matrix(sys1, lam - h)) / (2 * h)
    assert np.max(np.abs(char_matrix(sys1, lam, 1) - fd)) < 1e-8


@pytest.mark.parametrize("recipe", [_criterion10_plant, _stiff_plant,
                                    _wide_plant])
def test_char_matrix_stack_matches_scalar_calls(recipe):
    # an array of lam gives the stack of the scalar calls, bit for bit
    for seed in range(10):
        rng = np.random.default_rng([43, seed])
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        system = recipe(rng, n, m)
        lam = rng.uniform(-2.0, 2.0, (2, 3)) + 1j * rng.uniform(-5.0, 5.0, (2, 3))
        for k in range(3):
            stack = char_matrix(system, lam, k)
            assert stack.shape == (2, 3, n, n)
            for idx in np.ndindex(lam.shape):
                one = char_matrix(system, lam[idx], k)
                assert one.shape == (n, n)
                assert stack[idx].tobytes() == one.tobytes()


@pytest.mark.parametrize("recipe", [_criterion10_plant, _stiff_plant,
                                    _wide_plant, _small_batch_plant])
def test_char_matrix_matches_reference(recipe):
    # filling one buffer in place gives the bytes of one new stack per delay
    for seed in range(10):
        rng = np.random.default_rng([47, seed])
        n, m = int(rng.integers(1, 6)), int(rng.integers(0, 6))
        system = recipe(rng, n, m)
        if seed == 9:  # a repeated delay, and an exactly zero matrix
            system = TimeDelaySystem(
                system.delays + system.delays[-1:],
                (*system.matrices[:-1], np.zeros((n, n)), system.matrices[-1]))
        lam = rng.uniform(-3.0, 2.0, (3, 4)) + 1j * rng.uniform(-8.0, 8.0, (3, 4))
        lam[0, :2] = [0.0, lam[0, 2].real]  # lam = 0 and a real lam
        for k in range(3):
            got = char_matrix(system, lam, k)
            assert got.tobytes() == char_matrix_reference(system, lam, k).tobytes()
            for z in (lam[0, 0], lam[0, 1], lam[2, 3], complex(lam[1, 1]), 0.7):
                one = char_matrix_reference(system, z, k)
                assert char_matrix(system, z, k).tobytes() == one.tobytes()
        # a tuple of orders gives the stack of the one-order calls
        for z in (lam, lam[1, 2], 0.7):
            for orders in ((0, 1), (0, 1, 2), (2, 0), (1,)):
                together = char_matrix(system, z, orders)
                assert together.shape == (len(orders), *np.shape(z), n, n)
                for got, k in zip(together, orders):
                    assert got.tobytes() == char_matrix(system, z, k).tobytes()


def test_char_matrix_stack_with_a_root_is_singular():
    # F(-1) of x' = diag(-1, -3) x is singular; solving the stack must
    # still raise the typed error
    system = TimeDelaySystem((0.0,), (np.diag([-1.0, -3.0]),))
    stack = char_matrix(system, np.array([0.5, -1.0, 2.0]))
    rhs = np.ones((3, 2, 1), dtype=complex)
    with pytest.raises(numerics.SingularMatrixError):
        numerics.solve_complex(stack, rhs)
    x = numerics.solve_complex(stack[[0, 2]], rhs[[0, 2]])
    assert np.allclose(x[:, :, 0], [[1 / 1.5, 1 / 3.5], [1 / 3.0, 1 / 5.0]])


def test_weight_eight_unit_terms():
    delays = (0.0,) + tuple(0.1 * k for k in range(1, 8))
    sys8 = TimeDelaySystem(delays, tuple(np.zeros((1, 1)) for _ in range(8)))
    pert = PerturbationSpec((1.0,) * 8, 0.1)
    assert eval_weight(pert, sys8, 0.0) == 8.0


def test_weight_infinite_weight_drops_term(one_delay):
    pert = PerturbationSpec((1.0, math.inf), 0.1)
    assert eval_weight(pert, one_delay, 5.0) == 1.0


def test_weight_log2_value(one_delay):
    pert = PerturbationSpec((1.0, 1.0), 0.1)
    assert abs(eval_weight(pert, one_delay, math.log(2.0)) - 1.5) < 1e-15


def test_weight_slope_matches_finite_differences(one_delay, one_delay_pert):
    h = 1e-7
    fd = (
        eval_weight(one_delay_pert, one_delay, 0.3 + h)
        - eval_weight(one_delay_pert, one_delay, 0.3 - h)
    ) / (2 * h)
    assert abs(eval_weight(one_delay_pert, one_delay, 0.3, 1) - fd) < 1e-8


def test_level_reciprocal_distance_for_disk():
    pert = PerturbationSpec((1.0,), 0.25)
    assert abs(eval_level(delay_free(0.0), pert, 2.0) - 0.5) < 1e-15
    # the boundary of the disk |lam| <= eps sits exactly at level 1/eps
    assert abs(eval_level(delay_free(0.0), pert, 0.25) - 4.0) < 1e-12


def test_level_one_delay_hand_value():
    # A_1 = [1]: f(1) = (1 + e^-1) / |1 - e^-1|
    sys1 = TimeDelaySystem((0.0, 1.0), (np.zeros((1, 1)), np.eye(1)))
    pert = PerturbationSpec((1.0, 1.0), 0.1)
    expect = (1.0 + math.exp(-1.0)) / abs(1.0 - math.exp(-1.0))
    got = eval_level(sys1, pert, 1.0)
    assert abs(got - expect) < 1e-12
    assert abs(got - 2.1639) < 1e-4


def test_level_infinite_at_root():
    pert = PerturbationSpec((1.0,), 0.1)
    assert eval_level(delay_free(2.0), pert, 2.0) == math.inf


@pytest.mark.parametrize("recipe", [_criterion10_plant, _stiff_plant,
                                    _large_norm_plant])
def test_delay_bound_matches_inline_sums(recipe):
    # the three sums the oracle wrote out inline, bit for bit, at a scalar
    # sigma and elementwise over an array; k = 2 weighs by tau * tau
    def inline(system, sigma, weight):
        with np.errstate(over="ignore", invalid="ignore"):
            return sum(weight(tau) * na * np.exp(-tau * sigma)
                       for tau, na in zip(system.delays, system.norms))

    weights = (lambda tau: 1.0, lambda tau: tau, lambda tau: tau * tau)
    for seed in range(20):
        rng = np.random.default_rng([83, seed])
        n, m = int(rng.integers(1, 5)), int(rng.integers(0, 5))
        system = recipe(rng, n, m)
        sigmas = np.concatenate([rng.uniform(-3.0, 2.0, 30), [-1e6]])
        for k, weight in enumerate(weights):
            got = delay_bound(system, sigmas, k)
            assert got.tobytes() == inline(system, sigmas, weight).tobytes()
            for s in (float(sigmas[0]), sigmas[1]):
                assert delay_bound(system, s, k) == inline(system, s, weight)
            # far left the sum is not finite, and numpy does not warn
            assert not np.isfinite(got[-1]) or m == 0


def test_shift_identity(one_delay, one_delay_pert):
    shifted, spert = shift_system(one_delay, one_delay_pert, 0.0)
    assert shifted.delays == one_delay.delays
    for a, b in zip(shifted.matrices, one_delay.matrices):
        assert np.array_equal(a, b)
    assert spert.weights == one_delay_pert.weights


def test_shift_delay_free_term():
    shifted, _ = shift_system(delay_free(3.0), PerturbationSpec((1.0,), 0.1), 3.0)
    assert np.allclose(shifted.matrices[0], [[0.0]])


def test_shift_log2_scales_delayed_term():
    sys1 = TimeDelaySystem((0.0, 1.0), (np.zeros((1, 1)), np.eye(1)))
    pert = PerturbationSpec((1.0, 1.0), 0.1)
    shifted, spert = shift_system(sys1, pert, math.log(2.0))
    assert np.allclose(shifted.matrices[1], [[0.5]])
    assert abs(spert.weights[1] - 2.0) < 1e-15


def test_shift_preserves_level_function(random_system):
    # f_hat(mu) = f(mu + alpha) must hold exactly, not approximately
    rng = np.random.default_rng(33)
    for seed in range(5):
        system, pert = random_system(seed)
        alpha = float(rng.uniform(-2.0, 2.0))
        shifted, spert = shift_system(system, pert, alpha)
        for _ in range(4):
            mu = complex(rng.uniform(-1, 1), rng.uniform(-3, 3))
            a = eval_level(shifted, spert, mu)
            b = eval_level(system, pert, mu + alpha)
            assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("recipe", [_criterion10_plant, _stiff_plant,
                                    _wide_plant])
def test_shifted_char_matrix_is_char_matrix_at_shifted_point(recipe):
    # F_s(mu) = F(mu + s) with its derivatives, so the corrector can skip
    # the shift and evaluate F at sigma + j*omega
    for seed in range(10):
        rng = np.random.default_rng([41, seed])
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        system = recipe(rng, n, m)
        pert = PerturbationSpec((1.0,) * (m + 1), 0.1)
        s = float(rng.uniform(-1.0, 1.0))
        shifted = shift_system(system, pert, s)[0]
        mu = complex(rng.uniform(-1.0, 1.0), rng.uniform(-5.0, 5.0))
        for k in range(3):
            want = char_matrix(system, mu + s, k)
            got = char_matrix(shifted, mu, k)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_shift_keeps_infinite_weights(one_delay):
    pert = PerturbationSpec((1.0, math.inf), 0.1)
    _, spert = shift_system(one_delay, pert, 1.7)
    assert math.isinf(spert.weights[1])
