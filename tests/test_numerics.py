import numpy as np
import pytest

from delaypsa import numerics


def test_eig_diagonal():
    vals = numerics.eig_real(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(np.sort(vals.real), [1.0, 2.0, 3.0])
    assert np.allclose(vals.imag, 0.0)


def test_eig_rotation_generator():
    # [[0, 1], [-1, 0]] has eigenvalues +-j
    vals = numerics.eig_real(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(np.sort(vals.imag), [-1.0, 1.0])
    assert np.allclose(vals.real, 0.0)


def test_eig_companion():
    # companion matrix of lambda^2 - 3 lambda + 2 = (lambda-1)(lambda-2)
    comp = np.array([[3.0, -2.0], [1.0, 0.0]])
    vals = numerics.eig_real(comp)
    assert np.allclose(np.sort(vals.real), [1.0, 2.0])
    assert np.allclose(vals.imag, 0.0)


def test_eig_rejects_nonsquare():
    with pytest.raises(ValueError):
        numerics.eig_real(np.zeros((2, 3)))


def test_svd_identity():
    assert np.allclose(numerics.svd_complex(np.eye(4)).values, 1.0)


def test_svd_complex_diagonal_moduli():
    vals = numerics.svd_complex(np.diag([3.0, 4.0j])).values
    assert np.allclose(vals, [4.0, 3.0])  # sorted descending


def test_svd_rank_one():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    vals = numerics.svd_complex(np.outer(u, v.conj())).values
    assert abs(vals[0] - 1.0) < 1e-14
    assert np.all(vals[1:] < 1e-14)


def test_svd_vectors_reconstruct():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    sv = numerics.svd_complex(a, vectors=True)
    back = sv.left @ np.diag(sv.values) @ sv.right_h
    assert np.max(np.abs(a - back)) < 1e-13


def test_batched_singular_values_match_loop():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((8, 3, 3)) + 1j * rng.standard_normal((8, 3, 3))
    batched = numerics.singular_values(stack)
    for k in range(8):
        assert np.allclose(batched[k], numerics.svd_complex(stack[k]).values)


def test_svd_stack_matches_loop():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    batched = numerics.svd_complex(stack, vectors=True)
    for k in range(4):
        one = numerics.svd_complex(stack[k], vectors=True)
        assert np.array_equal(batched.values[k], one.values)
        assert np.array_equal(batched.right_h[k], one.right_h)


def test_solve_identity():
    b = np.array([1.0 + 2.0j, -3.0j])
    assert np.allclose(numerics.solve_complex(np.eye(2), b), b)


def test_solve_diagonal():
    a = np.diag([2.0, 4.0])
    b = np.array([2.0, 8.0], dtype=complex)
    assert np.allclose(numerics.solve_complex(a, b), [1.0, 2.0])


def test_solve_random_residual():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    x = numerics.solve_complex(a, b)
    assert np.linalg.norm(a @ x - b) < 1e-12 * np.linalg.norm(b)


def test_solve_singular_raises():
    with pytest.raises(numerics.SingularMatrixError):
        numerics.solve_complex(np.zeros((2, 2)), np.ones(2))


def test_least_squares_square_reduces_to_solve():
    rng = np.random.default_rng(13)
    j = rng.standard_normal((4, 4))
    r = rng.standard_normal(4)
    step = numerics.least_squares_real(j, r)
    assert np.allclose(j @ step, -r)


def test_least_squares_overdetermined_consistent():
    rng = np.random.default_rng(15)
    j = rng.standard_normal((7, 3))
    x = rng.standard_normal(3)
    step = numerics.least_squares_real(j, j @ x)
    assert np.allclose(step, -x)


def test_least_squares_normal_equations_orthogonality():
    # the optimal step leaves a residual orthogonal to the column space
    rng = np.random.default_rng(17)
    j = rng.standard_normal((9, 4))
    r = rng.standard_normal(9)
    step = numerics.least_squares_real(j, r)
    assert np.max(np.abs(j.T @ (j @ step + r))) < 1e-12


def test_least_squares_rank_deficient_raises():
    j = np.zeros((5, 3))
    j[:, 0] = 1.0
    with pytest.raises(numerics.RankDeficientError) as err:
        numerics.least_squares_real(j, np.ones(5))
    assert err.value.rank == 1
    assert err.value.needed == 3
