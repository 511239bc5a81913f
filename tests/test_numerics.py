import multiprocessing
import os
import subprocess
import sys
import threading

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


def test_svd_identity():
    assert np.allclose(numerics.svd_complex(np.eye(4)), 1.0)


def test_svd_complex_diagonal_moduli():
    vals = numerics.svd_complex(np.diag([3.0, 4.0j]))
    assert np.allclose(vals, [4.0, 3.0])  # sorted descending


def test_svd_rank_one():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    vals = numerics.svd_complex(np.outer(u, v.conj()))
    assert abs(vals[0] - 1.0) < 1e-14
    assert np.all(vals[1:] < 1e-14)


def test_svd_vectors_reconstruct():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    u, s, vh = numerics.svd_complex(a, vectors=True)
    back = u @ np.diag(s) @ vh
    assert np.max(np.abs(a - back)) < 1e-13


def test_batched_singular_values_match_loop():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((8, 3, 3)) + 1j * rng.standard_normal((8, 3, 3))
    batched = numerics.singular_values(stack)
    for k in range(8):
        assert np.allclose(batched[k], numerics.svd_complex(stack[k]))


def _random_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("count", [1, 100, numerics._PIECE, numerics._PIECE + 1,
                                   2 * numerics._PIECE, 3 * numerics._PIECE + 17])
def test_split_singular_values_bytes_equal_one_call(monkeypatch, workers, count):
    # below, at and above one piece, and counts no piece size divides
    monkeypatch.setattr(numerics, "_WORKERS", workers)
    stack = _random_stack(np.random.default_rng([21, count]), (count, 4, 4))
    got = numerics.singular_values(stack)
    want = np.linalg.svd(stack, compute_uv=False)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(5, 3), (3, 7), (7, 300, 2, 5), (2, 400, 5, 2),
                                   (3 * numerics._PIECE + 5, 6, 3)])
def test_split_singular_values_any_leading_dims(monkeypatch, shape):
    # 2-D and 4-D inputs, and p != q either way round
    monkeypatch.setattr(numerics, "_WORKERS", 2)
    stack = _random_stack(np.random.default_rng(22), shape)
    got = numerics.singular_values(stack)
    want = np.linalg.svd(stack, compute_uv=False)
    assert got.shape == want.shape == shape[:-2] + (min(shape[-2:]),)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_split_singular_values_nan_raises(monkeypatch, workers):
    # one bad matrix deep in a stack of many pieces fails the whole call
    monkeypatch.setattr(numerics, "_WORKERS", workers)
    stack = _random_stack(np.random.default_rng(24), (5 * numerics._PIECE, 3, 3))
    stack[4 * numerics._PIECE + 9, 1, 2] = np.nan
    with pytest.raises(numerics.NoConvergenceError):
        numerics.singular_values(stack)
    # the pool still serves the next call
    good = stack[: 2 * numerics._PIECE]
    assert np.array_equal(numerics.singular_values(good),
                          np.linalg.svd(good, compute_uv=False))


def test_split_singular_values_under_thread_stress(monkeypatch):
    # more workers than cores, several calling threads sharing the pool and
    # a short switch interval: every call must still get its own values
    monkeypatch.setattr(numerics, "_WORKERS", 8)
    monkeypatch.setattr(numerics, "_POOL", [])
    rng = np.random.default_rng(26)
    stacks = [_random_stack(rng, (numerics._PIECE * k + 3, 3, 3)) for k in (2, 3, 5, 7)]
    wants = [np.linalg.svd(st, compute_uv=False).tobytes() for st in stacks]
    ok = [0] * len(stacks)

    def caller(i):
        for _ in range(5):
            ok[i] += numerics.singular_values(stacks[i]).tobytes() == wants[i]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,))
                   for i in range(len(stacks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        for pool in numerics._POOL:
            pool.shutdown()
    assert ok == [5] * len(stacks)


def test_worker_count_is_the_usable_cpus():
    assert numerics._WORKERS == len(os.sched_getaffinity(0))


def test_pool_made_on_first_split_only():
    # importing the package and solving with the predictor start no thread
    # pool and do not import concurrent.futures; a split sweep does both
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from delaypsa import PerturbationSpec, TimeDelaySystem, compute_psa\n"
        "from delaypsa import numerics\n"
        "numerics._WORKERS = 2\n"
        "compute_psa(TimeDelaySystem((0.0, 1.0), ([[0.0]], [[-1.0]])),\n"
        "            PerturbationSpec((1.0, 1.0), 0.1))\n"
        "assert 'concurrent.futures' not in sys.modules and not numerics._POOL\n"
        "numerics.singular_values(np.ones((numerics._PIECE + 1, 2, 2)))\n"
        "assert 'concurrent.futures' in sys.modules and len(numerics._POOL) == 1\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _split_sweep_in_child(stack, want):
    got = numerics.singular_values(stack)
    os._exit(0 if got.tobytes() == want.tobytes() else 1)


# Python 3.12 warns on fork in a process with threads; the child is checked here
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
def test_split_sweep_in_forked_child(monkeypatch):
    # a forked child inherits the pool object but not its worker threads; it
    # must make its own pool instead of waiting on dead workers forever
    monkeypatch.setattr(numerics, "_WORKERS", 2)
    stack = _random_stack(np.random.default_rng(25), (4 * numerics._PIECE, 3, 3))
    want = numerics.singular_values(stack)
    assert numerics._POOL
    child = multiprocessing.get_context("fork").Process(
        target=_split_sweep_in_child, args=(stack, want))
    child.start()
    child.join(timeout=60)
    if child.exitcode is None:
        child.kill()
        child.join()
        pytest.fail("the split sweep in the forked child hung")
    assert child.exitcode == 0


def test_svd_stack_matches_loop():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    _, values, right_h = numerics.svd_complex(stack, vectors=True)
    for k in range(4):
        _, one_values, one_right_h = numerics.svd_complex(stack[k], vectors=True)
        assert np.array_equal(values[k], one_values)
        assert np.array_equal(right_h[k], one_right_h)


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
    with pytest.raises(numerics.RankDeficientError,
                       match=r"^numerical rank 1 < 3 columns$"):
        numerics.least_squares_real(j, np.ones(5))
