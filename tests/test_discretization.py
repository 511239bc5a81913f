import math

import numpy as np
import pytest

from delaypsa import (
    PerturbationSpec,
    TimeDelaySystem,
    char_matrix,
    compute_psa,
    eval_weight,
    numerics,
    predict,
)
from delaypsa.discretization import (
    assemble,
    char_matrix_approx,
    chebyshev_mesh,
    differentiation_matrix,
    lagrange_values,
    reassemble,
    spectral_abscissa_approx,
)
from delaypsa.model import shift_system
from delaypsa.predictor import hamiltonian

from conftest import (
    _criterion10_plant,
    _stiff_plant,
    _wide_plant,
    delay_free,
    input_matrix,
    transfer_function,
)


# --- mesh ---------------------------------------------------------------


def test_mesh_small_cases():
    assert np.allclose(chebyshev_mesh(2, 1.0).points, [-1.0, -0.5, 0.0])
    assert np.allclose(chebyshev_mesh(1, 2.0).points, [-2.0, 0.0])


def test_mesh_midpoint_n4():
    mesh = chebyshev_mesh(4, 1.0)
    assert abs(mesh.points[2] - (-0.5)) < 1e-15


def test_mesh_matches_direct_formula():
    rng = np.random.default_rng(1)
    for _ in range(5):
        N = int(rng.integers(1, 30))
        span = float(rng.uniform(0.1, 5.0))
        mesh = chebyshev_mesh(N, span)
        expect = 0.5 * span * (np.cos(np.arange(-N, 1) * np.pi / N) - 1.0)
        assert np.max(np.abs(mesh.points - expect)) < 1e-14
        assert mesh.points[0] == -span and mesh.points[-1] == 0.0


# --- differentiation matrix ----------------------------------------------


def test_diff_matrix_n1_closed_form():
    for tau in (1.0, 2.5):
        d = differentiation_matrix(chebyshev_mesh(1, tau))
        assert np.allclose(d, [[-1.0 / tau, 1.0 / tau], [-1.0 / tau, 1.0 / tau]])


def test_diff_matrix_annihilates_constants():
    d = differentiation_matrix(chebyshev_mesh(9, 1.7))
    assert np.max(np.abs(d @ np.ones(10))) < 1e-12


def test_diff_matrix_differentiates_mesh():
    mesh = chebyshev_mesh(7, 2.0)
    d = differentiation_matrix(mesh)
    assert np.max(np.abs(d @ mesh.points - 1.0)) < 1e-12


def test_diff_matrix_exact_on_polynomials():
    # degree-N polynomials are in the interpolation space, so D is exact
    mesh = chebyshev_mesh(8, 1.0)
    d = differentiation_matrix(mesh)
    t = mesh.points
    for k in range(2, 9):
        assert np.max(np.abs(d @ t**k - k * t ** (k - 1))) < 1e-10


# --- barycentric evaluation ----------------------------------------------


def test_lagrange_cardinal_property():
    mesh = chebyshev_mesh(6, 1.3)
    for k, t in enumerate(mesh.points):
        vals = lagrange_values(mesh, t)
        expect = np.zeros(7)
        expect[k] = 1.0
        assert np.max(np.abs(vals - expect)) < 1e-13


def test_lagrange_partition_of_unity():
    mesh = chebyshev_mesh(10, 2.2)
    rng = np.random.default_rng(4)
    for t in rng.uniform(-2.2, 0.0, 6):
        assert abs(lagrange_values(mesh, t).sum() - 1.0) < 1e-12


def test_lagrange_linear_midpoint():
    vals = lagrange_values(chebyshev_mesh(1, 1.0), -0.5)
    assert np.allclose(vals, [0.5, 0.5])


# --- collocation state matrix ---------------------------------------------


def test_assemble_delay_free_embeds_plant():
    a0 = np.diag([-1.0, -3.0])
    disc = assemble(TimeDelaySystem((0.0,), (a0,)), 4)
    n = 2
    bottom = disc.state_matrix[-n:, :]
    assert np.allclose(bottom[:, :-n], 0.0)
    assert np.allclose(bottom[:, -n:], a0)
    vals = np.linalg.eigvals(disc.state_matrix)
    for lam in (-1.0, -3.0):
        assert np.min(np.abs(vals - lam)) < 1e-10


def test_assemble_scalar_one_delay_n1():
    # one delay equal to the horizon: the bottom row reads [a1, a0]
    sys1 = TimeDelaySystem((0.0, 1.5), (np.array([[2.0]]), np.array([[-3.0]])))
    disc = assemble(sys1, 1)
    expect = np.array([[-1.0 / 1.5, 1.0 / 1.5], [-3.0, 2.0]])
    assert np.allclose(disc.state_matrix, expect)


def test_assemble_input_matrix_shape():
    # B_N = [0; I] is structural: the Hamiltonian's coupling blocks are
    # +-eps w(sigma) B_N B_N^T, bit for bit
    sys1 = TimeDelaySystem(
        (0.0, 1.0), (np.zeros((2, 2)), 0.1 * np.eye(2))
    )
    disc = assemble(sys1, 2)
    pert = PerturbationSpec((1.0, 2.0), 0.3)
    sigma = 0.7
    b = np.zeros((6, 2))
    b[-2:] = np.eye(2)
    assert np.array_equal(b, input_matrix(disc))
    coupling = (eval_weight(pert, sys1, sigma) * pert.epsilon) * (b @ b.T)
    ham = hamiltonian(disc, pert, sigma)
    assert ham.shape == (12, 12)
    assert np.array_equal(ham[:6, 6:], coupling)
    assert np.array_equal(ham[6:, :6], -coupling)


def test_assemble_lagrange_rows_at_delays():
    # the last block row of A_N is Gamma_k = sum_i l_k(-tau_i) A_i, with A_0
    # added at node N, in that order
    rng = np.random.default_rng(7)
    mats = tuple(rng.uniform(-1.0, 1.0, (2, 2)) for _ in range(3))
    sys2 = TimeDelaySystem((0.0, 0.4, 1.0), mats)
    disc = assemble(sys2, 6)
    rows = [lagrange_values(disc.mesh, -tau) for tau in (0.4, 1.0)]
    for k in range(7):
        gamma = np.zeros((2, 2))
        if k == 6:
            gamma = gamma + mats[0]
        for lv, a in zip(rows, mats[1:]):
            gamma = gamma + lv[k] * a
        assert np.array_equal(disc.state_matrix[-2:, 2 * k : 2 * k + 2], gamma)
    for N in (0, 4):
        disc = assemble(delay_free(1.0), N)
        assert np.array_equal(disc.state_matrix[-1:, :-1], np.zeros((1, N)))
        assert disc.state_matrix[-1, -1] == 1.0


def test_assemble_delay_free_n0():
    a0 = np.array([[1.0, 2.0], [0.0, -1.0]])
    disc = assemble(TimeDelaySystem((0.0,), (a0,)), 0)
    assert np.array_equal(disc.state_matrix, a0)


@pytest.mark.parametrize("N", [0, 1, 5, 15])
def test_level_parts_read_d_off_state_matrix(N):
    # D is not stored: its top N rows, read off A_N's d[i, k] I blocks, are
    # bit for bit the differentiation matrix of the mesh
    rng = np.random.default_rng([71, N])
    systems = [_criterion10_plant(rng, 3, 0)]
    if N:
        systems += [_criterion10_plant(rng, 3, 2), _stiff_plant(rng, 2, 1)]
    for system in systems:
        disc = assemble(system, N)
        _, d11, d12, *_ = disc.level_parts
        want = differentiation_matrix(disc.mesh)[:N].astype(complex)
        assert np.array_equal(np.column_stack([d11, d12]), want)


@pytest.mark.parametrize("recipe", [_criterion10_plant, _stiff_plant,
                                    _wide_plant])
def test_reassemble_matches_assemble(recipe):
    # the recentred A_N is the first one's last block row rewritten, byte
    # for byte what assembling the shifted system gives, on the same mesh
    for seed in range(8):
        rng = np.random.default_rng([61, seed])
        n, m = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        system = recipe(rng, n, m)
        pert = PerturbationSpec((1.0,) * (m + 1), 0.1)
        N = 0 if m == 0 and seed % 2 else int(rng.integers(1, 20))
        disc = assemble(system, N)
        for alpha in (float(rng.normal()), 0.0):
            shifted = shift_system(system, pert, alpha)[0]
            got = reassemble(disc, shifted)
            want = assemble(shifted, N)
            assert got.state_matrix.tobytes() == want.state_matrix.tobytes()
            assert got.system is shifted
            assert got.mesh is disc.mesh
        assert not disc.state_matrix.flags.writeable


def test_predict_rejects_invalid_n(one_delay):
    # predict applies mesh_order, the rule for N, before any assembly
    pert = PerturbationSpec((1.0, 1.0), 0.1)
    free_pert = PerturbationSpec((1.0,), 0.1)
    for N in (2.5, 6.0, "6", None):
        with pytest.raises(ValueError, match="^invalid N"):
            predict(one_delay, pert, N=N)
    for N in (-1, -3):
        with pytest.raises(ValueError, match="^invalid N"):
            predict(one_delay, pert, N=N)
        with pytest.raises(ValueError, match="^invalid N"):
            predict(delay_free(1.0), free_pert, N=N)
    with pytest.raises(ValueError, match="^invalid N"):
        predict(one_delay, pert, N=0)  # N = 0 only for delay-free systems
    with pytest.raises(ValueError, match="^invalid N"):
        compute_psa(one_delay, pert, N=2.5)


def test_assemble_takes_numpy_integer_n(one_delay):
    disc = assemble(one_delay, np.int64(6))
    assert disc.N == 6 and type(disc.N) is int
    assert np.array_equal(disc.state_matrix, assemble(one_delay, 6).state_matrix)


# --- rational exponential approximation ------------------------------------


def rational_exp(N, tau, lam):
    """p_N(-tau; lam) on the mesh of [-1, 0], read off char_matrix_approx.

    The scalar plant x'(t) = x(t - tau) (A_0 = 0, A_1 = 1) has
    F_N(lam) = lam - p_N(-tau; lam); for tau < 1 a third, zero matrix at
    delay 1 keeps the mesh on [-1, 0].
    """
    delays = (0.0, tau) if tau == 1.0 else (0.0, tau, 1.0)
    mats = (np.zeros((1, 1)), np.eye(1)) + (np.zeros((1, 1)),) * (len(delays) - 2)
    disc = assemble(TimeDelaySystem(delays, mats), N)
    return lam - char_matrix_approx(disc, lam)[0, 0]


def test_rational_exp_at_zero_is_one():
    assert abs(rational_exp(7, 1.0, 0.0) - 1.0) < 1e-13
    assert abs(rational_exp(7, 0.37, 0.0) - 1.0) < 1e-13


def test_rational_exp_n1_closed_form():
    for lam in (0.5, 1.0, -0.3 + 0.8j):
        assert abs(rational_exp(1, 1.0, lam) - 1.0 / (1.0 + lam)) < 1e-13


def test_rational_exp_spectral_accuracy():
    assert abs(rational_exp(15, 1.0, 0.3) - math.exp(-0.3)) < 1e-12


def test_rational_exp_converges_fast():
    lam = 0.4 + 1.1j
    errs = [abs(rational_exp(N, 1.0, lam) - np.exp(-lam)) for N in (5, 10)]
    assert errs[1] < errs[0] / 10.0


def test_rational_exp_singular_resolvent():
    # lam at an eigenvalue of the differentiation block is a pole
    sys1 = TimeDelaySystem((0.0, 1.0), (np.zeros((1, 1)), np.eye(1)))
    d = differentiation_matrix(assemble(sys1, 1).mesh)
    pole = np.linalg.eigvals(d[:1, :1])[0]
    with pytest.raises(numerics.SingularMatrixError):
        rational_exp(1, 1.0, complex(pole))


# --- approximate characteristic matrix -------------------------------------


def test_char_matrix_approx_delay_free_exact():
    a0 = np.array([[0.0, 1.0], [-2.0, -0.5]])
    sys0 = TimeDelaySystem((0.0,), (a0,))
    for N in (0, 1, 5, 15):
        disc = assemble(sys0, N)
        for lam in (0.3, 1.0 + 2.0j):
            assert np.array_equal(char_matrix_approx(disc, lam),
                                  char_matrix(sys0, lam))


def test_char_matrix_approx_at_zero(one_delay):
    disc = assemble(one_delay, 9)
    assert np.allclose(char_matrix_approx(disc, 0.0), char_matrix(one_delay, 0.0))


def test_char_matrix_approx_scalar_n1():
    sys1 = TimeDelaySystem((0.0, 1.0), (np.zeros((1, 1)), np.eye(1)))
    disc = assemble(sys1, 1)
    assert abs(char_matrix_approx(disc, 1.0)[0, 0] - 0.5) < 1e-14


@pytest.mark.parametrize("recipe", [_criterion10_plant, _stiff_plant,
                                    _wide_plant])
def test_char_matrix_approx_matches_uncached_formula(recipe):
    # the lam-independent pieces, built once per discretization and cast to
    # complex once, give the bytes of the formula built on every call
    for seed in range(6):
        rng = np.random.default_rng([67, seed])
        n, m = int(rng.integers(1, 8)), int(rng.integers(0, 6))
        system = recipe(rng, n, m)
        N = int(rng.integers(1, 25))
        disc = assemble(system, N)
        gamma = disc.state_matrix[N * n :].reshape(n, N + 1, n)
        d = differentiation_matrix(disc.mesh)
        for _ in range(10):
            lam = complex(rng.normal(), 5.0 * rng.normal())
            c = numerics.solve_complex(lam * np.eye(N) - d[:N, :N], d[:N, N])
            want = lam * np.eye(n) - gamma[:, N] - c @ gamma[:, :N]
            assert char_matrix_approx(disc, lam).tobytes() == want.tobytes()


def test_char_matrix_approx_converges(random_system):
    system, _ = random_system(8)
    lam = 0.6 + 0.9j
    errs = []
    for N in (5, 10):
        disc = assemble(system, N)
        errs.append(
            np.max(np.abs(char_matrix_approx(disc, lam) - char_matrix(system, lam)))
        )
    assert errs[1] < errs[0] / 10.0


# --- transfer identity ------------------------------------------------------


def test_transfer_equals_char_matrix_inverse(random_system):
    # B^T (lam I - A_N)^{-1} B must equal F_N(lam)^{-1} to rounding
    rng = np.random.default_rng(12)
    for seed in range(6):
        system, _ = random_system(seed, n_max=4, m_max=3)
        disc = assemble(system, int(rng.integers(3, 13)))
        alpha = spectral_abscissa_approx(disc)
        lam = complex(alpha + rng.uniform(0.2, 1.5), rng.uniform(-3.0, 3.0))
        lhs = transfer_function(disc, lam)
        rhs = np.linalg.inv(char_matrix_approx(disc, lam))
        rel = np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))
        assert rel < 1e-8


# --- discretized spectral abscissa ------------------------------------------


def test_abscissa_delay_free_diagonal():
    disc = assemble(TimeDelaySystem((0.0,), (np.diag([-1.0, -3.0]),)), 15)
    assert abs(spectral_abscissa_approx(disc) - (-1.0)) < 1e-12


def test_abscissa_negative_feedback(one_delay):
    # principal root pair of lam = -exp(-lam) is about -0.3181 +- 1.3372j
    disc = assemble(one_delay, 15)
    assert abs(spectral_abscissa_approx(disc) - (-0.3181)) < 1e-3


def test_abscissa_positive_feedback():
    sys1 = TimeDelaySystem((0.0, 1.0), (np.zeros((1, 1)), np.eye(1)))
    disc = assemble(sys1, 15)
    # the omega constant solves lam = exp(-lam)
    assert abs(spectral_abscissa_approx(disc) - 0.5671432904097838) < 1e-10


def test_eigenvalues_computed_once_and_read_only(monkeypatch, one_delay):
    disc = assemble(one_delay, 15)
    solves = []
    eig = numerics.eig_real

    def counted(matrix):
        solves.append(1)
        return eig(matrix)

    monkeypatch.setattr(numerics, "eig_real", counted)
    vals = disc.eigenvalues
    assert disc.eigenvalues is vals
    assert spectral_abscissa_approx(disc) == float(vals.real.max())
    assert len(solves) == 1
    assert np.array_equal(vals, eig(disc.state_matrix))
    with pytest.raises(ValueError, match="read-only"):
        vals[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        disc.state_matrix[0, 0] = 1.0
