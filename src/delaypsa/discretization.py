"""Spectral discretization of a retarded delay system on a Chebyshev mesh.

The delay system is collocated at Chebyshev extremal points of
[-tau_max, 0], giving a matrix A_N whose transfer function
B_N^T (lam I - A_N)^{-1} B_N, with B_N = [0; I] (not stored), reproduces
the inverse characteristic matrix F_N(lam)^{-1} of the system with each
exp(-lam*tau) replaced by a rational interpolant p_N(-tau; lam).  The
rational approximation is spectrally accurate near the origin, so the
rightmost eigenvalues of A_N approximate the rightmost characteristic roots.
`char_matrix_approx` gives F_N(lam) itself, and `mesh_order` owns the rule for N.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .model import TimeDelaySystem


@dataclass(frozen=True)
class Mesh:
    """Interpolation nodes, ascending to 0, with barycentric weights."""

    points: np.ndarray
    bary_weights: np.ndarray

    @property
    def N(self):
        return len(self.points) - 1


def chebyshev_mesh(N, tau_max):
    """Chebyshev extremal mesh with N+1 points on [-tau_max, 0].

    Node k (k = 0..N) sits at (tau_max/2) * (cos((k - N) pi / N) - 1); the
    first node is -tau_max, the last is exactly 0.  Barycentric weights are
    (-1)^k, halved at both endpoints (any common scaling is immaterial).
    The caller guarantees N >= 1 and tau_max > 0.
    """
    i = np.arange(-N, 1, dtype=float)
    points = 0.5 * tau_max * (np.cos(i * np.pi / N) - 1.0)
    points[-1] = 0.0
    points[0] = -tau_max
    bary = np.ones(N + 1)
    bary[1::2] = -1.0
    bary[0] *= 0.5
    bary[-1] *= 0.5
    return Mesh(points, bary)


def differentiation_matrix(mesh):
    """Dense differentiation matrix d[i, k] = l_k'(points[i]).

    Off-diagonal entries come from the barycentric form; diagonal entries
    are the negative row sums, which makes every row sum exactly zero so
    constants differentiate to machine zero.
    """
    x = mesh.points
    w = mesh.bary_weights
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def lagrange_values(mesh, t):
    """Values of all Lagrange cardinal polynomials at t on the mesh interval.

    Exact unit vector when t hits a node; otherwise the barycentric second
    form, which sums to 1 identically.
    """
    x = mesh.points
    d = t - x
    exact = d == 0.0
    if exact.any():
        out = np.zeros(len(x))
        out[np.argmax(exact)] = 1.0
        return out
    vals = mesh.bary_weights / d
    return vals / vals.sum()


@dataclass(frozen=True)
class Discretization:
    """Collocation data for one system: mesh and A_N.

    B_N = [0; I] is not stored, nor is D: A_N's top N block rows are d[i, k] I.
    """

    system: TimeDelaySystem
    mesh: Mesh
    state_matrix: np.ndarray  # (N+1)n x (N+1)n

    def __post_init__(self):
        self.state_matrix.setflags(write=False)  # `eigenvalues` is cached

    @property
    def N(self):
        return self.mesh.N

    @cached_property
    def eigenvalues(self):
        """Eigenvalues of A_N (read-only), computed on first use."""
        vals = numerics.eig_real(self.state_matrix)
        vals.setflags(write=False)
        return vals

    @cached_property
    def level_parts(self):
        """`char_matrix_approx`'s I_N, D11, D12, I_n, Gamma_N, Gamma_0..N-1."""
        N, n = self.N, self.system.n
        d = self.state_matrix[: N * n : n, ::n].astype(complex)  # D[:N]
        gamma = self.state_matrix[N * n :].reshape(n, N + 1, n)
        return (np.eye(N), d[:, :N], d[:, N], np.eye(n), gamma[:, N],
                gamma[:, :N].astype(complex))


def mesh_order(system, N):
    """N as an int; ValueError unless N >= 1, or N = 0 for a delay-free system."""
    if not isinstance(N, numbers.Integral):
        raise ValueError(f"invalid N: must be an integer, got {N!r}")
    if N < 0 or (N == 0 and system.m):
        raise ValueError(f"invalid N: must be >= 1 (or 0 if delay-free), got {N}")
    return int(N)


def assemble(system, N):
    """Build the collocation matrix A_N for a system at mesh order N.

    The top N block rows replicate the differentiation matrix (d[i, k] I);
    the bottom block row [Gamma_0 ... Gamma_N] has Gamma_k = sum_i
    l_k(-tau_i) A_i plus A_0 at k = N, splicing the derivative condition at
    0 into the mesh.  N must pass `mesh_order`, which `predict` applies;
    delay-free systems admit N = 0 (A_N = A_0), and for m >= 1 the mesh
    spans [-tau_max, 0].
    """
    n = system.n
    if N == 0:
        mesh = Mesh(np.zeros(1), np.ones(1))
    else:
        # delay-free systems carry the mesh on a dummy unit interval; the
        # delayed couplings vanish so only spurious differentiation modes
        # are added, and those sit far in the left half plane
        mesh = chebyshev_mesh(N, system.tau_max if system.m else 1.0)
    d = differentiation_matrix(mesh)
    dim = (N + 1) * n
    state = np.zeros((dim, dim))
    state[: N * n, :] = np.kron(d[:N, :], np.eye(n))
    return reassemble(Discretization(system, mesh, state), system)


def reassemble(disc, system):
    """`assemble(system, disc.N)` for a system with disc's delays and n, as
    `shift_system` makes: disc's A_N with its last block row rewritten (the
    one writer of that row), sharing disc's mesh."""
    N, n, state = disc.N, system.n, disc.state_matrix.copy()
    gamma = state[N * n :].reshape(n, N + 1, n)  # gamma[:, k] is Gamma_k
    gamma[:] = 0.0
    gamma[:, N] = system.matrices[0]
    for tau, a in zip(system.delays[1:], system.matrices[1:]):
        gamma += lagrange_values(disc.mesh, -tau)[:, None] * a[:, None, :]
    return Discretization(system, disc.mesh, state)


def char_matrix_approx(disc, lam):
    """F_N(lam), the Schur complement of lam I - A_N onto its last block row.

    With [Gamma_0 ... Gamma_N] that row, F_N = lam I - Gamma_N - sum_k
    c_k Gamma_k, where (lam I - D11) c = D12 (D11 drops the last mesh row
    and column) gives c_k = p_N(points[k]; lam).  Exact (lam I - A_0) for
    delay-free systems.  Raises numerics.SingularMatrixError at a pole.
    """
    eye_N, d11, d12, eye_n, gamma_N, gamma_rest = disc.level_parts
    lam = complex(lam)
    c = numerics.solve_complex(lam * eye_N - d11, d12)
    return lam * eye_n - gamma_N - c @ gamma_rest


def spectral_abscissa_approx(disc):
    """Largest real part over the eigenvalues of the collocation matrix A_N."""
    return float(disc.eigenvalues.real.max())
