"""Dense linear-algebra kernels with explicit failure modes.

Thin wrappers around LAPACK via numpy.linalg that normalize error handling
for the rest of the package: singular solves, rank-deficient least squares
and non-converged eigensolves surface as typed exceptions instead of
numpy's generic LinAlgError.  Everything is dense and double precision.
`singular_values` runs stacks of over _PIECE matrices in pieces on a thread
pool, one worker per usable CPU; each matrix is one LAPACK call either way, so
results are bit for bit the same for any CPU count (BLAS threads are separate).
`DelayPsaError` is the base of the package's own exception types; it
lives here because this module imports nothing else from the package.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


_PIECE = 256  # matrices per task of a split singular_values call
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_POOL = []  # the thread pool, made on first split; a forked child drops it
os.register_at_fork(after_in_child=_POOL.clear)


class DelayPsaError(Exception):
    """Base class of the package's own exceptions (bad input raises ValueError)."""


class NoConvergenceError(DelayPsaError):
    """Iterative eigenvalue / singular value phase did not converge."""


class SingularMatrixError(DelayPsaError):
    """Linear solve hit an exactly singular matrix."""


class RankDeficientError(DelayPsaError):
    """Least-squares matrix has numerically deficient column rank."""

    def __init__(self, rank, needed):
        super().__init__(f"numerical rank {rank} < {needed} columns")
        self.rank = rank
        self.needed = needed


@dataclass(frozen=True)
class SvdResult:
    values: np.ndarray  # descending, nonnegative
    left: np.ndarray | None = None
    right_h: np.ndarray | None = None


def eig_real(matrix):
    """Eigenvalues of a real square matrix.

    Returns the eigenvalue array, complex (conjugate pairs for real input).
    Raises NoConvergenceError if the QR iteration fails.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eig_real expects a square 2-d array")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def _stack(matrix):  # both SVD kernels' input check
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2:
        raise ValueError("expected a 2-d array or a stack of them")
    return a


def svd_complex(matrix, vectors=False):
    """SVD of a complex (or real) matrix, or of each matrix of a stack."""
    a = _stack(matrix)
    try:
        if vectors:
            u, s, vh = np.linalg.svd(a)
            return SvdResult(s, u, vh)
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return SvdResult(s)


def singular_values(stack):
    """Singular values of a stack of matrices, shape (..., p, q) -> (..., min(p, q)).

    Batched helper for grid evaluation; values are sorted descending along
    the last axis as with svd_complex.
    """
    a = _stack(stack)
    count = int(np.prod(a.shape[:-2]))
    try:
        if count <= _PIECE or _WORKERS < 2:
            return np.linalg.svd(a, compute_uv=False)
        flat = a.reshape(count, *a.shape[-2:])
        out = np.empty((count, min(a.shape[-2:])))
        if not _POOL:
            from concurrent.futures import ThreadPoolExecutor
            _POOL.append(ThreadPoolExecutor(_WORKERS))

        def piece(rows):  # all a worker runs: LAPACK and the copy into out
            out[rows] = np.linalg.svd(flat[rows], compute_uv=False)

        tasks = [_POOL[0].submit(piece, slice(lo, lo + _PIECE))
                 for lo in range(0, count, _PIECE)]  # all end before any raise
        for error in filter(None, [task.exception() for task in tasks]):
            raise error
        return out.reshape(*a.shape[:-2], out.shape[1])
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def solve_complex(a, b):
    """Solve a x = b for square complex a, or for each a of a stack with b
    of shape (..., p, k); SingularMatrixError if any a is singular."""
    a = np.asarray(a, dtype=complex)
    try:
        return np.linalg.solve(a, np.asarray(b, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc


def least_squares_real(jac, res):
    """Step minimizing || jac @ step + res ||_2 for real jac of full column rank.

    Raises RankDeficientError (carrying the numerical rank) when the rank
    reported by the QR/SVD solve falls short of the column count.
    """
    j = np.asarray(jac, dtype=float)
    r = np.asarray(res, dtype=float)
    step, _, rank, _ = np.linalg.lstsq(j, -r, rcond=None)
    if rank < j.shape[1]:
        raise RankDeficientError(rank, j.shape[1])
    return step
