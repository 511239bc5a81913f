"""Retarded time-delay systems and the weighted resolvent level function.

A system is x'(t) = sum_{i=0..m} A_i x(t - tau_i) with tau_0 = 0 and
tau_i > 0 for i >= 1.  The perturbation model attaches to each matrix a
weight w_i > 0 (infinity marks a matrix that is never perturbed) and a
global perturbation size epsilon.  The epsilon-pseudospectrum is the set
of complex lam where the level function

    f(lam) = w(Re lam) / sigma_min(F(lam)),   w(s) = sum_i exp(-s*tau_i)/w_i

exceeds 1/epsilon, with F the characteristic matrix.  f is evaluated
through the smallest singular value, never by forming an inverse, and is
+inf exactly at characteristic roots.  `char_matrix` (also on an array of
lam, as in the oracle's sigma_min sweeps) and `eval_weight` are the only
places that write F, w and their derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics


@dataclass(frozen=True, eq=False)
class TimeDelaySystem:
    """Delays (tau_0 = 0, tau_1, ..., tau_m) and matching n x n matrices.

    Immutable: the matrices are read-only copies.  Systems compare and hash
    by identity, so analysis cached for one system object never goes stale.
    """

    delays: tuple
    matrices: tuple

    def __post_init__(self):
        delays = tuple(float(t) for t in self.delays)
        if not delays:
            raise ValueError("a system needs at least the zero-delay term")
        if len(delays) != len(self.matrices):
            raise ValueError(
                f"dimension mismatch: {len(delays)} delays vs "
                f"{len(self.matrices)} matrices"
            )
        mats = []
        for k, a in enumerate(self.matrices):
            a = np.array(a, dtype=float)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(f"dimension mismatch: matrix {k} is not square")
            mats.append(a)
        n = mats[0].shape[0]
        for k, a in enumerate(mats):
            if a.shape != (n, n):
                raise ValueError(
                    f"dimension mismatch: matrix {k} is {a.shape}, expected ({n}, {n})"
                )
            if not np.isfinite(a).all():
                raise ValueError(f"matrix {k} has non-finite entries")
            a.setflags(write=False)
        if any(not math.isfinite(t) for t in delays):
            raise ValueError("delays must be finite")
        if delays[0] != 0.0:
            raise ValueError("zero delay missing: delays[0] must be exactly 0")
        if any(t <= 0.0 for t in delays[1:]):
            raise ValueError("nonpositive delay: delays[1:] must be > 0")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "matrices", tuple(mats))

    @property
    def n(self):
        return self.matrices[0].shape[0]

    @property
    def m(self):
        return len(self.delays) - 1

    @property
    def tau_max(self):
        return max(self.delays)

    @cached_property
    def norms(self):
        """Spectral norms (||A_0||_2, ..., ||A_m||_2), computed once."""
        return tuple(float(np.linalg.norm(a, 2)) for a in self.matrices)


@dataclass(frozen=True)
class PerturbationSpec:
    """Weights w_i > 0 (math.inf = unperturbed) and perturbation size epsilon."""

    weights: tuple
    epsilon: float

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        if not weights:
            raise ValueError("weights must be nonempty")
        if any(math.isnan(w) or w <= 0.0 for w in weights):
            raise ValueError("weights must be positive (or infinite)")
        if all(math.isinf(w) for w in weights):
            raise ValueError("at least one weight must be finite")
        eps = float(self.epsilon)
        if not math.isfinite(eps) or eps <= 0.0:
            raise ValueError("epsilon must be a positive finite number")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "epsilon", eps)


def check_pair(system, pert):
    """Validate that a perturbation spec matches a system (one weight per matrix)."""
    if len(pert.weights) != len(system.delays):
        raise ValueError(
            f"dimension mismatch: {len(pert.weights)} weights for "
            f"{len(system.delays)} matrices"
        )


def char_matrix(system, lam, k=0):
    """k-th lam-derivative of the characteristic matrix, shape (..., n, n).

    k = 0 gives F(lam) = lam*I - sum_i A_i exp(-lam*tau_i), k = 1 gives
    I + sum_i tau_i A_i exp(-lam*tau_i), and k >= 2 gives
    -sum_i (-tau_i)^k A_i exp(-lam*tau_i).  An array of lam gives the stack
    of these matrices, each equal bit for bit to the call at its entry; a
    tuple of orders k, the stack of their results (each exp(-lam*tau_i)
    computed once), each equal bit for bit to its own call.
    """
    lam = np.asarray(lam, dtype=complex)[..., None, None]
    orders = k if isinstance(k, tuple) else (k,)
    eye = np.eye(system.n, dtype=complex)
    # each f has the result's shape, so the terms subtract in place
    fs = [(lam if j == 0 else np.full_like(lam, j == 1)) * eye for j in orders]
    for tau, a in zip(system.delays, system.matrices):
        e = np.exp(-lam * tau)
        for f, j in zip(fs, orders):
            f -= (a if j == 0 else (-tau) ** j * a) * e  # (-tau)**0 * a is a
    return np.array(fs) if orders is k else fs[0]


def eval_weight(pert, system, sigma, k=0):
    """k-th derivative of w(sigma) = sum over finite w_i of exp(-sigma*tau_i)/w_i.

    w is strictly positive and strictly decreasing in sigma whenever some
    delayed matrix has a finite weight; its slope (k = 1) is then < 0.
    """
    total = 0.0
    for tau, w in zip(system.delays, pert.weights, strict=True):
        if math.isfinite(w):
            total += (-tau) ** k * math.exp(-sigma * tau) / w
    return total


def eval_level(system, pert, lam):
    """Level function f(lam); +inf when lam is a characteristic root.

    Computed as w(Re lam) / sigma_min(F(lam)) through the SVD.
    """
    f = char_matrix(system, lam)
    smin = numerics.svd_complex(f).values[-1]
    w = eval_weight(pert, system, complex(lam).real)
    if smin == 0.0:
        return math.inf
    return w / smin


def shift_system(system, pert, alpha):
    """Shift the spectral parameter by alpha: lam = mu + alpha.

    Returns (shifted_system, shifted_pert) with
        A_0 -> A_0 - alpha*I,   A_i -> A_i * exp(-alpha*tau_i),
        w_i -> w_i * exp(alpha*tau_i),
    so the shifted level function satisfies f_hat(mu) = f(mu + alpha)
    exactly and pseudospectra translate horizontally by alpha.
    """
    alpha = float(alpha)
    mats = [system.matrices[0] - alpha * np.eye(system.n)]
    for tau, a in zip(system.delays[1:], system.matrices[1:]):
        mats.append(a * math.exp(-alpha * tau))
    return (TimeDelaySystem(system.delays, tuple(mats)),
            shift_weights(system, pert, alpha))


def shift_weights(system, pert, alpha):
    """The perturbation spec of `shift_system`: w_i -> w_i * exp(alpha*tau_i)."""
    weights = tuple(
        w if math.isinf(w) else w * math.exp(float(alpha) * tau)
        for tau, w in zip(system.delays, pert.weights, strict=True)
    )
    return PerturbationSpec(weights, pert.epsilon)
