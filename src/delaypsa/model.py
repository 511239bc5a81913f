"""Retarded time-delay systems and the weighted resolvent level function.

A system is x'(t) = sum_{i=0..m} A_i x(t - tau_i) with tau_0 = 0 and
tau_i > 0 for i >= 1.  The perturbation model attaches to each matrix a
weight w_i > 0 (infinity marks a matrix that is never perturbed) and a
global perturbation size epsilon.  The epsilon-pseudospectrum is the set
of complex lam where the level function

    f(lam) = w(Re lam) / sigma_min(F(lam)),   w(s) = sum_i exp(-s*tau_i)/w_i

exceeds 1/epsilon, with F the characteristic matrix.  f is evaluated
through the smallest singular value, never by forming an inverse, and is
+inf exactly at characteristic roots.  Only this module writes F, w and
their derivatives (`char_matrix`, on a lam or a lam array; `eval_weight`),
sigma_min(F) (`smallest_singular`) and F's delay-term bounds (`delay_bound`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics

_CHUNK = 200_000  # matrix entries per batched SVD call, bounds memory


@dataclass(frozen=True, eq=False)
class TimeDelaySystem:
    """Delays (tau_0 = 0, tau_1, ..., tau_m) and matching n x n matrices.

    Immutable: the matrices are read-only copies.  Systems compare and hash
    by identity, so analysis cached for one system object never goes stale.
    What `char_matrix` reads (delay array, identity, delay terms) is cached
    read-only, like `norms`.
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
            _read_only(a)
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
        return tuple(np.linalg.norm(self.matrices, 2, axis=(1, 2)).tolist())

    @cached_property
    def delay_array(self):
        return _read_only(np.array(self.delays))

    @cached_property
    def identity(self):
        return _read_only(np.eye(self.n, dtype=complex))

    def delay_terms(self, orders):
        """(-tau_i)^k A_i at [i, j] for k = orders[j] (A_i itself at k = 0)."""
        terms = self.__dict__.setdefault("_delay_terms", {})  # by orders
        if orders not in terms:
            terms[orders] = _read_only(np.array(
                [[(-tau) ** k * a for k in orders]
                 for tau, a in zip(self.delays, self.matrices)]))
        return terms[orders]


def _read_only(a):
    a.setflags(write=False)
    return a


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
    tuple of orders k, the stack of their results, each equal bit for bit
    to its own call.  All exp(-lam*tau_i) come from one np.exp call; the
    cached terms `delay_terms(orders)` are subtracted in delay order.
    """
    lam = np.asarray(lam, dtype=complex)[..., None, None, None]
    orders = k if isinstance(k, tuple) else (k,)
    j = np.array(orders)[:, None, None]
    # f[..., j, :, :] is order j's matrix, so the terms subtract in place
    f = np.where(j == 0, lam, j == 1) * system.identity
    exps = np.exp(np.multiply.outer(system.delay_array, -lam))
    for e, terms in zip(exps, system.delay_terms(orders)):
        f -= terms * e
    d = f.ndim - 3  # lam's axes come before the orders' in f
    f = f.transpose(d, *range(d), d + 1, d + 2)
    return np.ascontiguousarray(f) if orders is k else f[0]


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
    """Level function f(lam) = w(Re lam) / sigma_min(F(lam)); +inf when lam
    is a characteristic root."""
    w = eval_weight(pert, system, complex(lam).real)
    with np.errstate(divide="ignore"):
        return w / smallest_singular(system, lam)


def smallest_singular(system, lam):
    """sigma_min(F(lam)) at a scalar or array lam; stacks of at most _CHUNK entries."""
    flat = np.asarray(lam, dtype=complex).ravel()
    step = max(1, _CHUNK // (system.n * system.n))
    out = np.empty(flat.size)
    for start in range(0, flat.size, step):  # one stack alive at a time
        out[start : start + step] = numerics.singular_values(
            char_matrix(system, flat[start : start + step]))[:, -1]
    return out.reshape(np.shape(lam))


def delay_bound(system, sigma, k):
    """sum_i tau_i^k ||A_i||_2 exp(-tau_i sigma), k in (0, 1, 2), elementwise
    over sigma: a bound on F^(k)'s delay terms at Re lam >= sigma, not finite
    where a term overflows.  tau^2 is tau * tau (tau ** 2 may differ in the last bit)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return sum((1.0, tau, tau * tau)[k] * na * np.exp(-tau * sigma)
                   for tau, na in zip(system.delays, system.norms))


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
