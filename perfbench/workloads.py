"""The benchmark workloads: input generation, one operation, its checks.

Every workload draws its inputs from the benchmark seed alone and hands the
program only those inputs.  The timed path calls nothing but the package's
public `compute_psa`, `contours` and `grid_psa` and reads only result fields
the package's own tests pin, so internal refactors do not break the loop.

A workload exposes:
    kernel            the calibration kernel that mirrors its hot loop
    cycle             the timed loop stops only after a multiple of this many
                      operations
    trace_ops         how many operations the traced run repeats
    prepare()         shared input generation and set-up work, run once
    warm_up_inputs()  inputs of the untimed operations that end set-up
    make_input(i)     the inputs of operation i (untimed)
    operation(inp)    the timed call into the program
    check(inp, out)   list of problems with the answer, empty when correct
    describe(inp)     what identifies a failing input, for the report
"""

from __future__ import annotations

import math

import numpy as np

import delaypsa
from delaypsa import GridRegion, PerturbationSpec, TimeDelaySystem
from delaypsa.model import char_matrix, eval_weight


class SetupError(RuntimeError):
    """The workload's set-up computation returned an answer that fails its check."""


def criterion10_plant(rng, n, m):
    """Matrices normal(0, 1)/sqrt(n), delays sort(uniform(0.1, 1, m))."""
    delays = (0.0,) + tuple(np.sort(rng.uniform(0.1, 1.0, m)))
    mats = tuple(rng.normal(0.0, 1.0, (n, n)) / math.sqrt(n)
                 for _ in range(m + 1))
    return TimeDelaySystem(delays, mats)


def psa_problems(system, pert, res):
    """Independent checks on a PsaResult.

    The certificate: the returned point alpha + j*omega lies on the level
    set, sigma_min(F(lam)) = eps * w(alpha), to 1e-6 (1 + max ||A_i||_2).
    The invariant: alpha_eps is not left of the shift (the spectral
    abscissa the predictor recentred at).
    """
    problems = []
    alpha, omega = float(res.alpha_eps), float(res.omega_eps)
    if not (math.isfinite(alpha) and math.isfinite(omega)):
        return [f"non-finite point {alpha} + {omega}j"]
    fmat = char_matrix(system, complex(alpha, omega))
    smin = np.linalg.svd(fmat, compute_uv=False)[-1]
    gap = abs(smin - pert.epsilon * eval_weight(pert, system, alpha))
    tol = 1e-6 * (1.0 + max(np.linalg.norm(a, 2) for a in system.matrices))
    if not gap <= tol:
        problems.append(f"certificate gap {gap:.3e} > {tol:.3e}")
    shift = float(res.prediction.shift_used)
    if not alpha >= shift:
        problems.append(f"alpha_eps {alpha!r} < shift_used {shift!r}")
    return problems


def coarse_to_fine(size):
    """0..size-1 in bit-reversed order, so any prefix spreads over the range."""
    bits = max(1, (size - 1).bit_length())
    return sorted(range(size), key=lambda k: int(f"{k:0{bits}b}"[::-1], 2))


class EpsSweep:
    """One (10, 7) plant; operation i solves at the next epsilon of a log grid.

    The grid is visited coarse-to-fine and then repeats; the timed loop
    stops only at the end of a cycle, so every run times each epsilon
    equally often and its median does not depend on where it stopped.
    Pseudospectra nest, so
    alpha_eps must be nondecreasing in epsilon: every answer is compared with
    the latest answer at every other grid point, and with the previous
    answer at its own point.
    """

    name = "eps-sweep"
    kernel = "dense-eig"  # calibration kernel
    tol = 1e-6

    def __init__(self, seed, n=10, m=7, N=15, grid=4):
        self.seed = seed
        self.n, self.m, self.N = n, m, N
        self.epsilons = np.geomspace(1e-3, 0.3, grid)
        self.order = coarse_to_fine(grid)
        self.cycle = self.trace_ops = grid  # one full grid cycle

    def prepare(self):
        self.system = criterion10_plant(np.random.default_rng(self.seed),
                                        self.n, self.m)
        self.perts = [PerturbationSpec((1.0,) * (self.m + 1), float(e))
                      for e in self.epsilons]
        self.alphas = {}

    def make_input(self, i):
        return self.order[i % len(self.order)]

    def operation(self, k):
        return delaypsa.compute_psa(self.system, self.perts[k], N=self.N,
                                    tol=self.tol)

    def check(self, k, res):
        problems = psa_problems(self.system, self.perts[k], res)
        alpha = float(res.alpha_eps)
        slack = 1e-8 * (1.0 + abs(alpha))
        for other, prev in sorted(self.alphas.items()):
            if ((other < k and prev > alpha + slack)
                    or (other > k and prev < alpha - slack)
                    or (other == k and abs(prev - alpha) > slack)):
                problems.append(
                    f"not monotone in epsilon: alpha({self.epsilons[k]:.4g}) = "
                    f"{alpha!r}, alpha({self.epsilons[other]:.4g}) = {prev!r}"
                )
        self.alphas[k] = alpha
        return problems

    def warm_up_inputs(self):
        return [self.make_input(0)]

    def describe(self, k):
        return {"seed": self.seed, "epsilon": float(self.epsilons[k])}


class SmallBatch:
    """A fresh random small plant per operation; inputs share nothing.

    Plant i has the (n, m) pair i mod 9 of (1..3) x (1..3), so the timed
    loop, which stops only after whole cycles of the nine pairs, runs the
    same mix of sizes on every seed.  Its values come from
    default_rng([seed, i]): matrices uniform(-scale, scale), delays
    sort(uniform(0.01, delay_max, m)), epsilon 10**uniform(-3, 0), unit
    weights.  No plant is skipped or redrawn.  With scale 2 and delays up
    to 1, |omega_eps| * tau_max stays below about 7, well inside what the
    N = 15 collocation resolves.
    """

    name = "small-batch"
    kernel = "mixed"  # calibration kernel
    cycle = 9  # every (n, m) pair once
    trace_ops = 99
    warm_ups = 18
    tol = 1e-3
    scale = 2.0
    delay_max = 1.0

    def __init__(self, seed, N=15):
        self.seed = seed
        self.N = N

    def prepare(self):
        pass

    def make_input(self, i):
        return self._plant(i, np.random.default_rng([self.seed, i]))

    def warm_up_inputs(self):
        """The same plants for every seed, so every set-up does the same
        work; they come from a stream no timed operation draws from."""
        return [self._plant(k, np.random.default_rng([0, k, 1]))
                for k in range(self.warm_ups)]

    def _plant(self, i, rng):
        n, m = divmod(i % 9, 3)
        n, m = n + 1, m + 1
        mats = tuple(rng.uniform(-self.scale, self.scale, (n, n))
                     for _ in range(m + 1))
        delays = (0.0,) + tuple(np.sort(rng.uniform(0.01, self.delay_max, m)))
        eps = float(10.0 ** rng.uniform(-3.0, 0.0))
        return (i, TimeDelaySystem(delays, mats),
                PerturbationSpec((1.0,) * (m + 1), eps))

    def operation(self, inp):
        _, system, pert = inp
        return delaypsa.compute_psa(system, pert, N=self.N, tol=self.tol)

    def check(self, inp, res):
        _, system, pert = inp
        return psa_problems(system, pert, res)

    def describe(self, inp):
        return {"rng": [self.seed, inp[0]]}


class SmallBatchWide(SmallBatch):
    """small-batch on the wrong-basin reproducer's recipe: matrices
    uniform(-10, 10), delays up to 3.

    At N = 15 about 1% of these plants get a wrong answer (alpha_eps left
    of the spectral abscissa, or an exception), mostly where
    |omega_eps| * tau_max exceeds about 14, so this workload reports
    correct: false until the package handles them.  It is not one of the
    benchmark's timed workloads; run it to see the failures.
    """

    name = "small-batch-wide"
    scale = 10.0
    delay_max = 3.0


class OracleGrid:
    """contours + grid_psa on a fixed region around one plant's rightmost point.

    Set-up solves the plant once with compute_psa (checked) and fixes a
    region around alpha_eps + j*omega_eps; its edges are deliberately not
    aligned with alpha_eps.  Each operation must reproduce the set-up
    abscissa to 2e-3 plus the oracle's reported resolution.
    """

    name = "oracle-grid"
    kernel = "batched-svd"  # calibration kernel
    cycle = 1
    trace_ops = 3
    epsilon = 0.05
    half_width = 0.1

    def __init__(self, seed, n=10, m=7, points=201):
        self.seed = seed
        self.n, self.m, self.points = n, m, points

    def prepare(self):
        self.system = criterion10_plant(np.random.default_rng(self.seed),
                                        self.n, self.m)
        self.pert = PerturbationSpec((1.0,) * (self.m + 1), self.epsilon)
        res = delaypsa.compute_psa(self.system, self.pert, N=15, tol=1e-3)
        problems = psa_problems(self.system, self.pert, res)
        if problems:
            raise SetupError("; ".join(problems))
        self.alpha = float(res.alpha_eps)
        a, w, h = self.alpha, float(res.omega_eps), self.half_width
        self.region = GridRegion(a - 1.5 * h, a + 0.537 * h, w - h, w + h,
                                 self.points, self.points)

    def make_input(self, i):
        return self.region

    def operation(self, region):
        return (delaypsa.contours(self.system, self.pert, region),
                delaypsa.grid_psa(self.system, self.pert, region))

    def check(self, _, out):
        contour_set, grid = out
        problems = []
        if not contour_set.polylines:
            problems.append("contours found no boundary in the region")
        tol = 2e-3 + float(grid.resolution)
        if not abs(float(grid.value) - self.alpha) <= tol:
            problems.append(f"grid_psa {float(grid.value)!r} differs from "
                            f"alpha_eps {self.alpha!r} by more than {tol:.3e}")
        return problems

    def warm_up_inputs(self):
        """The same region on a 41 x 41 grid: the same code, a 25th of
        the points."""
        r = self.region
        return [GridRegion(r.re_min, r.re_max, r.im_min, r.im_max, 41, 41)]

    def describe(self, _):
        return {"seed": self.seed, "epsilon": self.epsilon}


WORKLOADS = {cls.name: cls
             for cls in (EpsSweep, SmallBatch, OracleGrid, SmallBatchWide)}
