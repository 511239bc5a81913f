"""Host-speed calibration: a fixed numpy kernel timed between operations.

On a shared host the same single-threaded code runs up to twice as slow
for seconds to minutes at a time, whenever other tenants load the machine.
Such phases move every run's medians together and hide any change smaller
than the swing.  The benchmark therefore times a fixed kernel, which does
not depend on the package, between operations, and reports every timing in
calibrated seconds:

    wall seconds * nominal_s / median(kernel times nearest that moment)

that is, the time the work would take on a host where the kernel takes
nominal_s.  Each workload names the kernel that does the same kind of work
as its own hot loop, because a loaded host slows a cache-resident dense
eigensolve, a streamed batch of small SVDs and Python-bound call overhead
by different factors.  Kernel inputs are fixed, so a kernel does the same
work on every run.
"""

from __future__ import annotations

import time

import numpy as np

SHARE = 0.08       # calibration time as a share of the operations' time
NEAREST = 15      # samples whose median normalises one timing
WARM_UP = 3       # unrecorded runs before the first sample


def median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def _dense_eig(rng):
    """One real 320x320 eigensolve: the eps-sweep predictor's level-set
    matrix size, 2n(N+1) for (n, N) = (10, 15)."""
    a = rng.normal(size=(320, 320))
    return lambda: np.linalg.eigvals(a)


def _batched_svd(rng):
    """Singular values of 2000 complex 10x10 matrices: one chunk of the
    oracle's grid for n = 10."""
    stack = (rng.normal(size=(2000, 10, 10))
             + 1j * rng.normal(size=(2000, 10, 10)))
    return lambda: np.linalg.svd(stack, compute_uv=False)


def _mixed(rng):
    """A 96x96 real eigensolve, a batch of 200 complex 10x10 SVDs and 300
    separate 3x3 complex SVDs: small plants' mix of dense work and per-call
    overhead."""
    dense = rng.normal(size=(96, 96))
    stack = (rng.normal(size=(200, 10, 10))
             + 1j * rng.normal(size=(200, 10, 10)))
    small = list(rng.normal(size=(300, 3, 3))
                 + 1j * rng.normal(size=(300, 3, 3)))

    def run():
        np.linalg.eigvals(dense)
        np.linalg.svd(stack, compute_uv=False)
        for a in small:
            np.linalg.svd(a, compute_uv=False)
    return run


# name: (builder, nominal_s), nominal_s being about the kernel's time on an
# unloaded core of the 2-vCPU Intel Xeon (Sapphire Rapids, KVM) VM the
# bounds were set on, one BLAS thread
KERNELS = {
    "dense-eig": (_dense_eig, 0.050),
    "batched-svd": (_batched_svd, 0.025),
    "mixed": (_mixed, 0.010),
}


class Calibrator:
    def __init__(self, kernel):
        build, self.nominal_s = KERNELS[kernel]
        self.kernel = build(np.random.default_rng(2003_08297))
        self.samples = []  # (midpoint, seconds) per kernel run
        self._owed = 0.0
        for _ in range(WARM_UP):
            self.kernel()

    def sample(self):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append((0.5 * (t0 + t1), t1 - t0))
        return t1 - t0

    def after(self, busy_s):
        """Run the kernel until it has taken SHARE of all busy time so far."""
        self._owed += SHARE * busy_s
        while self._owed > 0.0:
            self._owed -= self.sample()

    def scale(self, t):
        """nominal_s over the median of the NEAREST samples to time t."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - t))[:NEAREST]
        return self.nominal_s / median([s for _, s in near])

    def calibrate(self, start, seconds):
        """Calibrated length of `seconds` wall seconds starting at `start`."""
        return seconds * self.scale(start + 0.5 * seconds)
