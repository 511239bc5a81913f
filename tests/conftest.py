import math

import numpy as np
import pytest

from delaypsa import PerturbationSpec, TimeDelaySystem


@pytest.fixture
def one_delay():
    """Scalar feedback plant dx/dt = -x(t - 1)."""
    return TimeDelaySystem((0.0, 1.0), (np.array([[0.0]]), np.array([[-1.0]])))


@pytest.fixture
def one_delay_pert():
    return PerturbationSpec((1.0, 1.0), 0.1)


def delay_free(a):
    """Scalar plant dx/dt = a x(t); its pseudospectrum is the disk |z - a| <= eps."""
    return TimeDelaySystem((0.0,), (np.array([[float(a)]]),))


@pytest.fixture
def random_system():
    """Factory for small random retarded systems with unit weights."""

    def make(seed, n_max=3, m_max=2, epsilon=0.1, lo=-1.0, hi=1.0):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        mats = tuple(rng.uniform(lo, hi, (n, n)) for _ in range(m + 1))
        delays = (0.0,) + tuple(np.sort(rng.uniform(0.05, 1.0, m)))
        system = TimeDelaySystem(delays, mats)
        pert = PerturbationSpec((1.0,) * (m + 1), epsilon)
        return system, pert

    return make


# random plant recipes: rng, n, m -> TimeDelaySystem


def _criterion10_plant(rng, n, m):
    delays = (0.0,) + tuple(np.sort(rng.uniform(0.1, 1.0, m)))
    mats = tuple(rng.normal(0.0, 1.0, (n, n)) / math.sqrt(n)
                 for _ in range(m + 1))
    return TimeDelaySystem(delays, mats)


def _stiff_plant(rng, n, m):
    mats = tuple(rng.uniform(-2.0, 2.0, (n, n)) for _ in range(m + 1))
    delays = (0.0,) + tuple(np.sort(10.0 ** rng.uniform(-3.0, 1.0, m)))
    return TimeDelaySystem(delays, mats)
