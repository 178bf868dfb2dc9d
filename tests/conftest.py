import numpy as np
import pytest

from cmlab.arith import interval_prime_flags


@pytest.fixture(scope="session")
def flags_1e6():
    return interval_prime_flags(0, 1_000_000)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240211)
