"""The seeded generator shared by the test suite; the random-instance
helpers live in :mod:`saddlebounds.verify`."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)
