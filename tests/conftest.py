"""Fixtures shared by the test suite: the seeded generator (the
random-instance helpers live in :mod:`saddlebounds.verify`) and the switch
that sends every dense Hermitian eigensolve to the fallback driver."""

import numpy as np
import pytest

from saddlebounds import densecore


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


@pytest.fixture
def lapack_fallback(monkeypatch):
    """Run the test as on a LAPACK without the two-stage drivers:
    :func:`saddlebounds.densecore.hermitian_eigenvalues` then calls
    ``scipy.linalg.eigh``.

    The dense-path tests run once as they are, with the two-stage driver
    wherever scipy's LAPACK exports it, and once more under this fixture,
    so the fallback stays tested.
    """
    monkeypatch.setattr(densecore, "_two_stage_drivers", lambda: None)
