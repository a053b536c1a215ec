"""Fixtures shared by the test suite: the seeded generator (the
random-instance helpers live in :mod:`saddlebounds.verify`), the switch
that sends every dense Hermitian eigensolve to the fallback driver, a
setting of every BLAS at two threads, and a guard that every test leaves no
thread running and the BLAS thread counts as the session found them."""

import threading

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


@pytest.fixture(scope="session")
def blas_threads_at_start():
    """The OpenBLAS thread counts of numpy and scipy when the session starts."""
    return densecore._blas_thread_counts()


@pytest.fixture
def two_blas_threads():
    """Every controlled OpenBLAS at two threads, so that the cap's one
    shows; the counts found are put back after the test."""
    controls = densecore._blas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control resolves")
    found = densecore._blas_thread_counts()
    for _, set_ in controls:
        set_(2)
    yield (2,) * len(controls)
    for (_, set_), count in zip(controls, found):
        set_(count)


@pytest.fixture(autouse=True)
def _no_thread_left_and_blas_restored(blas_threads_at_start):
    """Fail a test that leaves a thread alive, or the BLAS thread counts
    other than the session found them (the Krylov solvers cap them at one
    while they run, and the table rows and the Stokes build start threads)."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running: {left}")
    counts = densecore._blas_thread_counts()
    if counts != blas_threads_at_start:
        pytest.fail(f"BLAS thread counts {counts}, at session start {blas_threads_at_start}")
