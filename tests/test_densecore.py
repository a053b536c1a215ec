import _ctypes
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
import scipy
import scipy.linalg

from saddlebounds import densecore
from saddlebounds.densecore import (
    NotHermitianError,
    NotPositiveDefiniteError,
    cholesky,
    generalized_hermitian_eig,
    hermitian_eigenvalues,
    one_blas_thread,
    require_hermitian,
    triangular_congruence,
)
from saddlebounds.krylov import LinearOperator, estimate_intervals, minres_solve
from saddlebounds.saddle import SaddleSystem, block_decompose, reduce_system
from saddlebounds.verify import random_hermitian, random_spd


def hermitian_eig(h):
    """Eigenvalues of ``h`` as the pencil ``(h, I)``."""
    return generalized_hermitian_eig(h, np.eye(len(h)))


class TestHermitianEig:
    def test_zero_matrix(self):
        eigs = hermitian_eig(np.zeros((3, 3)))
        assert np.allclose(eigs, 0.0)

    def test_diagonal(self):
        eigs = hermitian_eig(np.diag([-2.0, 5.0]))
        assert np.allclose(eigs, [-2.0, 5.0])

    def test_off_diagonal_pair(self):
        # characteristic polynomial lambda^2 - 1 by hand
        eigs = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(eigs, [-1.0, 1.0], atol=1e-14)

    def test_eigenvalues_ascending(self, rng):
        h = random_hermitian(rng, 7)
        eigs = hermitian_eig(h)
        assert eigs.shape == (7,)
        assert np.all(np.diff(eigs) >= 0.0)

    def test_eigenvalue_residuals(self, rng):
        # every returned lam is an eigenvalue of H to within rounding:
        # H - lam I is singular up to 1e-10 ||H||
        for n in (2, 5, 9):
            h = random_hermitian(rng, n)
            eigs = hermitian_eig(h)
            norm = np.linalg.norm(h, 2)
            for lam in eigs:
                sigma = np.linalg.svd(h - lam * np.eye(n), compute_uv=False)
                assert sigma[-1] <= 1e-10 * norm

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError) as err:
            hermitian_eig(bad)
        assert err.value.defect == pytest.approx(1.0)


def random_symmetric(rng, n: int, complex_entries: bool) -> np.ndarray:
    g = rng.standard_normal((n, n))
    if complex_entries:
        g = g + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


@pytest.fixture(params=["two-stage", "fallback"])
def driver(request):
    """Each test that uses this runs once per driver."""
    if request.param == "fallback":
        request.getfixturevalue("lapack_fallback")


@pytest.mark.usefixtures("driver")
class TestHermitianEigenvalues:
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_matches_eigvalsh(self, rng, complex_entries):
        for n in [*range(13), 64, 300]:
            h = random_symmetric(rng, n, complex_entries)
            lam = hermitian_eigenvalues(h)
            ref = np.linalg.eigvalsh(h)
            assert lam.dtype == np.float64 and lam.shape == (n,)
            assert np.all(np.diff(lam) >= 0.0)
            norm = np.linalg.norm(h, 2) if n else 0.0
            assert np.max(np.abs(lam - ref), initial=0.0) <= 1e-12 * norm

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_clustered_spectrum(self, rng, complex_entries):
        h = np.eye(40) + 1e-13 * random_symmetric(rng, 40, complex_entries)
        lam = hermitian_eigenvalues(h)
        assert np.all(np.diff(lam) >= 0.0)
        assert np.max(np.abs(lam - np.linalg.eigvalsh(h))) <= 1e-12
        # Weyl: every eigenvalue is within ||H - I|| of 1.
        assert np.max(np.abs(lam - 1.0)) <= np.linalg.norm(h - np.eye(40), 2) + 1e-14

    def test_reads_the_lower_triangle_only(self, rng):
        h = random_symmetric(rng, 9, complex_entries=True)
        garbage = h.copy()
        garbage[np.triu_indices(9, 1)] = np.nan
        assert np.array_equal(hermitian_eigenvalues(garbage), hermitian_eigenvalues(h))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_non_finite_raises(self, complex_entries, bad):
        # LAPACKE checks for NaN; plain LAPACK either returns non-finite
        # eigenvalues, reported the same way, or fails to converge.
        h = np.eye(5, dtype=complex if complex_entries else float)
        h[3, 1] = bad
        match = "not finite" if np.isnan(bad) and densecore._two_stage_drivers() else None
        with pytest.raises(np.linalg.LinAlgError, match=match):
            hermitian_eigenvalues(h)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenvalues(np.ones((2, 3)))

    def test_overwrite_makes_no_copy(self, rng):
        h = np.asfortranarray(random_symmetric(rng, 200, complex_entries=True))
        ref = np.linalg.eigvalsh(h)
        kept = h.copy(order="F")
        hermitian_eigenvalues(kept)
        assert np.array_equal(h, kept)  # overwrite=False leaves the input alone
        tracemalloc.start()
        try:
            lam = hermitian_eigenvalues(h, overwrite=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < h.nbytes // 2
        assert np.max(np.abs(lam - ref)) <= 1e-12 * np.linalg.norm(kept, 2)


class TestEigenvalueDrivers:
    def test_fallback_gives_the_same_eigenvalues(self, rng, monkeypatch):
        mats = [random_symmetric(rng, n, c) for n in (1, 7, 120) for c in (False, True)]
        two_stage = [hermitian_eigenvalues(h) for h in mats]
        monkeypatch.setattr(densecore, "_two_stage_drivers", lambda: None)
        for h, lam in zip(mats, two_stage):
            fallback = hermitian_eigenvalues(h)
            assert np.max(np.abs(fallback - lam)) <= 1e-12 * np.linalg.norm(h, 2)

    def test_scipy_openblas_exports_the_two_stage_drivers(self):
        # Every scipy-openblas build carries LAPACK's two-stage drivers; any
        # other LAPACK may or may not, and then the fallback is used.
        lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        drivers = densecore._two_stage_drivers()
        if lapack["name"] == "scipy-openblas":
            assert set(drivers) == {np.dtype(np.float64), np.dtype(np.complex128)}


class TestUnresolvedLibraries:
    """Where numpy's and scipy's extension modules do not import, or their
    files lack the symbols, nothing resolves: the eigensolve falls back to
    ``scipy.linalg.eigh`` and the cap does nothing."""

    @pytest.fixture(params=["module does not import", "library lacks the symbols"])
    def unresolved(self, request, monkeypatch):
        if request.param == "module does not import":
            stand_in = None  # a None entry in sys.modules fails the import
        else:
            stand_in = types.SimpleNamespace(__file__=_ctypes.__file__)  # links no BLAS
        found = densecore._blas_thread_controls()
        for module, _ in densecore._OPENBLAS:
            monkeypatch.setitem(sys.modules, module, stand_in)
        densecore._symbol.cache_clear()
        yield found  # the controls that resolve in this process
        densecore._symbol.cache_clear()

    def test_eigensolve_falls_back_to_eigh(self, unresolved, monkeypatch, rng):
        assert densecore._two_stage_drivers() is None
        calls, eigh = [], scipy.linalg.eigh

        def recorded(*args, **kwargs):
            calls.append(kwargs["driver"])
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", recorded)
        h = random_hermitian(rng, 6)
        lam = hermitian_eigenvalues(h)
        assert calls == ["evd"]
        assert np.max(np.abs(lam - np.linalg.eigvalsh(h))) <= 1e-12 * np.linalg.norm(h, 2)

    def test_cap_does_nothing(self, two_blas_threads, unresolved):
        assert densecore._blas_thread_controls() == ()
        with one_blas_thread:
            assert tuple(get() for get, _ in unresolved) == two_blas_threads


class TestFields:
    """Real input stays real; complex input stays complex."""

    def test_cholesky_factor_dtypes(self):
        # Any input is factored in float64 or complex128, by its field.
        assert cholesky(np.eye(2, dtype=int)).dtype == np.float64
        assert cholesky(np.eye(2, dtype=np.complex64)).dtype == np.complex128
        assert cholesky(np.eye(2, dtype=complex)).dtype == np.complex128

    def test_require_hermitian_symmetrizes_in_field(self, rng):
        for h in (random_spd(rng, 6, complex_entries=False), random_hermitian(rng, 6)):
            noisy = h + 1e-14 * rng.standard_normal(h.shape)
            sym = require_hermitian(noisy)
            assert sym.dtype == h.dtype
            assert np.array_equal(sym, 0.5 * (noisy + noisy.conj().T))

    def test_require_hermitian_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"Hermitian matrix must be square, got \(2, 3\)"):
            require_hermitian(np.ones((2, 3)))

    def test_real_cholesky(self, rng):
        assert cholesky(random_spd(rng, 5, complex_entries=False)).dtype == np.float64

    def test_real_factor_complex_right_hand_side(self, rng):
        # A complex X against real factors, solved as real columns, matches
        # the solve with the factors promoted to complex.  X is a
        # non-contiguous slice.
        l = cholesky(random_spd(rng, 7, complex_entries=False))
        r = cholesky(random_spd(rng, 4, complex_entries=False))
        big = rng.standard_normal((10, 9)) + 1j * rng.standard_normal((10, 9))
        x = big[:7, 1::2]
        assert not x.flags.c_contiguous
        got = triangular_congruence(l, x, r)
        want = triangular_congruence(l.astype(complex), x, r.astype(complex))
        assert got.dtype == np.complex128
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        square = big[:7, :7].T
        got = triangular_congruence(l, square)
        want = triangular_congruence(l.astype(complex), square)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_hand_factorization(self):
        l = cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert l[0, 0] == pytest.approx(np.sqrt(2.0))

    def test_factor_contract(self, rng):
        m = random_spd(rng, 6)
        l = cholesky(m)
        assert np.max(np.abs(l @ l.conj().T - m)) <= 1e-12 * np.max(np.abs(m))
        assert not np.any(np.triu(l, 1))

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            cholesky(np.ones(shape))

    def test_not_spd_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(np.diag([1.0, -1.0, 2.0]))
        assert err.value.pivot == 1

    def test_not_spd_reports_two_digit_pivot(self):
        d = np.ones(14)
        d[11] = -1.0
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(np.diag(d))
        assert err.value.pivot == 11

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            cholesky(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestGeneralizedEig:
    def test_identity_pair(self):
        eigs = generalized_hermitian_eig(np.eye(3), np.eye(3))
        assert np.allclose(eigs, 1.0)

    def test_diagonal_ratio(self):
        eigs = generalized_hermitian_eig(np.diag([2.0, 6.0]), np.diag([1.0, 2.0]))
        assert np.allclose(eigs, [2.0, 3.0])

    def test_rank_one(self):
        # trace/rank: the rank-1 matrix has eigenvalues {0, trace/2} w.r.t. 2I
        a = np.ones((2, 2))
        eigs = generalized_hermitian_eig(a, 2.0 * np.eye(2))
        assert np.allclose(eigs, [0.0, 1.0], atol=1e-14)

    def test_pencil_residuals(self, rng):
        # A - lam M is singular up to 1e-10 (||A|| + |lam| ||M||) for every lam
        for n in (3, 5, 8):
            a, m = random_hermitian(rng, n), random_spd(rng, n)
            eigs = generalized_hermitian_eig(a, m)
            assert np.all(np.diff(eigs) >= 0.0)
            a_norm, m_norm = np.linalg.norm(a, 2), np.linalg.norm(m, 2)
            for lam in eigs:
                sigma = np.linalg.svd(a - lam * m, compute_uv=False)
                assert sigma[-1] <= 1e-10 * (a_norm + abs(lam) * m_norm)

    def test_matches_scipy_pencil_eigenvalues(self, rng):
        for n in (2, 5, 9):
            a, m = random_hermitian(rng, n), random_spd(rng, n)
            lam = generalized_hermitian_eig(a, m)
            ref = scipy.linalg.eigh(a, m, eigvals_only=True)
            assert np.max(np.abs(lam - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_congruence_invariance(self, rng):
        for n in (2, 4, 8):
            a, m = random_hermitian(rng, n), random_spd(rng, n)
            s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert np.linalg.matrix_rank(s) == n
            eigs1 = generalized_hermitian_eig(a, m)
            eigs2 = generalized_hermitian_eig(s.conj().T @ a @ s, s.conj().T @ m @ s)
            scale = np.max(np.abs(eigs1)) + 1.0
            assert np.max(np.abs(eigs1 - eigs2)) <= 1e-10 * scale

    def test_not_spd_mass(self):
        with pytest.raises(NotPositiveDefiniteError):
            generalized_hermitian_eig(np.eye(2), np.diag([1.0, -1.0]))


class TestNullspace:
    """The orthonormal kernel basis of G, read off :func:`block_decompose`."""

    def test_coordinate_kernel(self):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 2.0]]))
        v = block_decompose(sys).v0
        assert v.shape == (2, 1)
        assert abs(abs(v[0, 0]) - 1.0) < 1e-14 and abs(v[1, 0]) < 1e-14

    def test_contracts_with_weight(self, rng):
        b = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        p = random_spd(rng, 7)
        sys = SaddleSystem(a=np.eye(7), b=b)
        red = reduce_system(sys, p, np.eye(3))
        v = block_decompose(red).v0
        assert v.shape == (7, 4)
        assert np.max(np.abs(red.b @ v)) <= 1e-10 * np.linalg.norm(red.b, 2)
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-10


class TestOneBlasThread:
    def test_numpy_and_scipy_controls_resolve(self):
        # One control per scipy-openblas build: numpy's (64-bit integers)
        # and scipy's.
        wheels = [
            module.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
            for module in (np, scipy)
        ]
        if wheels != ["scipy-openblas"] * 2:
            pytest.skip(f"BLAS builds {wheels}")
        assert len(densecore._blas_thread_controls()) == 2

    def test_caps_and_restores(self, two_blas_threads):
        ones = (1,) * len(two_blas_threads)
        with one_blas_thread:
            assert densecore._blas_thread_counts() == ones
        assert densecore._blas_thread_counts() == two_blas_threads

    def test_nested_entries_restore_at_the_last_exit(self, two_blas_threads):
        ones = (1,) * len(two_blas_threads)
        with one_blas_thread:
            with one_blas_thread:
                assert densecore._blas_thread_counts() == ones
            assert densecore._blas_thread_counts() == ones
        assert densecore._blas_thread_counts() == two_blas_threads

    def test_exception_restores(self, two_blas_threads):
        @one_blas_thread
        def failing():
            raise RuntimeError("inside")

        with pytest.raises(RuntimeError, match="inside"):
            with one_blas_thread:
                failing()
        assert densecore._blas_thread_counts() == two_blas_threads

    def test_concurrent_entries_restore_at_the_last_exit(self, two_blas_threads):
        # The helper enters first and leaves first; the counts stay at one
        # until this thread, which entered second, leaves.
        ones = (1,) * len(two_blas_threads)
        entered, release = threading.Event(), threading.Event()
        seen = []

        def helper():
            with one_blas_thread:
                entered.set()
                release.wait(10)
            seen.append(densecore._blas_thread_counts())

        thread = threading.Thread(target=helper)
        thread.start()
        try:
            assert entered.wait(10)
            with one_blas_thread:
                release.set()
                thread.join(10)
                assert seen == [ones]
            assert densecore._blas_thread_counts() == two_blas_threads
        finally:
            release.set()
            thread.join()

    def test_missing_symbols_do_nothing(self, monkeypatch):
        monkeypatch.setattr(densecore, "_blas_thread_controls", lambda: ())
        with one_blas_thread:
            assert densecore._blas_thread_counts() == ()

    def test_krylov_runs_under_the_cap(self, two_blas_threads, rng):
        ones = (1,) * len(two_blas_threads)
        a = random_hermitian(rng, 12)
        seen = set()

        def apply(x):
            seen.add(densecore._blas_thread_counts())
            return a @ x

        op = LinearOperator(12, apply)
        pc = LinearOperator(12, lambda x: x)
        minres_solve(op, pc, rng.standard_normal(12) + 0j, eps=1e-10)
        estimate_intervals(op, pc)
        assert seen == {ones}
        assert densecore._blas_thread_counts() == two_blas_threads
