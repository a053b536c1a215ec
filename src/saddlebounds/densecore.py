"""Dense linear algebra kernels shared by the whole package.

Everything downstream (constant extraction, inclusion-bound verification,
FEM model problems) reduces to a handful of primitives collected here:
eigenvalues of Hermitian matrices, Cholesky factorization, and the
triangular congruence ``L^{-1} X R^{-*}`` that carries a block into the
Euclidean geometry of a factored inner product.  The heavy lifting is
delegated to LAPACK via numpy/scipy; this module adds the input validation
and the accuracy contracts the rest of the package relies on.

No pencil ``(A, M)`` is solved in the package: every spectrum is that of
one Hermitian matrix, the blocks of a saddle system in the Euclidean
geometry, which :func:`saddlebounds.saddle.reduce_system` returns.

Every dense Hermitian eigensolve goes through
:func:`hermitian_eigenvalues`, which calls LAPACK's two-stage divide and
conquer driver (``?syevd_2stage``/``?heevd_2stage``: a BLAS-3 band
reduction, then bulge chasing) through ``ctypes`` when the library scipy's
LAPACK is loaded from exports it, and ``scipy.linalg.eigh`` otherwise.

:data:`one_blas_thread` caps the BLAS of numpy and of scipy at one thread
while the Krylov solvers run, whose level-1 calls on long vectors only wake
a second OpenBLAS thread to spin, while the Stokes Schur complement is
formed, one solve per CPU, and factored, while ``bounds`` runs Babuska's
eigensolve beside Brezzi's constants, and while
:func:`saddlebounds.saddle.preconditioned_spectrum` runs, so its eigenvalues
have the same bits at any thread count.  Elsewhere the dense kernels keep
every thread.

The kernels that carry a block into the Euclidean geometry can work in the
caller's buffer: :func:`require_hermitian`, :func:`cholesky` and
:func:`hermitian_eigenvalues` take ``overwrite=True``, which hands a buffer
of the right field and order to LAPACK or BLAS as it is.
:func:`triangular_congruence` always solves in a copy of its ``X``.

Conventions
-----------
* Dense matrices are numpy arrays in C (row-major) order, except the
  Fortran-ordered buffers that LAPACK and BLAS work in: the factors of
  :func:`cholesky`, the results of :func:`triangular_congruence` and the
  buffers handed to :func:`hermitian_eigenvalues`.  Each one keeps the
  field of its data: real input stays ``float64`` and complex
  input becomes ``complex128``, so real blocks get real LAPACK.  A result
  is complex only where a complex operand makes it so.
* Eigenvalues are returned as real arrays in ascending order.
* ``M`` always denotes a Hermitian positive definite matrix.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import threading

import numpy as np
import scipy.linalg

__all__ = [
    "NotHermitianError",
    "NotPositiveDefiniteError",
    "hermitian_eigenvalues",
    "require_hermitian",
    "cholesky",
    "real_columns",
    "apply_in_field",
    "triangular_congruence",
    "one_blas_thread",
]

#: Relative threshold below which singular values count as zero when
#: determining ranks.  Matches the eigen-residual tolerances used
#: throughout the test suite.
RANK_RTOL = 1e-10

#: Relative max-norm tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-12


class NotHermitianError(ValueError):
    """Input matrix fails the Hermitian symmetry tolerance."""

    def __init__(self, defect: float, tol: float):
        self.defect = defect
        self.tol = tol
        super().__init__(
            f"matrix is not Hermitian: max |H - H*| = {defect:.3e} "
            f"exceeds tolerance {tol:.3e}"
        )


class NotPositiveDefiniteError(ValueError):
    """Cholesky factorization hit a nonpositive pivot."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(
            f"matrix is not positive definite (nonpositive pivot at index {pivot})"
        )


def _field(*arrays) -> type:
    """complex128 if any of ``arrays`` is complex, float64 otherwise."""
    return np.complex128 if any(np.iscomplexobj(x) for x in arrays) else np.float64


#: LAPACKE's layout code for column-major storage.
_COL_MAJOR = 102


@functools.cache
def _symbol(module: str, name: str, restype, *argtypes):
    """The C function ``name``, declared with ``restype`` and ``argtypes``,
    of the shared library that the extension ``module`` is; None where the
    module does not import, its file does not load or the name does not
    resolve.  Looked up once, through the module, so the function comes from
    the library that module is linked against."""
    try:
        fn = getattr(ctypes.CDLL(importlib.import_module(module).__file__), name)
    except (ImportError, AttributeError, OSError):
        return None
    fn.argtypes, fn.restype = argtypes, restype
    return fn


def _two_stage_drivers() -> dict | None:
    """LAPACKE's ``dsyevd_2stage`` and ``zheevd_2stage`` by dtype, or None,
    from scipy's LAPACK extension module (32-bit LAPACK integers), whose
    scipy-openblas build prefixes its exports with ``scipy_``."""
    # (layout, jobz, uplo, n, a, lda, w) -> info
    argtypes = (ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int,
                ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p)
    for prefix in ("scipy_", ""):
        names = (f"{prefix}LAPACKE_dsyevd_2stage", f"{prefix}LAPACKE_zheevd_2stage")
        fns = [_symbol("scipy.linalg._flapack", name, ctypes.c_int, *argtypes) for name in names]
        if all(fns):
            return dict(zip((np.dtype(np.float64), np.dtype(np.complex128)), fns))
    return None


#: ``(extension module, suffix)`` of the OpenBLAS builds that numpy (64-bit
#: integers) and scipy (32-bit) each bundle, with the ``scipy_openblas_``
#: prefix of the scipy-openblas wheels.
_OPENBLAS = (("numpy._core._multiarray_umath", "64_"), ("scipy.linalg._flapack", ""))


def _blas_thread_controls() -> tuple:
    """``(get, set)`` thread-count functions of each OpenBLAS that numpy and
    scipy load; empty where none resolves."""
    controls = [
        (
            _symbol(module, f"scipy_openblas_get_num_threads{suffix}", ctypes.c_int),
            _symbol(module, f"scipy_openblas_set_num_threads{suffix}", None, ctypes.c_int),
        )
        for module, suffix in _OPENBLAS
    ]
    return tuple(pair for pair in controls if all(pair))


def _blas_thread_counts() -> tuple[int, ...]:
    """The current thread count of each OpenBLAS that
    :data:`one_blas_thread` controls (empty where none resolves)."""
    return tuple(get() for get, _ in _blas_thread_controls())


class _OneBlasThread(contextlib.ContextDecorator):
    """Context manager and decorator that holds BLAS at one thread.

    Entries are counted under a lock, across threads and nested calls: the
    first entry saves every thread count and sets it to 1, the last exit
    restores the saved counts, also when the body raises.  So no entry
    leaves the process at one thread while another is still inside, and
    none restores the counts under a thread that still runs.  The counts
    are the process's: BLAS calls on other threads meanwhile run on one
    thread too.  Where the OpenBLAS symbols are missing it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: tuple[int, ...] = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                # All counts are read before any is set, in case numpy and
                # scipy share one library.
                self._saved = _blas_thread_counts()
                for _, set_ in _blas_thread_controls():
                    set_(1)
            self._depth += 1
        return self

    def __exit__(self, *exc) -> bool:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                pairs = zip(_blas_thread_controls(), self._saved)
                for (_, set_), count in reversed(list(pairs)):
                    set_(count)
        return False


#: The one BLAS-thread cap of the package (see :class:`_OneBlasThread`);
#: :func:`saddlebounds.krylov.minres_solve`,
#: :func:`saddlebounds.krylov.estimate_intervals`,
#: :func:`saddlebounds.saddle.preconditioned_spectrum` and the Stokes Schur
#: complement of :mod:`saddlebounds.fem.problems` and its factor run under it.
one_blas_thread = _OneBlasThread()


def hermitian_eigenvalues(h, overwrite: bool = False) -> np.ndarray:
    """Eigenvalues, real and ascending, of the Hermitian matrix whose lower
    triangle is that of ``h``; the strict upper triangle is not read.

    ``h`` is diagonalized in its own field: float64 for real input,
    complex128 for complex input.  With ``overwrite=True`` a Fortran-ordered
    ``h`` of that dtype is handed to LAPACK as is and destroyed; any other
    input is first copied into a Fortran-ordered buffer.  Raises
    :class:`numpy.linalg.LinAlgError` when the lower triangle holds a NaN,
    when an eigenvalue comes out non-finite, or when the driver fails.
    """
    h = np.asarray(h)
    dtype = _field(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got shape {h.shape}")
    n = h.shape[0]
    if n == 0:
        return np.empty(0)
    if not (overwrite and h.dtype == dtype and h.flags.f_contiguous):
        h = np.array(h, dtype=dtype, order="F")
    drivers = _two_stage_drivers()
    info = 0
    if drivers is None:
        # scipy raises LinAlgError itself when the driver fails.
        w = scipy.linalg.eigh(
            h, eigvals_only=True, driver="evd", overwrite_a=True, check_finite=False
        )
    else:
        w = np.empty(n)
        info = drivers[h.dtype](
            _COL_MAJOR, b"N", b"L", n, h.ctypes.data, n, w.ctypes.data
        )
    # LAPACKE reports a NaN in the matrix (argument 5) as info = -5; plain
    # LAPACK lets NaN and infinity through as non-finite eigenvalues.
    if info == -5 or (info == 0 and not np.isfinite(w).all()):
        raise np.linalg.LinAlgError("Hermitian eigensolve: the input is not finite")
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Hermitian eigensolve failed (LAPACK info = {info})"
        )
    return w


#: Order of the square blocks in which :func:`require_hermitian` walks a
#: matrix: one block pair, and its temporaries, is about 1 MB (complex).
_SYMMETRY_BLOCK = 256


def require_hermitian(h, tol: float = HERMITIAN_RTOL, overwrite: bool = False) -> np.ndarray:
    """Validate Hermitian symmetry and return the symmetrized matrix.

    The returned matrix is ``(h + h*)/2``, which removes round-off level
    asymmetry without hiding genuine violations: those raise
    :class:`NotHermitianError` with the measured defect ``max |h - h*|``
    against ``tol`` times ``max |h|``.  The matrix is walked one pair of
    mirrored blocks at a time, so no full-size temporary is made.  With
    ``overwrite=True`` a float64 or complex128 ``h`` (of either order) is
    symmetrized in its own buffer and returned; any other input is first
    copied, and a matrix that fails the test is left half symmetrized.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got {h.shape}")
    if not (overwrite and h.dtype == _field(h)):
        h = np.array(h, dtype=_field(h))
    starts = range(0, h.shape[0], _SYMMETRY_BLOCK)
    scales, defects = [0.0], [0.0]
    for i in starts:
        rows = slice(i, i + _SYMMETRY_BLOCK)
        for j in starts[i // _SYMMETRY_BLOCK:]:
            cols = slice(j, j + _SYMMETRY_BLOCK)
            upper, lower = h[rows, cols], h[cols, rows]
            mirror = lower.conj().T
            scales += [np.max(np.abs(upper)), np.max(np.abs(lower))]
            defects.append(np.max(np.abs(upper - mirror)))
            sym = upper + mirror
            sym *= 0.5
            upper[...] = sym
            if i != j:
                lower[...] = sym.conj().T
    # np.max, unlike max(), lets a NaN through, as a whole-matrix maximum does.
    scale, defect = float(np.max(scales)), float(np.max(defects))
    if defect > tol * max(scale, 1e-300):
        raise NotHermitianError(defect, tol * scale)
    return h


def cholesky(m, overwrite: bool = False) -> np.ndarray:
    """Lower-triangular ``L`` with ``L L* = M`` for Hermitian positive definite M,
    Fortran-ordered.

    Reads the lower triangle only (validate with :func:`require_hermitian`)
    and zeroes the upper one; raises ``ValueError`` on non-square or
    non-finite input and :class:`NotPositiveDefiniteError` with the
    zero-based index of the failing pivot.  With ``overwrite=True`` a
    Fortran-ordered ``m`` in its own field is factored in its own buffer
    (``?potrf`` with ``overwrite_a``) and returned; any other input is first
    copied into a Fortran-ordered buffer.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"Cholesky factorization needs a square matrix, got {m.shape}")
    if not (overwrite and m.dtype == _field(m) and m.flags.f_contiguous):
        m = np.array(m, dtype=_field(m), order="F")
    m = np.asarray_chkfinite(m)
    (potrf,) = scipy.linalg.get_lapack_funcs(("potrf",), (m,))
    factor, info = potrf(m, lower=True, clean=True, overwrite_a=True)
    if info > 0:
        # LAPACK reports the 1-based order of the failing leading minor.
        raise NotPositiveDefiniteError(info - 1)
    if info < 0:
        raise ValueError(f"potrf: illegal value in argument {-info}")
    return factor


def real_columns(op, x) -> np.ndarray:
    """``op(x)`` for a real linear map ``op`` on the columns of a matrix ``x``.

    A complex ``x`` is viewed as a real array with twice the columns (real
    and imaginary parts interleaved) and the result viewed back, so a real
    operand is never promoted to complex.  Real ``x`` is passed through.
    """
    if not np.iscomplexobj(x):
        return op(x)
    y = op(np.ascontiguousarray(x, dtype=np.complex128).view(np.float64))
    return np.ascontiguousarray(y).view(np.complex128)


def apply_in_field(matrix, op, x) -> np.ndarray:
    """``op(x)`` for a linear map ``op`` given by ``matrix``, in the field of
    ``matrix``: a complex ``matrix`` is applied to ``x`` directly, and a real
    one meets a complex ``x`` through :func:`real_columns`, so it is never
    promoted to complex."""
    return op(x) if np.iscomplexobj(matrix) else real_columns(op, x)


#: Bytes of one chunk of columns in the dense kernels that work a chunk at
#: a time: :func:`triangular_congruence` with a real factor and a complex
#: operand, and the kernel block of :func:`saddlebounds.saddle.brezzi_constants`.
CHUNK_BYTES = 1 << 22


def _trsm(l, b, **flags) -> None:  # noqa: E741
    """``?trsm`` with ``alpha = 1`` and the lower-triangular, Fortran-ordered
    ``L``, overwriting the Fortran-ordered ``b`` of L's field; ``flags``
    (``side``, ``trans_a``) pick the solve."""
    (trsm,) = scipy.linalg.get_blas_funcs(("trsm",), dtype=b.dtype)
    trsm(1.0, l, b, lower=1, overwrite_b=1, **flags)


def _solve_left(l, x) -> None:  # noqa: E741
    """``X <- L^{-1} X`` for a Fortran-ordered ``X`` in the field of the result."""
    if np.iscomplexobj(l) or not np.iscomplexobj(x):
        _trsm(l, x)
        return
    # A real L meets a complex X a chunk of columns at a time: their real
    # and imaginary parts side by side in one real, Fortran-ordered scratch.
    n, k = x.shape
    width = max(1, CHUNK_BYTES // (16 * n))
    scratch = np.empty((n, 2 * min(width, k)), order="F")
    for start in range(0, k, width):
        part = x[:, start:start + width]
        c = part.shape[1]
        both = scratch[:, :2 * c]
        both[:, :c], both[:, c:] = part.real, part.imag
        _trsm(l, both)
        part.real, part.imag = both[:, :c], both[:, c:]


def _solve_right_adjoint(r, x) -> None:
    """``X <- X R^{-*}`` for a Fortran-ordered ``X`` in the field of the result."""
    if np.iscomplexobj(r) or not np.iscomplexobj(x):
        _trsm(r, x, side=1, trans_a=2)
        return
    # For a real R this is X^T <- R^{-1} X^T, solved in place on the real
    # view of the C-ordered X^T, whose rows hold the real and imaginary
    # parts side by side.
    _trsm(r, x.T.view(np.float64).T, side=1, trans_a=1)


def triangular_congruence(l, x, r=None) -> np.ndarray:  # noqa: E741
    """``L^{-1} X R^{-*}`` for lower-triangular ``L`` and ``R`` (default ``R = L``),
    Fortran-ordered.

    ``X`` is copied into a Fortran-ordered buffer in the field of the
    result, which both solves overwrite with ``?trsm``.  A real factor meets
    a complex ``X`` in real arithmetic: on the real and imaginary parts of a
    chunk of columns at a time (``L``), or on the real view of ``X^T``
    (``R``).
    """
    r = l if r is None else r
    dtype = _field(l, x, r)
    l, r = (np.asfortranarray(f, dtype=_field(f)) for f in (l, r))  # noqa: E741
    x = np.array(x, dtype=dtype, order="F")
    _solve_left(l, x)
    _solve_right_adjoint(r, x)
    return x


def generalized_hermitian_eig(a, m) -> np.ndarray:
    """Eigenvalues, real and ascending, of ``A x = mu M x`` with A Hermitian
    and M Hermitian positive definite.

    The package itself never calls this: each spectrum it reads is that of
    one Hermitian system, carried into the Euclidean geometry of ``M`` by
    :func:`saddlebounds.saddle.reduce_system` where it has an inner product
    (:func:`saddlebounds.saddle.preconditioned_spectrum`).  It stays as an
    independent reference for the tests.  Computed by
    Cholesky reduction ``M = L L*`` followed by the Hermitian eigenvalues
    of ``L^{-1} A L^{-*}``, which is checked Hermitian to 1e-10; each
    eigenvalue satisfies ``sigma_min(A - mu M) <= 1e-10 ||A||`` for ``M = I``.
    """
    a = require_hermitian(a)
    l = cholesky(require_hermitian(m))  # noqa: E741 - L as in M = L L*
    at = require_hermitian(triangular_congruence(l, a), tol=1e-10, overwrite=True)
    return hermitian_eigenvalues(at, overwrite=True)
