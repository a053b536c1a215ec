"""Host-speed calibration: a fixed kernel timed between the units of a pass.

The benchmark runs on shared virtual machines whose CPU speed drifts by up
to a factor of 1.6 over seconds to minutes, while other tenants load the
host.  Identical work then takes longer, and the drift moves pass times of
the same code by more than any useful bound.  The kernels below do the
same kinds of work as the workloads (sparse matrix products, a sparse LU
solve and interpreted Python for the tables; dense Hermitian eigensolves
for the bundle) on fixed inputs built here, with no call into
``saddlebounds``, so a change to the program cannot change them.  A
workload's kernel is timed before each unit of a pass and after the last
one; the pass's wall time is scaled by ``REFERENCE_S`` over the kernel time
averaged over the pass (see :func:`scaled_pass`): the time the pass would
take on the host at the reference speed.  The kernels are single-threaded and measure
the speed of one core, so the workers run one BLAS thread.

The raw wall times are kept next to the scaled ones in every result.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Kernel time at the reference speed: about the time of either kernel on a
#: 2-core x86_64 VM (numpy 2.4, scipy 1.17) in its fast phases.  A pass
#: measured at that speed is reported at its wall time.
REFERENCE_S = 0.040

#: Kernel calls per set-up measurement; their median scales ``setup_s``.
SETUP_CALLS = 3

#: Kernel calls closer together than this, in seconds, sample the same host
#: state; phases of the host's speed last from under a second to minutes.
WINDOW_S = 0.5


class Kernel:
    """A fixed amount of one kind of work on fixed inputs.

    ``"sparse"``: 20 products and solves with the 5-point Laplacian on a
    120 x 120 grid and its LU factors, plus a Python loop, like a table row.
    ``"dense"``: seven ``eigh`` calls on a complex Hermitian matrix of order
    160, like the dense constants of bounds-bundle.  The two kinds slow down
    differently when the host is loaded, so each workload is scaled by the
    kind of work it does.  Either takes about ``REFERENCE_S`` in the host's
    fast phases.
    """

    def __init__(self, kind: str):
        if kind == "sparse":
            k = 120
            line = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(k, k))
            couple = sp.diags([-1.0, -1.0], [-1, 1], shape=(k, k))
            self.matrix = (sp.kron(sp.eye(k), line) + sp.kron(couple, sp.eye(k))).tocsc()
            self.lu = spla.splu(self.matrix)
            self.rhs = np.linspace(-1.0, 1.0, k * k)
            self._work = self._sparse
        elif kind == "dense":
            n = 160
            rng = np.random.default_rng(0)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            self.matrix = g @ g.conj().T + n * np.eye(n)
            self._work = self._dense
        else:
            raise ValueError(f"unknown kernel kind {kind!r}")

    def _sparse(self) -> None:
        for _ in range(20):
            self.matrix @ self.rhs
            self.lu.solve(self.rhs)
        total = 0
        for i in range(100000):
            total += i

    def _dense(self) -> None:
        for _ in range(7):
            scipy.linalg.eigh(self.matrix)

    def time_s(self) -> float:
        """Wall time of one kernel call."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start


def scale(kernel_s: list[float]) -> float:
    """Factor that takes a wall time measured right next to these kernel
    calls to the reference speed; the median ignores a single outlier."""
    return REFERENCE_S / statistics.median(kernel_s)


def scaled_pass(unit_s: list[float], kernel_s: list[float]) -> float:
    """Wall time of a pass at the reference speed.

    ``unit_s[i]`` is the wall time of unit i, run between kernel calls
    ``kernel_s[i]`` and ``kernel_s[i + 1]``.  The kernel level at each call
    is the median of the calls within ``WINDOW_S`` of it, so the calls
    between short units, such as the coarse table rows or the ``verify``
    suites, count as several samples and one slow call among them does not
    decide.  The host's kernel time during the pass is the mean level at
    the two ends of each unit, weighted by the unit's wall time, so short
    units count little."""
    if len(kernel_s) != len(unit_s) + 1:
        raise ValueError("need one kernel time before each unit and one after the last")
    at, now = [], 0.0
    for k, unit in zip(kernel_s, unit_s + [0.0]):
        at.append(now + k / 2.0)
        now += k + unit
    level = [
        statistics.median(k for k, b in zip(kernel_s, at) if abs(b - a) <= WINDOW_S)
        for a in at
    ]
    wall = sum(unit_s)
    during = sum(t * (a + b) / 2.0 for t, a, b in zip(unit_s, level, level[1:]))
    return REFERENCE_S * wall * wall / during
