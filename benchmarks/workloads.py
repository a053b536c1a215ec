"""The three benchmark workloads: set-up, one pass, and the outputs it checks.

The inputs are the paper's parameters and do not depend on the seed; the
seed feeds only the ``verify`` suites of ``bounds-bundle``.  Each workload
has a full size and a tiny ``smoke`` size for the benchmark's own test.

Importing this module imports the package, so a worker's ``setup_s``
includes the imports.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import scipy.linalg

from saddlebounds import cli, verify
from saddlebounds.fem import assemble_taylor_hood, build_mesh, parabolic_kkt

NAMES = ("stokes-tables", "parabolic-l6", "bounds-bundle")

#: The calibration kernel (``calibrate.Kernel``) whose work is most like each
#: workload's: sparse solves for the tables, dense eigensolves for the bundle.
KERNEL = {"stokes-tables": "sparse", "parabolic-l6": "sparse", "bounds-bundle": "dense"}


def warm_lapack() -> None:
    """The first LAPACK call of the process, part of every set-up."""
    g = np.random.default_rng(0).standard_normal((8, 8))
    scipy.linalg.eigh(g @ g.T + 8.0 * np.eye(8))


def table_configs(workload: str, size: str) -> list[dict]:
    """``cli.ExperimentConfig`` fields of the rows of one pass, one row per
    config: Table 1 and the Table 2/3 spot rows for Stokes, two frequencies
    per parabolic flavor."""
    if workload == "stokes-tables":
        top = 4 if size == "full" else 2
        return (
            [{"flavor": "stokes", "levels": [level]} for level in range(top + 1)]
            + [{"flavor": "stokes", "levels": [top], "omega": [om]} for om in (0.0, 1e2, 1e8)]
            + [{"flavor": "stokes", "levels": [top], "nu": [nu]} for nu in (1e-8, 1e-2, 1e8)]
        )
    level = 6 if size == "full" else 2
    return [
        {"flavor": flavor, "levels": [level], "omega": [om]}
        for flavor in ("parabolic-kkt", "parabolic-reduced")
        for om in (1.0, 1e2)
    ]


def _row_key(config: cli.ExperimentConfig, row: cli.TableRow) -> str:
    level, nu, omega = config.levels[0], config.nu[0], config.omega[0]
    if row.parameter_name == "h":
        level = round(-math.log2(row.parameter_value))
    elif row.parameter_name == "nu":
        nu = row.parameter_value
    else:
        omega = row.parameter_value
    return f"{config.flavor} level={level} nu={nu:g} omega={omega:g}"


def run_tables(configs: list[dict]) -> dict:
    """Table rows through ``cli.run_table``: endpoints at three decimals, the
    iteration count, and whether the row's MINRES solve converged.

    ``TableRow`` carries no convergence flag, so ``cli.minres_solve`` is
    rebound for the call to record ``report.converged`` of each row's solve.
    """
    outputs = {}
    solve = cli.minres_solve
    for values in configs:
        config = cli.ExperimentConfig(**values)
        converged = []

        def recording_solve(*args, **kwargs):
            report = solve(*args, **kwargs)
            converged.append(bool(report.converged))
            return report

        cli.minres_solve = recording_solve
        try:
            rows = cli.run_table(config)
        finally:
            cli.minres_solve = solve
        if len(converged) != len(rows):
            converged = [False] * len(rows)
        for row, ok in zip(rows, converged):
            outputs[_row_key(config, row)] = {
                "lo": f"{row.computed_lo:.3f}",
                "hi": f"{row.computed_hi:.3f}",
                "iterations": row.iterations,
                "converged": ok,
            }
    return outputs


def suite_seed(seed: int, index: int) -> int:
    """Seed of the index-th ``verify`` suite for a benchmark seed."""
    return 16 * seed + index + 1


class Workload:
    """One workload at one size: ``setup`` once, then passes, each through
    ``run_pass`` or unit by unit through ``units``."""

    def __init__(self, name: str, size: str, seed: int, workdir: Path):
        if name not in NAMES:
            raise KeyError(f"unknown workload {name!r}; choose from {NAMES}")
        self.name, self.size, self.seed = name, size, seed
        self.workdir = workdir
        self.bundle = workdir / "bundle"
        self.bundle_level = 4 if size == "full" else 2

    def setup(self) -> None:
        warm_lapack()
        if self.name == "bounds-bundle":
            export = ["export", "--flavor", "parabolic-kkt"]
            export += ["--level", str(self.bundle_level), "--out", str(self.bundle)]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(export) != 0:
                    raise RuntimeError("bundle export failed")

    def units(self) -> list:
        """The pass as a list of calls, each returning its outputs: one per
        table row, or one per ``verify`` suite and the ``bounds`` command."""
        if self.name != "bounds-bundle":
            return [
                functools.partial(run_tables, [values])
                for values in table_configs(self.name, self.size)
            ]
        suites = [
            functools.partial(self._suite, index, suite)
            for index, suite in enumerate(sorted(verify.SUITES))
        ]
        # ``bounds`` takes nearly all of the pass; with short suites on both
        # sides, the calibration kernel samples the host several times just
        # before and just after it (see calibrate.scaled_pass).
        half = len(suites) // 2
        return suites[:half] + [self._bounds] + suites[half:]

    def run_pass(self) -> dict:
        outputs = {}
        for unit in self.units():
            outputs.update(unit())
        return outputs

    def _bounds(self) -> dict:
        out = self.workdir / "bounds.txt"
        outputs = {}
        if cli.main(["bounds", str(self.bundle), "--out", str(out)]) == 0:
            for line in out.read_text().splitlines():
                key, _, value = line.partition(" = ")
                outputs[f"bounds {key}"] = value
        return outputs

    def _suite(self, index: int, suite: str) -> dict:
        result = verify.SUITES[suite](seed=suite_seed(self.seed, index))
        return {f"verify {suite}": bool(result["passed"])}

    def working_set_bytes(self) -> dict:
        """Computed sizes of the data a pass works on; the bundle is measured
        on disk after set-up."""
        if self.name == "stokes-tables":
            level = 4 if self.size == "full" else 2
            fem = assemble_taylor_hood(build_mesh(level))
            mp, ns = fem.pressure_dim, fem.velocity_component_dim
            return {
                "level": level,
                "dense_schur_block": 8 * mp * mp,
                # dense D_x, D_y, S, its Cholesky factor and R = nu diag(S, S)
                "dense_blocks_per_row": 8 * (2 * mp * ns + 2 * mp * mp + 4 * mp * mp),
            }
        if self.name == "parabolic-l6":
            level = 6 if self.size == "full" else 2
            problem = parabolic_kkt(build_mesh(level), 1.0, 1.0)
            matrix = problem.matrix()
            return {
                "level": level,
                "kkt_matrix_csr": matrix.data.nbytes + matrix.indices.nbytes
                + matrix.indptr.nbytes,
                # MINRES keeps eight complex work vectors of the system's dimension
                "kkt_krylov_vectors": 8 * 16 * problem.dim,
            }
        manifest = json.loads((self.bundle / "manifest.json").read_text())
        dim = manifest["n"] + manifest["m"]
        return {
            "level": self.bundle_level,
            "bundle_on_disk": sum(f.stat().st_size for f in self.bundle.iterdir()),
            "dense_system_and_pc": 2 * 16 * dim * dim,
        }


_NUMBER = re.compile(r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?")


def matches(got, want) -> bool:
    """Table rows match field by field (endpoints as printed to three
    decimals); suite flags exactly; ``bounds`` lines when their words agree
    and every number is within 1e-8 relative."""
    if isinstance(want, (dict, bool)):
        return got == want
    if not isinstance(got, str) or _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return False
    pairs = zip(_NUMBER.findall(got), _NUMBER.findall(want))
    return all(abs(float(g) - float(w)) <= 1e-8 * abs(float(w)) for g, w in pairs)


def check(outputs: dict, reference: dict) -> list[str]:
    """Keys of the outputs that are wrong, missing or not in the reference."""
    wrong = [k for k, want in reference.items() if k not in outputs or not matches(outputs[k], want)]
    return wrong + [k for k in outputs if k not in reference]
