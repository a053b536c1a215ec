import json
import os
import re
import threading
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse

from saddlebounds import cli, densecore, krylov, mmio, saddle, verify
from saddlebounds.bounds import minres_iteration_bound, witness_general
from saddlebounds.cli import (
    ConvergenceError,
    ExperimentConfig,
    format_table,
    main,
    run_table,
)
from saddlebounds.fem import build_mesh, parabolic_kkt, stokes_system
from saddlebounds.saddle import SaddleSystem
from dense_pair import reference_inner_product, saddle_system


def save_system(directory, sys):
    """Write ``sys`` with the identity inner product as a bundle."""
    mmio.save_bundle(directory, sys.a, sys.b, sys.c, np.eye(sys.n), np.eye(sys.m))


class TestBoundsCommand:
    def test_witness_bundle_reports_sharp(self, tmp_path, capsys):
        save_system(tmp_path / "w", witness_general(0.5, 1.0, 1.0))
        assert main(["bounds", str(tmp_path / "w")]) == 0
        out = capsys.readouterr().out
        assert "sharpness = sharp" in out
        assert "gamma_opt" in out

    def test_identity_bundle_constants_one(self, tmp_path, capsys):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 1.0]]))
        save_system(tmp_path / "ident", sys)
        assert main(["bounds", str(tmp_path / "ident")]) == 0
        out = capsys.readouterr().out
        for name in ("alpha", "beta", "a_norm", "b_norm"):
            assert f"{name} = 1" in out
        gamma = float(next(l.split("=")[1] for l in out.splitlines() if l.startswith("gamma =")))
        assert gamma == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, rel=1e-10)

    def test_stokes_bundle_unit_coupling(self, tmp_path, capsys):
        problem = stokes_system(build_mesh(1), nu=1.0, omega=1.0)
        p, r = problem.inner_product_blocks()
        mmio.save_bundle(tmp_path / "st", problem.a, problem.b, problem.c, p, r)
        assert main(["bounds", str(tmp_path / "st")]) == 0
        out = capsys.readouterr().out
        beta = float(next(l.split("=")[1] for l in out.splitlines() if l.startswith("beta")))
        bnorm = float(next(l.split("=")[1] for l in out.splitlines() if l.startswith("b_norm")))
        assert beta == pytest.approx(1.0, abs=1e-8)
        assert bnorm == pytest.approx(1.0, abs=1e-8)

    def test_malformed_bundle_nonzero_exit(self, tmp_path, capsys):
        assert main(["bounds", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    # The witness bundle's own files: its C vanishes, so it holds no C file,
    # and a case that only the manifest check refuses names no missing file.
    FILES = {name: f"{name}.mtx" for name in "ABPR"}
    MANIFESTS = {
        "list": [],
        "string": "saddlebounds-bundle",
        "format-other": {"format": "other"},
        "files-string": {"files": "x"},
        "files-list": {"files": ["A.mtx"]},
        "files-without-P": {"files": {k: v for k, v in FILES.items() if k != "P"}},
        "files-extra": {"files": {**FILES, "D": "A.mtx"}},
        "file-name-number": {"files": {**FILES, "A": 3}},
        "file-name-empty": {"files": {**FILES, "A": ""}},
        "file-name-dotdot": {"files": {**FILES, "A": ".."}},
        "file-name-absolute": {"files": {**FILES, "A": "/A.mtx"}},
        "file-name-parent": {"files": {k: f"../w/{v}" for k, v in FILES.items()}},
        "n-null": {"n": None},
        "m-string": {"m": "1"},
    }

    @pytest.mark.parametrize("case", sorted(MANIFESTS))
    def test_malformed_manifest_exit_two(self, case, tmp_path, capsys):
        save_system(tmp_path / "w", witness_general(0.5, 1.0, 1.0))
        path = tmp_path / "w" / "manifest.json"
        manifest = self.MANIFESTS[case]
        if isinstance(manifest, dict):
            manifest = {**json.loads(path.read_text()), **manifest}
        path.write_text(json.dumps(manifest))
        assert main(["bounds", str(tmp_path / "w")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot load bundle: ")
        assert "is not a saddlebounds bundle manifest" in lines[0]

    INNER_PRODUCTS = {
        "P-too-big": (
            np.eye(3), np.eye(1), "inner-product block P is (3, 3), expected (2, 2)"
        ),
        "R-too-big": (
            np.eye(2), np.eye(2), "inner-product block R is (2, 2), expected (1, 1)"
        ),
        "P-indefinite": (
            np.diag([1.0, -1.0]), np.eye(1),
            "matrix is not positive definite (nonpositive pivot at index 1)",
        ),
        "P-not-hermitian": (
            np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(1),
            "matrix is not Hermitian: max |H - H*| = 5.000e-01 exceeds tolerance 1.000e-12",
        ),
    }

    @pytest.mark.parametrize("case", sorted(INNER_PRODUCTS))
    def test_bad_inner_product_exit_two(self, case, tmp_path, capsys):
        # Refused by the reduction, under the bundle's one error line.
        p, r, message = self.INNER_PRODUCTS[case]
        sys = witness_general(0.5, 1.0, 1.0)
        mmio.save_bundle(tmp_path / "w", sys.a, sys.b, sys.c, p, r)
        assert main(["bounds", str(tmp_path / "w")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot load bundle: {message}\n"

    def test_brezzi_failure_exit_two(self, tmp_path, capsys):
        # gamma = 1e-11 passes the Babuska test (1e-12 relative), so the
        # rank test of the coupling block refuses the system.
        mmio.save_bundle(
            tmp_path / "w", np.diag([1.0, 0.0, 1.0]),
            np.array([[1.0, 0.0, 0.0], [0.0, 1e-11, 0.0]]), np.zeros((2, 2)),
            np.eye(3), np.eye(2),
        )
        out = tmp_path / "bounds.txt"
        assert main(["bounds", str(tmp_path / "w"), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: coupling block is rank deficient: rank 1 < m = 2 "
            "(sigma_min/sigma_max = 1.000e-11)\n"
        )
        assert not out.exists()

    EMPTY = {
        # n = m = 0
        "empty": (np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)),
                  "(1,1) block is empty: shape (0, 0)"),
        # no coupling rows: m = 0
        "no-coupling-rows": (np.eye(3), np.zeros((0, 3)), np.eye(3),
                             "coupling block is empty: shape (0, 3)"),
    }

    @pytest.mark.parametrize("case", sorted(EMPTY))
    def test_empty_block_exit_two(self, case, tmp_path, capsys):
        # Refused by the system, naming the block, under the bundle's one
        # error line.
        a, b, p, message = self.EMPTY[case]
        mmio.save_bundle(tmp_path / "e", a, b, None, p, np.zeros((0, 0)))
        assert main(["bounds", str(tmp_path / "e")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot load bundle: {message}\n"

    def test_bundle_above_dense_limit_refused_before_densifying(self, tmp_path, capsys):
        # Order 6,001 in identity-like coordinate blocks (n = 4,001, m =
        # 2,000): refused with code 2 below the memory of one dense block.
        n, m = 4001, 2000
        eye = scipy.sparse.eye_array
        mmio.save_bundle(tmp_path / "big", eye(n), eye(m, n), scipy.sparse.coo_array((m, m)),
                         eye(n), eye(m))
        tracemalloc.start()
        try:
            code = main(["bounds", str(tmp_path / "big")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot load bundle: dense conversion refused at dimension 6001 (> 6000)\n"
        )
        assert peak < 8 * n**2

    # Sparse blocks of the wrong shape, each of which would take at least
    # one dense block of order N = 4,000 (128 MB) to densify.
    N = 4000
    WRONG_SHAPES = {
        # a one-entry C of order N beside a 2 + 1 system
        "C": (
            scipy.sparse.eye_array(2), scipy.sparse.coo_array(np.ones((1, 2))),
            scipy.sparse.coo_array(([1.0], ([0], [0])), shape=(N, N)),
            "(2,2) block is (4000, 4000), expected (1, 1)",
        ),
        # a 2,000 x 12,000 coupling block beside a 2 x 2 A
        "wide-B": (
            scipy.sparse.eye_array(2), scipy.sparse.eye_array(N // 2, 3 * N),
            scipy.sparse.coo_array((N // 2, N // 2)),
            "coupling block is (2000, 12000), expected (2000, 2)",
        ),
        # an N x 2N A
        "non-square-A": (
            scipy.sparse.eye_array(N, 2 * N), scipy.sparse.eye_array(1, N),
            scipy.sparse.coo_array((1, 1)),
            "(1,1) block is (4000, 8000), expected (4000, 4000)",
        ),
    }

    @pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
    def test_wrong_shape_refused_before_densifying(self, case, tmp_path, capsys):
        # Refused with code 2, naming the block, below the memory of one
        # dense block of order N.
        a, b, c, message = self.WRONG_SHAPES[case]
        mmio.save_bundle(tmp_path / "w", a, b, c, np.eye(2), np.eye(1))
        tracemalloc.start()
        try:
            code = main(["bounds", str(tmp_path / "w")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot load bundle: {message}\n"
        assert peak < 8 * self.N**2

    def test_indefinite_kernel_omits_inclusion(self, tmp_path, capsys):
        # A is negative definite on ker(B) = span(e1); the eigenvalue -0.278
        # lies outside the cubic set [-3.30, -0.414] u [0.303, 2.41].
        sys = SaddleSystem(a=np.array([[-2.0, 2.0], [2.0, 1.0]]), b=np.array([[0.0, 1.0]]))
        save_system(tmp_path / "indef", sys)
        assert main(["bounds", str(tmp_path / "indef")]) == 0
        lines = capsys.readouterr().out.splitlines()
        omitted = [l for l in lines if l.startswith("inclusion")]
        assert omitted == [
            "inclusion = omitted: the (1,1) block is not positive definite on ker(B)"
        ]
        assert not any(l.startswith("mu3_simple") for l in lines)
        assert "gamma = 0.277754366237" in lines
        assert "gamma_opt = 0.200809756473" in lines
        assert lines[-1] == "sharpness = strict"


class TestOverlappedBounds:
    """``bounds`` runs Babuska's eigensolve on one helper thread while the
    calling thread computes Brezzi's constants, with BLAS at one thread."""

    def test_singular_system_reports_babuska_first(self, tmp_path, capsys):
        # M has zero rows, and A vanishes on ker(B): both analyses refuse,
        # and the message is Babuska's, as in the serial order.
        sys = SaddleSystem(a=np.diag([1.0, 0.0, 0.0]), b=np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="not elliptic"):
            saddle.brezzi_constants(sys)
        with pytest.raises(ValueError, match="system is singular") as serial:
            saddle.babuska_constants(sys)
        save_system(tmp_path / "s", sys)
        assert main(["bounds", str(tmp_path / "s")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {serial.value}\n"

    def test_dense_work_at_one_blas_thread(self, tmp_path, capsys, monkeypatch, two_blas_threads):
        # Babuska's eigensolve runs on the helper, Brezzi's two eigensolves
        # and the coupling QR on the calling thread, every one at one BLAS
        # thread.
        bundle = tmp_path / "b"
        assert main(["export", "--flavor", "parabolic-kkt", "--level", "2", "--out", str(bundle)]) == 0
        calls = []

        def recording(what, fn):
            def call(*args, **kwargs):
                on_main = threading.current_thread() is threading.main_thread()
                calls.append((what, on_main, densecore._blas_thread_counts()))
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(cli, "hermitian_eigenvalues",
                            recording("babuska", cli.hermitian_eigenvalues))
        monkeypatch.setattr(saddle, "hermitian_eigenvalues",
                            recording("brezzi", saddle.hermitian_eigenvalues))
        monkeypatch.setattr(saddle, "_coupling_qr", recording("qr", saddle._coupling_qr))
        assert main(["bounds", str(bundle)]) == 0
        assert sorted((what, on_main) for what, on_main, _ in calls) == [
            ("babuska", False), ("brezzi", True), ("brezzi", True), ("qr", True),
        ]
        one = (1,) * len(two_blas_threads)
        assert [counts for _, _, counts in calls] == [one] * 4
        assert densecore._blas_thread_counts() == two_blas_threads

    def test_same_bytes_at_one_and_two_blas_threads(self, tmp_path, capsys, request):
        # The reduction runs at the count it finds: one thread, then two.
        bundle, outs = tmp_path / "b", [tmp_path / "one.txt", tmp_path / "two.txt"]
        assert main(["export", "--flavor", "stokes", "--level", "2", "--out", str(bundle)]) == 0
        with densecore.one_blas_thread:
            assert main(["bounds", str(bundle), "--out", str(outs[0])]) == 0
        request.getfixturevalue("two_blas_threads")
        assert main(["bounds", str(bundle), "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestTableCommand:
    def test_reduced_parabolic_row(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main([
            "table", "--flavor", "parabolic-reduced", "--levels", "1",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("h,")
        row = lines[1].split(",")
        assert float(row[3]) == pytest.approx(0.577, abs=5e-4)

    def test_deterministic_output(self, tmp_path):
        args = ["table", "--flavor", "parabolic-reduced", "--levels", "0,1"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("flavor, bound", [
        ("parabolic-kkt", 84), ("parabolic-reduced", 30), ("stokes", 102),
    ])
    def test_emitted_bound_consistency(self, flavor, bound):
        # The bound reads the family's whole theory set, the theory columns
        # its positive interval.
        config = ExperimentConfig(flavor=flavor, levels=[0, 1])
        rows = run_table(config)
        theory = cli.THEORY[flavor]
        assert minres_iteration_bound(theory, config.eps) == bound
        for row in rows:
            assert row.iteration_bound == bound
            assert (row.theory_lo, row.theory_hi) == (theory.mu3, theory.mu4)
            assert row.computed_lo >= row.theory_lo - 0.01

    def test_config_file_with_overrides(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "flavor": "parabolic-reduced", "levels": [0], "format": "markdown",
        }))
        out = tmp_path / "t.md"
        assert main(["table", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_text().startswith("| h |")

    def test_format_flag_overrides_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "flavor": "parabolic-reduced", "levels": [0], "format": "json",
        }))
        out = tmp_path / "t.csv"
        assert main([
            "table", "--config", str(config), "--format", "csv", "--out", str(out),
        ]) == 0
        assert out.read_text().startswith("h,computed_lo,")

    def test_rejects_unknown_format_before_any_row(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "flavor": "parabolic-reduced", "levels": [0], "format": "xml",
        }))

        def no_rows(config):
            raise AssertionError("run_table called for a bad configuration")

        monkeypatch.setattr(cli, "run_table", no_rows)
        assert main(["table", "--config", str(config)]) == 2
        assert "bad configuration" in capsys.readouterr().err

    def test_rejects_fmt_spelling(self, tmp_path, capsys):
        # A config file names the format as the flag does, and only so.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "flavor": "parabolic-reduced", "levels": [0], "fmt": "markdown",
        }))
        assert main(["table", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad configuration: ")

    def test_malformed_list_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["table", "--flavor", "stokes", "--levels", "1.5"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --levels: invalid int list value: '1.5'" in captured.err

    @pytest.mark.parametrize("values, message", [
        ({"levels": [1.5]}, "levels: expected an integer, got 1.5"),
        ({"levels": [0], "maxit": 10.5}, "maxit: expected an integer, got 10.5"),
        ({"levels": [0], "out": 5}, "out: expected a path or null, got 5"),
        ({"levels": [True]}, "levels: expected an integer, got True"),
        ({"levels": 2}, "levels: expected a list, got 2"),
        ({"levels": [0], "nu": 1.0}, "nu: expected a list, got 1.0"),
        ({"levels": [0], "omega": None}, "omega: expected a list, got None"),
    ], ids=[
        "level-float", "maxit-float", "out-number", "level-bool",
        "levels-scalar", "nu-scalar", "omega-null",
    ])
    def test_rejects_wrong_types_before_any_mesh(
        self, values, message, tmp_path, capsys, monkeypatch
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"flavor": "parabolic-reduced", **values}))
        built = []
        monkeypatch.setattr(cli, "build_mesh", built.append)
        assert main(["table", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad configuration: {message}\n"
        assert built == []

    @pytest.mark.parametrize("flavor", cli.FLAVORS)
    def test_same_bytes_at_one_and_two_blas_threads(self, flavor, tmp_path, request):
        # MINRES and the estimate run at one thread, and the Stokes set-up
        # factors S at one thread, whatever count they find.
        args = ["table", "--flavor", flavor, "--levels", "3", "--format", "json"]
        outs = [tmp_path / "one.json", tmp_path / "two.json"]
        with densecore.one_blas_thread:
            assert main(args + ["--out", str(outs[0])]) == 0
        request.getfixturevalue("two_blas_threads")
        assert main(args + ["--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("values, flags, message", [
        ({"flavor": "heat"}, [], "unknown flavor 'heat'; choose from "
         "('parabolic-kkt', 'parabolic-reduced', 'stokes')"),
        ({}, ["--levels", ""], "levels, nu and omega must be nonempty"),
        ({}, ["--eps", "1.5"], "eps must be in (0, 1), got 1.5"),
    ], ids=["config-flavor", "levels-empty", "eps-above-one"])
    def test_rejects_bad_values(self, values, flags, message, tmp_path, capsys):
        # argparse's choices never see a flavor that a config file names.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"flavor": "parabolic-reduced", "levels": [0], **values}))
        assert main(["table", "--config", str(config), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad configuration: {message}\n"

    def test_rejects_double_sweep(self, capsys):
        assert main([
            "table", "--flavor", "stokes", "--levels", "0,1", "--nu", "1,2",
        ]) == 2
        assert "configuration" in capsys.readouterr().err

    def test_unconverged_row_raises(self, capsys):
        config = ExperimentConfig(flavor="stokes", levels=[0], maxit=3)
        with pytest.raises(ConvergenceError, match="stokes level=0 nu=1 omega=1"):
            run_table(config)
        assert main(["table", "--flavor", "stokes", "--levels", "0", "--maxit", "3"]) == 1
        assert "unconverged after 3 iterations" in capsys.readouterr().err

    def test_json_format_carries_every_field(self, capsys):
        args = ["table", "--flavor", "parabolic-reduced", "--levels", "0,1"]
        assert main(args + ["--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = run_table(ExperimentConfig(flavor="parabolic-reduced", levels=[0, 1]))
        assert json.loads(captured.out) == [asdict(row) for row in rows]
        assert all(row.estimate_certified for row in rows)

    def test_uncertified_row_is_reported_on_stderr(self, capsys, monkeypatch):
        args = ["table", "--flavor", "stokes", "--levels", "2", "--omega", "100"]
        assert main(args) == 0
        certified = capsys.readouterr()
        assert certified.err == ""
        monkeypatch.setattr(krylov, "ESTIMATE_STEPS", 30)
        assert main(args) == 0
        capped = capsys.readouterr()
        assert capped.err == (
            "warning: stokes level=2 nu=1 omega=100: interval not certified after 30 "
            "Lanczos steps\n"
        )
        header, row = capped.out.splitlines()
        assert header == certified.out.splitlines()[0]
        assert row.split(",")[5] == certified.out.splitlines()[1].split(",")[5]

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="ROADMAP item 17: the fixed cap of 220 Lanczos steps ends this row "
        "uncertified",
    )
    def test_kkt_row_at_small_nu_is_certified(self):
        config = ExperimentConfig(flavor="parabolic-kkt", levels=[4], nu=[1e-8], omega=[1.0])
        (row,) = run_table(config)
        assert row.estimate_certified

    def test_markdown_format(self):
        config = ExperimentConfig(flavor="parabolic-reduced", levels=[0], format="markdown")
        text = format_table(run_table(config), "markdown")
        assert text.splitlines()[0].startswith("| h |")

    def test_theoretical_intervals(self):
        stokes, kkt, reduced = (
            cli.THEORY[flavor] for flavor in ("stokes", "parabolic-kkt", "parabolic-reduced")
        )
        for mirror in (stokes, reduced):
            assert (mirror.mu1, mirror.mu2) == (-mirror.mu4, -mirror.mu3)
        assert stokes.mu3 == pytest.approx(0.3025, abs=5e-4)
        assert stokes.mu4 == pytest.approx(1.618, abs=5e-4)
        assert (reduced.mu3, reduced.mu4) == pytest.approx((1 / np.sqrt(3.0), 1.0))
        assert (kkt.mu1, kkt.mu2, kkt.mu3, kkt.mu4) == pytest.approx(
            (-1.0, (1.0 - np.sqrt(3.0)) / 2.0, 0.39621, (1.0 + np.sqrt(5.0)) / 2.0), abs=5e-6
        )


#: The 11 rows of the Stokes tables: Table 1 and the Table 2/3 spot rows.
STOKES_TABLES = [
    ExperimentConfig(flavor="stokes", levels=[0, 1, 2, 3, 4]),
    ExperimentConfig(flavor="stokes", levels=[4], omega=[0.0, 1e2, 1e8]),
    ExperimentConfig(flavor="stokes", levels=[4], nu=[1e-8, 1e-2, 1e8]),
]


def report_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


class TestOverlappedRows:
    """A row's MINRES solve runs on the calling thread while its interval
    estimate runs on one helper thread, whatever the number of CPUs."""

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(flavor="stokes", levels=[2]),
            ExperimentConfig(flavor="parabolic-kkt", levels=[3]),
            ExperimentConfig(flavor="parabolic-reduced", levels=[3], omega=[100.0]),
        ],
        ids=["stokes-l2", "kkt-l3", "reduced-l3"],
    )
    def test_row_equals_serial_solve_and_estimate(self, config, monkeypatch):
        estimate = cli.estimate_intervals
        threads = []

        def recording(*args, **kwargs):
            threads.append(threading.current_thread())
            return estimate(*args, **kwargs)

        monkeypatch.setattr(cli, "estimate_intervals", recording)
        (row,) = run_table(config)
        assert len(threads) == 1 and threads[0] is not threading.main_thread()
        problem = cli._BUILDERS[config.flavor](
            build_mesh(config.levels[0]), config.nu[0], config.omega[0]
        )
        op, pc = problem.operator(), problem.preconditioner()
        report = krylov.minres_solve(op, pc, problem.rhs, eps=config.eps, maxit=config.maxit)
        serial = krylov.estimate_intervals(op, pc)
        assert (
            row.iterations,
            row.true_residual,
            row.minres_operator_applications,
            row.minres_preconditioner_applications,
        ) == (
            report.iterations,
            report.true_residual,
            report.operator_applications,
            report.preconditioner_applications,
        )
        assert (
            row.computed_lo,
            row.computed_hi,
            row.estimate_steps,
            row.estimate_certified,
            row.estimate_operator_applications,
            row.estimate_preconditioner_applications,
        ) == (
            serial.pos_lo,
            serial.pos_hi,
            serial.steps,
            serial.certified,
            serial.operator_applications,
            serial.preconditioner_applications,
        )

    def test_row_without_affinity_mask(self, monkeypatch):
        # Platforms without os.sched_getaffinity build and run rows alike.
        config = ExperimentConfig(flavor="stokes", levels=[1])
        want = [asdict(row) for row in run_table(config)]
        monkeypatch.delattr(os, "sched_getaffinity")
        assert [asdict(row) for row in run_table(config)] == want

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_unconverged_row_joins_its_helper(self, cpus, monkeypatch, blas_threads_at_start):
        report_cpus(monkeypatch, cpus)
        before = set(threading.enumerate())
        with pytest.raises(ConvergenceError, match="after 1 iterations"):
            run_table(ExperimentConfig(flavor="parabolic-kkt", levels=[3], maxit=1))
        assert set(threading.enumerate()) == before
        assert densecore._blas_thread_counts() == blas_threads_at_start

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_errors_keep_the_serial_order(self, cpus, monkeypatch):
        # A failing solve wins, then an unconverged one, then the estimate.
        report_cpus(monkeypatch, cpus)

        def failing(what):
            def call(*args, **kwargs):
                raise ValueError(what)

            return call

        monkeypatch.setattr(cli, "estimate_intervals", failing("estimate"))
        config = ExperimentConfig(flavor="parabolic-reduced", levels=[1])
        with pytest.raises(ValueError, match="estimate"):
            run_table(config)
        with pytest.raises(ConvergenceError):
            run_table(ExperimentConfig(flavor="parabolic-reduced", levels=[1], maxit=1))
        monkeypatch.setattr(cli, "minres_solve", failing("solve"))
        with pytest.raises(ValueError, match="solve"):
            run_table(config)

    def test_application_counts(self):
        # Per row the solve applies each operator once per iteration, plus
        # the two symmetry probes and the true-residual check, and the
        # preconditioner once more for the start vector; the estimate once
        # per Lanczos step, and the preconditioner once more.
        rows = [row for config in STOKES_TABLES for row in run_table(config)]
        totals = [
            sum(getattr(row, name) for row in rows)
            for name in (
                "iterations",
                "minres_operator_applications",
                "minres_preconditioner_applications",
                "estimate_steps",
                "estimate_operator_applications",
                "estimate_preconditioner_applications",
            )
        ]
        assert totals == [270, 303, 314, 940, 940, 951]
        assert all(0.0 <= row.true_residual < 1e-6 for row in rows)
        # Only the JSON rows carry the counts and the true residual.
        assert format_table(rows, "csv").splitlines()[0] == (
            "h,computed_lo,computed_hi,theory_lo,theory_hi,iterations,iteration_bound"
        )
        assert "applications" not in format_table(rows, "markdown")


class TestInputErrors:
    """Bad input from outside the program exits with code 2 and one
    ``error:`` line, before any file is written.  ``table`` checks its
    configuration before it builds any mesh; ``export`` leaves the level to
    ``build_mesh`` and ``nu`` and ``omega`` to the builder, which checks
    them before it assembles anything on the mesh."""

    CASES = {
        "table-config-missing": ["table", "--config", "{tmp}/missing.json"],
        "table-config-malformed": ["table", "--config", "{tmp}/malformed.json"],
        "table-config-list": ["table", "--config", "{tmp}/list.json"],
        "table-level-7": ["table", "--levels", "7"],
        "table-nu-negative": ["table", "--nu", "-1"],
        "table-omega-nan": ["table", "--omega", "nan"],
        "table-maxit-zero": ["table", "--flavor", "stokes", "--maxit", "0"],
        "table-maxit-negative": ["table", "--maxit", "-5"],
        "export-level-9": ["export", "--flavor", "stokes", "--level", "9", "--out", "{tmp}/out"],
        "export-nu-zero": ["export", "--flavor", "stokes", "--nu", "0", "--out", "{tmp}/out"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code_two_and_one_error_line(self, case, tmp_path, capsys, monkeypatch):
        (tmp_path / "malformed.json").write_text('{"levels": [')
        (tmp_path / "list.json").write_text('["stokes"]')

        built = []

        def recording(level):
            mesh = build_mesh(level)
            built.append(level)
            return mesh

        monkeypatch.setattr(cli, "build_mesh", recording)
        args = [arg.format(tmp=tmp_path) for arg in self.CASES[case]]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "out").exists()
        assert built == ([2] if case == "export-nu-zero" else [])


class TestOutputErrors:
    """An output that cannot be written, and an export above
    ``DENSE_LIMIT``, exit with code 2 and one ``error:`` line; no bundle
    directory is left behind."""

    CASES = {
        "bounds-missing-dir": ["bounds", "{tmp}/w", "--out", "{tmp}/missing/x"],
        "table-missing-dir": ["table", "--levels", "0", "--out", "{tmp}/missing/t.csv"],
        "verify-missing-dir": ["verify", "appendix", "--out", "{tmp}/missing/v.json"],
        "export-onto-file": ["export", "--flavor", "stokes", "--level", "0", "--out", "{tmp}/file"],
        "export-kkt-level-6": ["export", "--flavor", "parabolic-kkt", "--level", "6",
                               "--out", "{tmp}/out"],
        "export-stokes-level-4": ["export", "--flavor", "stokes", "--level", "4",
                                  "--out", "{tmp}/out"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code_two_and_one_error_line(self, case, tmp_path, capsys):
        save_system(tmp_path / "w", witness_general(0.5, 1.0, 1.0))
        (tmp_path / "file").write_text("")
        args = [arg.format(tmp=tmp_path) for arg in self.CASES[case]]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "missing").exists()
        assert not (tmp_path / "out").exists()
        assert (tmp_path / "file").read_text() == ""


class TestVerifyCommand:
    def test_known_suite_passes(self, capsys):
        assert main(["verify", "sharpness"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["suite"] == "sharpness"
        assert payload[0]["passed"] is True

    def test_pairing_suite(self, capsys):
        assert main(["verify", "pairing"]) == 0

    def test_unknown_suite(self, capsys):
        assert main(["verify", "nonsense"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_lemma21_suite(self, capsys):
        assert main(["verify", "lemma21"]) == 0
        (result,) = json.loads(capsys.readouterr().out)
        assert result["suite"] == "lemma21" and result["passed"] is True

    def test_full_rank_draw_refuses_more_rows_than_columns(self):
        # An m x n matrix with m > n never has rank m, so the draw would not end.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="3 x 2"):
            verify.random_full_rank(rng, 3, 2)
        assert rng.bit_generator.state == state
        assert np.linalg.matrix_rank(verify.random_full_rank(rng, 2, 2)) == 2

    def test_all_suites(self, capsys):
        assert main(["verify", "all"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert sorted(r["suite"] for r in results) == [
            "appendix", "lemma21", "pairing", "sharpness"
        ]
        assert all(r["passed"] is True for r in results)

    def test_same_bytes_at_one_and_two_blas_threads(self, tmp_path, request):
        outs = [tmp_path / "one.json", tmp_path / "two.json"]
        with densecore.one_blas_thread:
            assert main(["verify", "all", "--out", str(outs[0])]) == 0
        request.getfixturevalue("two_blas_threads")
        assert main(["verify", "all", "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestNoPencilSolve:
    """The program reads every spectrum off ``reduce_system``: with the
    pencil solver made to raise wherever it is bound, ``verify all`` passes
    and ``bounds`` prints what it prints with the solver in place."""

    @staticmethod
    def refuse_pencil_solver(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generalized_hermitian_eig called")

        for module in (densecore, saddle, verify):
            monkeypatch.setattr(module, "generalized_hermitian_eig", refuse)

    def test_verify_all_passes(self, capsys, monkeypatch):
        self.refuse_pencil_solver(monkeypatch)
        assert main(["verify", "all"]) == 0
        assert all(r["passed"] is True for r in json.loads(capsys.readouterr().out))

    @pytest.mark.parametrize("flavor", cli.FLAVORS)
    def test_bounds_prints_the_same(self, flavor, tmp_path, capsys, monkeypatch):
        bundle = tmp_path / "b"
        assert main(["export", "--flavor", flavor, "--level", "2", "--out", str(bundle)]) == 0
        capsys.readouterr()
        assert main(["bounds", str(bundle)]) == 0
        want = capsys.readouterr().out
        self.refuse_pencil_solver(monkeypatch)
        assert main(["bounds", str(bundle)]) == 0
        assert capsys.readouterr().out == want


class TestExportCommand:
    @pytest.mark.parametrize("flavor", cli.FLAVORS)
    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("omega", [0.0, 1.0])
    def test_export_equals_dense_conversion(self, flavor, level, omega, tmp_path, capsys):
        # The bundle is written from the model's sparse blocks; read back, it
        # holds what the dense conversion gives, bit for bit and dtype for
        # dtype.  nu = 1e-2 puts scales other than one on the blocks.
        out = tmp_path / "b"
        assert main(["export", "--flavor", flavor, "--level", str(level), "--nu", "1e-2",
                     "--omega", str(omega), "--out", str(out)]) == 0
        loaded_sys, loaded_p, loaded_r = mmio.load_bundle(out)
        problem = cli._BUILDERS[flavor](build_mesh(level), 1e-2, omega)
        sys_ = saddle_system(problem)
        # The KKT and Stokes models have no C, and their bundles no C file
        # and no "C" manifest key.
        files = json.loads((out / mmio.MANIFEST_NAME).read_text())["files"]
        assert (loaded_sys.c is None) == (sys_.c is None) == (flavor != "parabolic-reduced")
        assert ("C" in files) == (out / "C.mtx").exists() == (flavor == "parabolic-reduced")
        pairs = [(loaded_sys.a, sys_.a), (loaded_sys.b, sys_.b)]
        if sys_.c is not None:
            pairs.append((loaded_sys.c, sys_.c))
        for got, want in pairs:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # The files hold the entries of the model's own sparse blocks.
        p, r = problem.inner_product_blocks()
        blocks = {"A": problem.a, "B": problem.b, "C": problem.c, "P": p, "R": r}
        for name, block in blocks.items():
            if block is not None:
                assert (scipy.io.mmread(out / f"{name}.mtx") != block).nnz == 0, name
        # P and R load as read, in the dtype of the blocks, and they are
        # the inner product that the builders' docstrings state.
        for got, want in ((loaded_p, p), (loaded_r, r)):
            assert got.dtype == want.dtype and (got != want).nnz == 0
        pc = scipy.linalg.block_diag(*reference_inner_product(flavor, level, 1e-2, omega))
        got = scipy.linalg.block_diag(p.toarray(), r.toarray())
        assert np.max(np.abs(got - pc)) <= 1e-12 * np.max(np.abs(pc))

    def test_export_makes_no_dense_block(self, tmp_path, capsys):
        # One dense float64 array of the system's order (1,443 at level 4)
        # is 16.7 MB; the export stays below it, build included.
        tracemalloc.start()
        try:
            assert main(["export", "--flavor", "parabolic-kkt", "--level", "4",
                         "--out", str(tmp_path / "b")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1443**2

    @pytest.mark.parametrize("flavor", cli.FLAVORS)
    def test_zero_frequency_export_writes_real_fields(self, flavor, tmp_path, capsys):
        out = tmp_path / "b"
        assert main(["export", "--flavor", flavor, "--level", "1", "--omega", "0",
                     "--out", str(out)]) == 0
        headers = [path.read_text().splitlines()[0] for path in sorted(out.glob("*.mtx"))]
        assert len(headers) == (5 if flavor == "parabolic-reduced" else 4)
        assert all(header.split()[3] == "real" for header in headers), headers

    def test_export_bundle(self, tmp_path, capsys):
        out = tmp_path / "exported"
        code = main([
            "export", "--flavor", "parabolic-reduced", "--level", "1",
            "--nu", "1.0", "--omega", "1.0", "--out", str(out),
        ])
        assert code == 0
        assert (out / "manifest.json").is_file()
        assert (out / "mesh.txt").is_file()
        sys, _, _ = mmio.load_bundle(out)
        assert sys.n == sys.m  # reduced system is square-blocked


REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json").read_text()
)
_NUMBER = re.compile(r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?")
#: ``bounds`` lines of the level-2 bundles, by flavor and omega.
RECORDED_BOUNDS = json.loads((Path(__file__).parent / "recorded_bounds.json").read_text())
SMOKE_ROWS = [
    (key, want)
    for workload in ("stokes-tables", "parabolic-l6")
    for key, want in REFERENCE["smoke"][workload].items()
]


def assert_bounds_as_recorded(text: str, want: dict[str, str]) -> None:
    """Every ``bounds`` line of ``text`` keeps the words of its recorded
    value, and each number agrees to 1e-10 relative."""
    got = dict(line.split(" = ", 1) for line in text.splitlines())
    assert got.keys() == want.keys()
    for key, value in got.items():
        assert _NUMBER.sub("#", value) == _NUMBER.sub("#", want[key]), key
        pairs = zip(_NUMBER.findall(value), _NUMBER.findall(want[key]))
        for g, w in pairs:
            assert float(g) == pytest.approx(float(w), rel=1e-10, abs=0.0), key


class TestRecordedRows:
    """Every small table row recorded for the benchmark prints exactly as
    recorded: both endpoints at three decimals and the iteration count."""

    @pytest.mark.parametrize("key,want", SMOKE_ROWS, ids=[key for key, _ in SMOKE_ROWS])
    def test_row_prints_as_recorded(self, key, want):
        flavor, *fields = key.split()
        values = dict(field.split("=") for field in fields)
        config = ExperimentConfig(
            flavor=flavor,
            levels=[int(values["level"])],
            nu=[float(values["nu"])],
            omega=[float(values["omega"])],
        )
        (row,) = run_table(config)
        assert f"{row.computed_lo:.3f}" == want["lo"]
        assert f"{row.computed_hi:.3f}" == want["hi"]
        assert row.iterations == want["iterations"]

    def test_bounds_prints_as_recorded(self, tmp_path):
        # The recorded bundle is the level-2 parabolic KKT export; every line
        # keeps its words, and each number agrees to 1e-10 relative.
        bundle, out = tmp_path / "bundle", tmp_path / "bounds.txt"
        assert main(["export", "--flavor", "parabolic-kkt", "--level", "2",
                     "--out", str(bundle)]) == 0
        assert main(["bounds", str(bundle), "--out", str(out)]) == 0
        want = {
            key.removeprefix("bounds "): value
            for key, value in REFERENCE["smoke"]["bounds-bundle"].items()
            if key.startswith("bounds ")
        }
        assert_bounds_as_recorded(out.read_text(), want)

    @pytest.mark.parametrize("key", sorted(RECORDED_BOUNDS))
    def test_level_two_bounds_as_recorded(self, key, tmp_path):
        # The level-2 bundles of every flavor at omega 0 and 1: a real and a
        # complex coupling block, a complex At beside a real P (Stokes), and
        # a nonzero C (reduced: the Babuska lines only).
        flavor, level, omega = (field.partition("=")[2] or field for field in key.split())
        bundle, out = tmp_path / "bundle", tmp_path / "bounds.txt"
        assert main(["export", "--flavor", flavor, "--level", level, "--omega", omega,
                     "--out", str(bundle)]) == 0
        assert main(["bounds", str(bundle), "--out", str(out)]) == 0
        assert_bounds_as_recorded(out.read_text(), RECORDED_BOUNDS[key])

    def test_bundle_without_c_file_prints_the_same(self, tmp_path):
        # The level-2 KKT export has no C file; the same blocks with an empty
        # C file added print the same lines, byte for byte.
        bundle = tmp_path / "bundle"
        assert main(["export", "--flavor", "parabolic-kkt", "--level", "2", "--omega", "1",
                     "--out", str(bundle)]) == 0
        outs = [tmp_path / "with-c.txt", tmp_path / "without-c.txt"]
        assert main(["bounds", str(bundle), "--out", str(outs[1])]) == 0
        problem = parabolic_kkt(build_mesh(2), 1.0, 1.0)
        empty = scipy.sparse.csr_matrix((problem.m, problem.m))
        mmio.save_bundle(tmp_path / "with-c", problem.a, problem.b, empty,
                         *problem.inner_product_blocks())
        assert (tmp_path / "with-c" / "C.mtx").is_file()
        assert main(["bounds", str(tmp_path / "with-c"), "--out", str(outs[0])]) == 0
        assert outs[1].read_bytes() == outs[0].read_bytes()
        want = RECORDED_BOUNDS["parabolic-kkt level=2 omega=1"]
        assert_bounds_as_recorded(outs[1].read_text(), want)


@pytest.mark.usefixtures("lapack_fallback")
class TestRecordedBoundsFallback:
    """The recorded ``bounds`` lines again, with every eigensolve on the
    fallback driver."""

    test_bounds_prints_as_recorded = TestRecordedRows.test_bounds_prints_as_recorded
