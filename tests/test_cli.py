import json
import re
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from saddlebounds import cli, krylov, mmio
from saddlebounds.bounds import witness_general
from saddlebounds.cli import (
    ConvergenceError,
    ExperimentConfig,
    format_table,
    main,
    run_table,
    theoretical_interval,
)
from saddlebounds.fem import build_mesh, stokes_system
from saddlebounds.saddle import SaddleSystem


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

    FILES = {name: f"{name}.mtx" for name in "ABCPR"}
    MANIFESTS = {
        "list": [],
        "string": "saddlebounds-bundle",
        "files-string": {"files": "x"},
        "files-list": {"files": ["A.mtx"]},
        "files-without-P": {"files": {k: v for k, v in FILES.items() if k != "P"}},
        "file-name-number": {"files": {**FILES, "A": 3}},
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

    def test_emitted_bound_consistency(self):
        config = ExperimentConfig(flavor="parabolic-reduced", levels=[0, 1])
        rows = run_table(config)
        from saddlebounds.bounds import minres_iteration_bound
        for row in rows:
            assert row.iteration_bound == minres_iteration_bound(
                row.theory_lo, row.theory_hi, config.eps
            )
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

    def test_markdown_format(self):
        config = ExperimentConfig(flavor="parabolic-reduced", levels=[0], fmt="markdown")
        text = format_table(run_table(config), "markdown")
        assert text.splitlines()[0].startswith("| h |")

    def test_theoretical_intervals(self):
        lo, hi = theoretical_interval("stokes")
        assert lo == pytest.approx(0.3025, abs=5e-4)
        assert hi == pytest.approx(1.618, abs=5e-4)
        lo, hi = theoretical_interval("parabolic-kkt")
        assert lo == pytest.approx(0.396, abs=5e-4)
        assert hi == pytest.approx(1.618, abs=5e-4)
        lo, hi = theoretical_interval("parabolic-reduced")
        assert (lo, hi) == pytest.approx((1 / np.sqrt(3.0), 1.0))


class TestInputErrors:
    """Bad input from outside the program exits with code 2 and one
    ``error:`` line, before any mesh is built or any file is written."""

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

        def no_mesh(level):
            raise AssertionError("a mesh was built for bad input")

        monkeypatch.setattr(cli, "build_mesh", no_mesh)
        args = [arg.format(tmp=tmp_path) for arg in self.CASES[case]]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "out").exists()


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
        loaded_sys, loaded_ip = mmio.load_bundle(out)
        problem = cli._BUILDERS[flavor](build_mesh(level), 1e-2, omega)
        sys_, ip = problem.saddle_system(), problem.inner_product()
        pairs = [(loaded_sys.a, sys_.a), (loaded_sys.b, sys_.b), (loaded_sys.c, sys_.c),
                 (loaded_ip.p, ip.p), (loaded_ip.r, ip.r)]
        for got, want in pairs:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # P and R are the diagonal blocks of the preconditioner's matrix,
        # symmetrized as every inner product is.
        pc = problem.precond_solve.matrix().toarray()
        assert np.array_equal(scipy.linalg.block_diag(ip.p, ip.r), (pc + pc.T) / 2)

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

    def test_export_bundle(self, tmp_path, capsys):
        out = tmp_path / "exported"
        code = main([
            "export", "--flavor", "parabolic-reduced", "--level", "1",
            "--nu", "1.0", "--omega", "1.0", "--out", str(out),
        ])
        assert code == 0
        assert (out / "manifest.json").is_file()
        assert (out / "mesh.txt").is_file()
        sys, ip = mmio.load_bundle(out)
        assert sys.n == sys.m  # reduced system is square-blocked


REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json").read_text()
)
_NUMBER = re.compile(r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?")
SMOKE_ROWS = [
    (key, want)
    for workload in ("stokes-tables", "parabolic-l6")
    for key, want in REFERENCE["smoke"][workload].items()
]


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
        got = dict(line.split(" = ", 1) for line in out.read_text().splitlines())
        assert got.keys() == want.keys()
        for key, value in got.items():
            assert _NUMBER.sub("#", value) == _NUMBER.sub("#", want[key]), key
            pairs = zip(_NUMBER.findall(value), _NUMBER.findall(want[key]))
            for g, w in pairs:
                assert float(g) == pytest.approx(float(w), rel=1e-10, abs=0.0), key


@pytest.mark.usefixtures("lapack_fallback")
class TestRecordedBoundsFallback:
    """The recorded ``bounds`` lines again, with every eigensolve on the
    fallback driver."""

    test_bounds_prints_as_recorded = TestRecordedRows.test_bounds_prints_as_recorded
