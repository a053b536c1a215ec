import json

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from saddlebounds import mmio
from saddlebounds.bounds import witness_general
from saddlebounds.fem import build_mesh, parabolic_kkt, stokes_system
from saddlebounds.saddle import SaddleSystem, reduce_system
from saddlebounds.verify import random_coercive_system


class TestMatrixRoundTrip:
    def test_dense_complex_bit_exact(self, rng, tmp_path):
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        path = tmp_path / "a.mtx"
        mmio.save_matrix(path, a)
        back = scipy.io.mmread(path)
        assert back.shape == a.shape
        assert np.array_equal(back, a)  # bit-exact values

    def test_dense_real_bit_exact(self, rng, tmp_path):
        a = rng.standard_normal((4, 4)) / 3.0
        path = tmp_path / "a.mtx"
        mmio.save_matrix(path, a)
        assert np.array_equal(scipy.io.mmread(path), a)

    def test_rewrite_is_stable(self, rng, tmp_path):
        # writing what we read reproduces the identical decimal text
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        first = tmp_path / "first.mtx"
        second = tmp_path / "second.mtx"
        mmio.save_matrix(first, a)
        mmio.save_matrix(second, scipy.io.mmread(first))
        assert first.read_text() == second.read_text()

    def test_sparse_coordinate_round_trip(self, tmp_path):
        mat = scipy.sparse.random(
            8, 6, density=0.3, random_state=3, dtype=float
        ).tocsr()
        mat = mat + 1j * mat
        path = tmp_path / "s.mtx"
        mmio.save_matrix(path, mat)
        back = scipy.io.mmread(path)
        assert scipy.sparse.issparse(back)
        assert np.array_equal(back.toarray(), mat.toarray())

    def test_coordinate_header(self, tmp_path):
        mat = scipy.sparse.eye(3, format="csr")
        path = tmp_path / "eye.mtx"
        mmio.save_matrix(path, mat)
        header = path.read_text().splitlines()[0]
        assert "coordinate" in header


class TestBundle:
    def test_round_trip(self, tmp_path):
        sys = witness_general(0.5, 1.0, 1.0)
        mmio.save_bundle(tmp_path / "bundle", sys.a, sys.b, sys.c, np.eye(2), np.eye(1))
        sys2, p2, r2 = mmio.load_bundle(tmp_path / "bundle")
        assert np.array_equal(sys2.a, sys.a)
        assert np.array_equal(sys2.b, sys.b)
        assert np.array_equal(sys2.c, sys.c)
        # P and R come back as read: coordinate blocks stay sparse.
        assert scipy.sparse.issparse(p2) and scipy.sparse.issparse(r2)
        assert np.array_equal(p2.toarray(), np.eye(2))
        assert np.array_equal(r2.toarray(), np.eye(1))

    def test_blocks_written_as_coordinates(self, rng, tmp_path):
        sys, p, r = random_coercive_system(rng, 5, 2)
        # An explicit empty sparse C, as ``export`` writes it.
        mmio.save_bundle(tmp_path / "b", sys.a, sys.b, scipy.sparse.coo_array((2, 2)), p, r)
        for name in ("A", "B", "C", "P", "R"):
            header = (tmp_path / "b" / f"{name}.mtx").read_text().splitlines()[0]
            assert "coordinate" in header, name
        # the vanishing (2,2) block stores no entries
        size_line = (tmp_path / "b" / "C.mtx").read_text().splitlines()[-1]
        assert size_line.split() == ["2", "2", "0"]
        sys2, p2, r2 = mmio.load_bundle(tmp_path / "b")
        assert sys2.c is None
        for got, want in zip((sys2.a, sys2.b, p2.toarray(), r2.toarray()),
                             (sys.a, sys.b, p, r)):
            assert np.array_equal(got, want)

    def test_absent_c_writes_no_file(self, rng, tmp_path):
        sys, p, r = random_coercive_system(rng, 5, 2)
        assert sys.c is None
        mmio.save_bundle(tmp_path / "b", sys.a, sys.b, sys.c, p, r)
        assert not (tmp_path / "b" / "C.mtx").exists()
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert sorted(manifest["files"]) == ["A", "B", "P", "R"]
        sys2, _, _ = mmio.load_bundle(tmp_path / "b")
        assert sys2.c is None
        assert np.array_equal(sys2.a, sys.a) and np.array_equal(sys2.b, sys.b)

    def test_array_format_bundle_still_loads(self, rng, tmp_path):
        # bundles written before the coordinate variant hold dense arrays
        sys, p, r = random_coercive_system(rng, 5, 2)
        blocks = {"A": sys.a, "B": sys.b, "C": np.zeros((2, 2)), "P": p, "R": r}
        mmio.save_bundle(tmp_path / "b", *blocks.values())
        for name, block in blocks.items():
            path = tmp_path / "b" / f"{name}.mtx"
            mmio.save_matrix(path, block)
            assert "array" in path.read_text().splitlines()[0]
        sys2, p2, r2 = mmio.load_bundle(tmp_path / "b")
        assert sys2.c is None
        for got, want in zip((sys2.a, sys2.b, p2, r2), (sys.a, sys.b, p, r)):
            assert np.array_equal(got, want)

    def test_manifest_contents(self, tmp_path):
        sys = SaddleSystem(a=np.eye(3), b=np.ones((1, 3)))
        mmio.save_bundle(tmp_path / "b", sys.a, sys.b, sys.c, np.eye(3), np.eye(1))
        manifest = (tmp_path / "b" / "manifest.json").read_text()
        assert '"n": 3' in manifest and '"m": 1' in manifest

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            mmio.load_bundle(tmp_path)

    def test_unknown_block_refused_before_reading(self, tmp_path):
        sys = SaddleSystem(a=np.eye(3), b=np.ones((1, 3)))
        mmio.save_bundle(tmp_path / "b", sys.a, sys.b, sys.c, np.eye(3), np.eye(1))
        manifest_path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        # The extra file does not exist: reading it would raise OSError.
        manifest["files"]["D"] = "D.mtx"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="of no other block"):
            mmio.load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("name", ["{bundle}/A.mtx", "./A.mtx", "", ".", ".."])
    def test_name_outside_the_directory_refused(self, tmp_path, name):
        # The first names the bundle's own, readable A.mtx by its absolute path.
        sys = SaddleSystem(a=np.eye(3), b=np.ones((1, 3)))
        mmio.save_bundle(tmp_path / "b", sys.a, sys.b, sys.c, np.eye(3), np.eye(1))
        manifest_path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["A"] = name.format(bundle=tmp_path / "b")
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="plain file names"):
            mmio.load_bundle(tmp_path / "b")

    def test_dimension_mismatch_detected(self, tmp_path):
        sys = SaddleSystem(a=np.eye(3), b=np.ones((1, 3)))
        mmio.save_bundle(tmp_path / "b", sys.a, sys.b, sys.c, np.eye(3), np.eye(1))
        manifest_path = tmp_path / "b" / "manifest.json"
        manifest_path.write_text(manifest_path.read_text().replace('"n": 3', '"n": 4'))
        with pytest.raises(ValueError, match="dimensions"):
            mmio.load_bundle(tmp_path / "b")

    @pytest.mark.parametrize(
        "builder, complex_block, complex_reduced",
        [
            # only B = [K + i omega M, -M] carries i omega
            (parabolic_kkt, "B", "g"),
            # A carries i omega; the divergence coupling is real
            (stokes_system, "A", "at"),
        ],
    )
    def test_blocks_keep_their_field(self, tmp_path, builder, complex_block, complex_reduced):
        problem = builder(build_mesh(2), nu=1.0, omega=1.0)
        p, r = problem.inner_product_blocks()
        mmio.save_bundle(tmp_path / "b", problem.a, problem.b, problem.c, p, r)
        assert not (tmp_path / "b" / "C.mtx").exists()  # C vanishes in both
        for name in "ABPR":
            header = (tmp_path / "b" / f"{name}.mtx").read_text().splitlines()[0]
            assert header.split()[3] == ("complex" if name == complex_block else "real")
        sys, p, r = mmio.load_bundle(tmp_path / "b")
        red = reduce_system(sys, p, r)
        blocks = {"at": red.a, "g": red.b, "p": p, "r": r}
        for name, block in blocks.items():
            want = np.complex128 if name == complex_reduced else np.float64
            assert block.dtype == want, name


@pytest.mark.usefixtures("lapack_fallback")
class TestBundleFallback(TestBundle):
    """The bundle tests again, with every eigensolve on the fallback driver."""
