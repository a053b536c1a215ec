import numpy as np
import pytest
import scipy.sparse

from saddlebounds import mmio
from saddlebounds.bounds import witness_general
from saddlebounds.fem import build_mesh, parabolic_kkt, stokes_system
from saddlebounds.saddle import InnerProduct, SaddleSystem, reduce_system
from saddlebounds.verify import random_coercive_system


class TestMatrixRoundTrip:
    def test_dense_complex_bit_exact(self, rng, tmp_path):
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        path = tmp_path / "a.mtx"
        mmio.save_matrix(path, a)
        back = mmio.load_matrix(path)
        assert back.shape == a.shape
        assert np.array_equal(back, a)  # bit-exact values

    def test_dense_real_bit_exact(self, rng, tmp_path):
        a = rng.standard_normal((4, 4)) / 3.0
        path = tmp_path / "a.mtx"
        mmio.save_matrix(path, a)
        assert np.array_equal(mmio.load_matrix(path), a)

    def test_rewrite_is_stable(self, rng, tmp_path):
        # writing what we read reproduces the identical decimal text
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        first = tmp_path / "first.mtx"
        second = tmp_path / "second.mtx"
        mmio.save_matrix(first, a)
        mmio.save_matrix(second, mmio.load_matrix(first))
        assert first.read_text() == second.read_text()

    def test_sparse_coordinate_round_trip(self, tmp_path):
        mat = scipy.sparse.random(
            8, 6, density=0.3, random_state=3, dtype=float
        ).tocsr()
        mat = mat + 1j * mat
        path = tmp_path / "s.mtx"
        mmio.save_matrix(path, mat)
        back = mmio.load_matrix(path, dense=False)
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
        ip = InnerProduct.identity(2, 1)
        mmio.save_bundle(tmp_path / "bundle", sys.a, sys.b, sys.c, ip.p, ip.r)
        sys2, ip2 = mmio.load_bundle(tmp_path / "bundle")
        assert np.array_equal(sys2.a, sys.a)
        assert np.array_equal(sys2.b, sys.b)
        assert np.array_equal(sys2.c, sys.c)
        assert np.array_equal(ip2.p, ip.p)
        assert np.array_equal(ip2.r, ip.r)

    def test_blocks_written_as_coordinates(self, rng, tmp_path):
        sys, ip = random_coercive_system(rng, 5, 2)
        mmio.save_bundle(tmp_path / "b", sys.a, sys.b, sys.c, ip.p, ip.r)
        for name in ("A", "B", "C", "P", "R"):
            header = (tmp_path / "b" / f"{name}.mtx").read_text().splitlines()[0]
            assert "coordinate" in header, name
        # the vanishing (2,2) block stores no entries
        size_line = (tmp_path / "b" / "C.mtx").read_text().splitlines()[-1]
        assert size_line.split() == ["2", "2", "0"]
        sys2, ip2 = mmio.load_bundle(tmp_path / "b")
        for got, want in zip((sys2.a, sys2.b, sys2.c, ip2.p, ip2.r),
                             (sys.a, sys.b, sys.c, ip.p, ip.r)):
            assert np.array_equal(got, want)

    def test_array_format_bundle_still_loads(self, rng, tmp_path):
        # bundles written before the coordinate variant hold dense arrays
        sys, ip = random_coercive_system(rng, 5, 2)
        mmio.save_bundle(tmp_path / "b", sys.a, sys.b, sys.c, ip.p, ip.r)
        blocks = {"A": sys.a, "B": sys.b, "C": sys.c, "P": ip.p, "R": ip.r}
        for name, block in blocks.items():
            path = tmp_path / "b" / f"{name}.mtx"
            mmio.save_matrix(path, block)
            assert "array" in path.read_text().splitlines()[0]
        sys2, ip2 = mmio.load_bundle(tmp_path / "b")
        for got, want in zip((sys2.a, sys2.b, sys2.c, ip2.p, ip2.r), blocks.values()):
            assert np.array_equal(got, want)

    def test_manifest_contents(self, tmp_path):
        sys = SaddleSystem(a=np.eye(3), b=np.ones((1, 3)))
        mmio.save_bundle(tmp_path / "b", sys.a, sys.b, sys.c, np.eye(3), np.eye(1))
        manifest = (tmp_path / "b" / "manifest.json").read_text()
        assert '"n": 3' in manifest and '"m": 1' in manifest

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            mmio.load_bundle(tmp_path)

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
        for name in "ABCPR":
            header = (tmp_path / "b" / f"{name}.mtx").read_text().splitlines()[0]
            assert header.split()[3] == ("complex" if name == complex_block else "real")
        sys, ip = mmio.load_bundle(tmp_path / "b")
        red = reduce_system(sys, ip)
        blocks = {"at": red.at, "g": red.g, "lp": ip.lp, "lr": ip.lr}
        for name, block in blocks.items():
            want = np.complex128 if name == complex_reduced else np.float64
            assert block.dtype == want, name


@pytest.mark.usefixtures("lapack_fallback")
class TestBundleFallback(TestBundle):
    """The bundle tests again, with every eigensolve on the fallback driver."""
