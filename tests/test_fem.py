import itertools
import math
import os
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlebounds.bounds import inclusion_set
from saddlebounds.fem import (
    assemble_p1,
    assemble_taylor_hood,
    build_mesh,
    parabolic_kkt,
    parabolic_reduced,
    stokes_system,
    target_state,
    target_velocity,
)
from saddlebounds.fem.assembly import PINNED_PRESSURE, _p1_matrices, _taylor_hood_matrices
from saddlebounds.fem import problems
from saddlebounds.fem.mesh import Mesh
from saddlebounds.fem.problems import (
    BlockPreconditioner,
    SpdFactor,
    stream_profile,
    stream_profile_derivative,
)
from saddlebounds.saddle import (
    BrezziConstants,
    brezzi_constants,
    preconditioned_spectrum,
    reduce_system,
)
from saddlebounds.spectrum import detect_structure, pairing_check

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def divergence(fem):
    """The pinned divergence ``D = [div_x, div_y]`` on stacked (x, y)
    velocity components, dense."""
    return scipy.sparse.hstack([fem.div_x, fem.div_y]).toarray()


class TestMesh:
    @pytest.mark.parametrize("level", range(5))
    def test_counts(self, level):
        mesh = build_mesh(level)
        assert mesh.num_triangles == 4 ** (level + 1)
        assert mesh.num_vertices == (2**level + 1) ** 2 + 4**level
        assert mesh.num_vertices - mesh.num_edges + mesh.num_triangles == 1

    def test_initial_mesh(self):
        mesh = build_mesh(0)
        assert mesh.num_triangles == 4
        assert mesh.num_vertices == 5

    def test_level_one_counts(self):
        mesh = build_mesh(1)
        assert mesh.num_triangles == 16
        assert mesh.num_vertices == 13

    def test_level_four_triangles(self):
        assert build_mesh(4).num_triangles == 1024

    def test_area_partition(self):
        for level in (0, 2, 3):
            mesh = build_mesh(level)
            p = mesh.vertices[mesh.triangles]
            d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
            areas = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
            assert areas.sum() == pytest.approx(1.0, rel=1e-14)

    def test_vertex_nesting(self):
        coarse, fine = build_mesh(2), build_mesh(3)
        assert np.array_equal(coarse.vertices, fine.vertices[: coarse.num_vertices])

    def test_level_guard(self):
        with pytest.raises(ValueError):
            build_mesh(7)
        with pytest.raises(ValueError):
            build_mesh(-1)

    def test_text_export(self):
        text = build_mesh(0).to_text()
        assert text.splitlines()[1] == "vertices 5"
        assert "triangles 4" in text


class TestScalarAssembly:
    def test_single_triangle_mass_partition_of_unity(self):
        tri = Mesh(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            triangles=np.array([[0, 1, 2]]),
            level=0,
        )
        mass, _ = _p1_matrices(tri)
        assert mass.sum() == pytest.approx(0.5, rel=1e-14)

    def test_constants_in_stiffness_kernel(self):
        _, stiffness = _p1_matrices(build_mesh(2))
        ones = np.ones(stiffness.shape[0])
        assert np.max(np.abs(stiffness @ ones)) < 1e-12

    def test_mass_total(self):
        mass, _ = _p1_matrices(build_mesh(2))
        assert mass.sum() == pytest.approx(1.0, rel=1e-12)

    def test_symmetry_and_spd(self):
        fem = assemble_p1(build_mesh(2))
        for mat in (fem.mass, fem.stiffness):
            dense = mat.toarray()
            assert np.max(np.abs(dense - dense.T)) < 1e-12
            assert np.linalg.eigvalsh(dense)[0] > 0.0

    def test_dirichlet_eigenvalue(self):
        # smallest Dirichlet Laplacian eigenvalue on the unit square is 2 pi^2
        fem = assemble_p1(build_mesh(3))
        lam = scipy.linalg.eigh(
            fem.stiffness.toarray(), fem.mass.toarray(), eigvals_only=True
        )
        assert abs(lam[0] - 2.0 * math.pi**2) / (2.0 * math.pi**2) < 0.05


class TestTaylorHood:
    def test_divergence_of_linear_solenoidal_field(self):
        mesh = build_mesh(1)
        _, _, div_x, div_y = _taylor_hood_matrices(mesh)
        coords = assemble_taylor_hood(mesh).p2_coordinates
        d = div_x @ coords[:, 0] + div_y @ (-coords[:, 1])
        assert np.max(np.abs(d)) < 1e-14

    def test_vector_mass_total(self):
        mass, _, _, _ = _taylor_hood_matrices(build_mesh(1))
        total = 2.0 * mass.sum()
        assert total == pytest.approx(2.0, rel=1e-12)

    def test_unknown_count_level4(self):
        fem = assemble_taylor_hood(build_mesh(4))
        complex_unknowns = 2 * (2 * fem.velocity_component_dim) + 2 * fem.pressure_dim
        assert complex_unknowns == 9028
        assert 2 * complex_unknowns == 18056

    @pytest.mark.parametrize("level", range(5))
    def test_pressure_dim_pins_one_vertex(self, level):
        mesh = build_mesh(level)
        fem = assemble_taylor_hood(mesh)
        assert fem.pressure_dim == mesh.num_vertices - 1
        assert fem.div_x.shape == fem.div_y.shape == (
            fem.pressure_dim, fem.velocity_component_dim
        )

    def test_pinned_divergence_restricts_the_full_one(self):
        mesh = build_mesh(2)
        fem = assemble_taylor_hood(mesh)
        _, _, div_x, div_y = _taylor_hood_matrices(mesh)
        kept = np.delete(np.arange(mesh.num_vertices), PINNED_PRESSURE)
        for pinned, full in ((fem.div_x, div_x), (fem.div_y, div_y)):
            assert np.array_equal(
                pinned.toarray(), full.toarray()[np.ix_(kept, fem.interior)]
            )

    @pytest.mark.parametrize("level", (1, 2, 3))
    def test_velocity_pressure_infsup(self, level):
        mesh = build_mesh(level)
        fem = assemble_taylor_hood(mesh)
        keep = np.delete(np.arange(mesh.num_vertices), PINNED_PRESSURE)
        div = divergence(fem)
        mass = scipy.linalg.block_diag(
            fem.scalar_mass.toarray(), fem.scalar_mass.toarray()
        )
        schur = div @ np.linalg.solve(mass, div.T)
        pressure_mass, _ = _p1_matrices(mesh)
        mp = pressure_mass[np.ix_(keep, keep)].toarray()
        lam = scipy.linalg.eigh(schur, mp, eigvals_only=True)
        assert math.sqrt(lam[0]) >= 0.2

    def test_full_rank_divergence(self):
        fem = assemble_taylor_hood(build_mesh(1))
        div = divergence(fem)
        s = np.linalg.svd(div, compute_uv=False)
        assert s[-1] > 1e-10 * s[0]


class TestTargets:
    def test_profile_vanishes_at_ends(self):
        assert stream_profile(0.0) == 0.0
        assert stream_profile(1.0) == pytest.approx(0.0, abs=1e-15)
        assert stream_profile_derivative(0.0) == pytest.approx(0.0, abs=1e-15)
        assert stream_profile_derivative(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_velocity_vanishes_on_boundary(self):
        t = np.linspace(0.0, 1.0, 33)
        for xs, ys in [(t, 0 * t), (t, 0 * t + 1.0), (0 * t, t), (0 * t + 1.0, t)]:
            u, v = target_velocity(xs, ys)
            assert np.max(np.abs(u)) < 1e-13
            assert np.max(np.abs(v)) < 1e-13

    def test_divergence_free_finite_differences(self, rng):
        pts = rng.uniform(0.05, 0.95, size=(100, 2))
        h = 1e-6
        ux = (target_velocity(pts[:, 0] + h, pts[:, 1])[0]
              - target_velocity(pts[:, 0] - h, pts[:, 1])[0]) / (2 * h)
        vy = (target_velocity(pts[:, 0], pts[:, 1] + h)[1]
              - target_velocity(pts[:, 0], pts[:, 1] - h)[1]) / (2 * h)
        assert np.max(np.abs(ux + vy)) < 1e-6

    def test_center_value_two_expansions(self):
        x = y = 0.5
        first = 10.0 * stream_profile(x) * stream_profile_derivative(y)
        # independent expansion of the derivative of the product form
        second = 10.0 * (1.0 - math.cos(0.8 * math.pi * x)) * (1.0 - x) ** 2 * (
            0.8 * math.pi * math.sin(0.8 * math.pi * y) * (1.0 - y) ** 2
            - 2.0 * (1.0 - y) * (1.0 - math.cos(0.8 * math.pi * y))
        )
        u, _ = target_velocity(x, y)
        assert first == pytest.approx(second, rel=1e-12)
        assert u == pytest.approx(first, rel=1e-14)

    def test_state_is_profile_product(self):
        assert target_state(0.3, 0.7) == pytest.approx(
            10.0 * stream_profile(0.3) * stream_profile(0.7), rel=1e-14
        )


class TestParabolicProblems:
    def test_kkt_hermitian_and_spd_blocks(self):
        problem = parabolic_kkt(build_mesh(1), nu=1e-2, omega=3.0)
        full = problem.saddle_system().assemble()
        assert np.max(np.abs(full - full.conj().T)) < 1e-12
        ip = problem.inner_product()  # construction Cholesky-checks both blocks
        assert ip.n == problem.n and ip.m == problem.m

    def test_kkt_omega_zero_real_coupling(self):
        problem = parabolic_kkt(build_mesh(1), nu=1.0, omega=0.0)
        assert np.max(np.abs(problem.b.toarray().imag)) == 0.0

    def test_kkt_rhs_layout(self):
        problem = parabolic_kkt(build_mesh(1), nu=1.0, omega=1.0)
        n = problem.n // 2
        assert np.any(problem.rhs[:n])
        assert not np.any(problem.rhs[n:])

    @pytest.mark.parametrize("nu", (1e-4, 1.0))
    @pytest.mark.parametrize("omega", (0.0, 1.0, 100.0))
    def test_kkt_theorem_constants(self, nu, omega):
        problem = parabolic_kkt(build_mesh(2), nu, omega)
        bc = brezzi_constants(
            reduce_system(problem.saddle_system(), problem.inner_product())
        )
        assert bc.alpha >= 2.0 - SQRT2 - 1e-10
        assert bc.lambda_min_a >= -1e-12
        assert bc.lambda_max_a <= 1.0 + 1e-10
        assert bc.beta >= SQRT2 / 2.0 - 1e-10
        assert bc.b_norm <= 1.0 + 1e-10

    def test_kkt_spectrum_in_theorem_interval(self):
        constants = BrezziConstants(
            alpha=2.0 - SQRT2, beta=SQRT2 / 2.0, a_norm=1.0, b_norm=1.0,
            lambda_min_a=0.0, lambda_max_a=1.0,
        )
        inc = inclusion_set(constants)
        problem = parabolic_kkt(build_mesh(2), nu=1.0, omega=1.0)
        mu = preconditioned_spectrum(
            reduce_system(problem.saddle_system(), problem.inner_product())
        )
        assert inc.contains(mu, slack=1e-6)

    def test_reduced_structure_detected(self):
        problem = parabolic_reduced(build_mesh(1), nu=0.5, omega=2.0)
        assert detect_structure(problem.saddle_system())

    @pytest.mark.parametrize("nu", (1e-8, 1e-4, 1.0, 1e8))
    @pytest.mark.parametrize("omega", (0.0, 1.0, 100.0))
    def test_reduced_spectrum_and_pairing(self, nu, omega):
        problem = parabolic_reduced(build_mesh(2), nu, omega)
        mu = preconditioned_spectrum(
            reduce_system(problem.saddle_system(), problem.inner_product())
        )
        moduli = np.abs(mu)
        assert moduli.min() >= 1.0 / SQRT3 - 1e-6
        assert moduli.max() <= 1.0 + 1e-6
        assert pairing_check(mu, tol=1e-8).passed

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            parabolic_kkt(build_mesh(1), nu=0.0, omega=1.0)
        with pytest.raises(ValueError):
            parabolic_reduced(build_mesh(1), nu=1.0, omega=-2.0)
        # NaN fails every comparison; infinities give no usable blocks.
        for nu, omega in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                stokes_system(build_mesh(0), nu=nu, omega=omega)


class TestStokesProblem:
    @pytest.mark.parametrize("nu,omega", [(1.0, 1.0), (1e-4, 100.0), (1e8, 0.0)])
    def test_theorem_constants(self, nu, omega):
        problem = stokes_system(build_mesh(2), nu, omega)
        bc = brezzi_constants(
            reduce_system(problem.saddle_system(), problem.inner_product())
        )
        assert bc.beta == pytest.approx(1.0, abs=1e-8)
        assert bc.b_norm == pytest.approx(1.0, abs=1e-8)
        assert bc.alpha >= 1.0 / SQRT3 - 1e-8
        assert bc.a_norm <= 1.0 + 1e-8

    def test_spectrum_symmetric(self):
        problem = stokes_system(build_mesh(2), nu=1.0, omega=1.0)
        mu = preconditioned_spectrum(
            reduce_system(problem.saddle_system(), problem.inner_product())
        )
        assert pairing_check(mu, tol=1e-8).passed

    def test_hermitian_assembly(self):
        problem = stokes_system(build_mesh(1), nu=1e-2, omega=10.0)
        full = problem.matrix()
        dense = full.toarray()
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-12

    @pytest.mark.parametrize("level,nu", [(1, 1.0), (2, 1e-2)])
    def test_coupling_from_pinned_divergence(self, level, nu):
        mesh = build_mesh(level)
        problem = stokes_system(mesh, nu=nu, omega=1.0)
        d = divergence(assemble_taylor_hood(mesh))
        zero = np.zeros_like(d)
        expected = -math.sqrt(nu) * np.block([[zero, d], [d, zero]])
        assert np.array_equal(problem.b.toarray(), expected)

    def test_rhs_layout(self):
        problem = stokes_system(build_mesh(1), nu=1.0, omega=1.0)
        half = problem.n // 2
        assert np.any(problem.rhs[:half])
        assert not np.any(problem.rhs[half:])

    def test_dense_guard(self):
        problem = stokes_system(build_mesh(4), nu=1.0, omega=1.0)
        with pytest.raises(ValueError, match="refused"):
            problem.saddle_system()


class BlockFailure(RuntimeError):
    pass


class TestStokesSchurBlocks:
    """``stokes_system`` forms the dense Schur complement ``S`` in column
    blocks (12 at level 4) on one worker per available CPU: the calling
    thread and a pool of the others."""

    def build(self, monkeypatch, cpus, fail_at=None):
        """Level-4 build on ``cpus`` reported CPUs.  Returns the dense
        matrices it factors and, per sparse solve (one Schur block each), the
        number of live threads.  With ``fail_at``, that solve raises."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        dense, live, calls = [], [], itertools.count()

        class Recording(SpdFactor):
            def __init__(self, matrix):
                super().__init__(matrix)
                if not scipy.sparse.issparse(matrix):
                    dense.append(matrix)
                    return
                solve = self.solve

                def recorded(rhs):
                    live.append(threading.active_count())
                    if next(calls) == fail_at:
                        raise BlockFailure("block solve failed")
                    return solve(rhs)

                self.solve = recorded

        monkeypatch.setattr(problems, "SpdFactor", Recording)
        stokes_system(build_mesh(4), 1e-2, 1.0)
        return dense, live

    def test_schur_does_not_depend_on_worker_count(self, monkeypatch):
        before = threading.active_count()
        (one,), inline = self.build(monkeypatch, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than CPUs, switching often
        try:
            (four,), pooled = self.build(monkeypatch, 4)
        finally:
            sys.setswitchinterval(interval)
        assert set(inline) == {before}
        assert min(pooled) > before
        # Every block is solved once: a skipped block could keep equal stale
        # values in the reused buffer.
        assert len(pooled) == len(inline) > 1
        assert np.array_equal(one, four)
        assert np.array_equal(four, four.T)

    def test_success_leaves_no_thread(self, monkeypatch):
        before = threading.active_count()
        self.build(monkeypatch, 4)
        assert threading.active_count() == before

    def test_failing_block_raises_and_leaves_no_thread(self, monkeypatch):
        before = threading.active_count()
        with pytest.raises(BlockFailure, match="block solve failed"):
            self.build(monkeypatch, 4, fail_at=2)
        assert threading.active_count() == before


BUILDERS = {
    "parabolic-kkt": parabolic_kkt,
    "parabolic-reduced": parabolic_reduced,
    "stokes": stokes_system,
}


def reference_inner_product(flavor, level, nu, omega):
    """Dense ``P`` and ``R`` of a flavor, formed here from the assembled
    mass and stiffness matrices as the builders' docstrings state them,
    without the builders' own preconditioner declaration."""
    if flavor == "stokes":
        fem = assemble_taylor_hood(build_mesh(level))
        ms, ks = fem.scalar_mass.toarray(), fem.scalar_stiffness.toarray()
        ps = ms + math.sqrt(nu) * (ks + omega * ms)
        d = divergence(fem)
        schur = d @ np.linalg.solve(scipy.linalg.block_diag(ps, ps), d.T)
        return (
            scipy.linalg.block_diag(ps, ps, ps, ps),
            nu * scipy.linalg.block_diag(schur, schur),
        )
    fem = assemble_p1(build_mesh(level))
    m, k = fem.mass.toarray(), fem.stiffness.toarray()
    y = m + math.sqrt(nu) * (k + omega * m)
    if flavor == "parabolic-kkt":
        return scipy.linalg.block_diag(y, nu * m), y / nu
    return y, y


@pytest.mark.parametrize("flavor", sorted(BUILDERS))
def test_system_matrix_is_complex_csr(flavor):
    # The system is assembled straight into complex128, with no second copy;
    # it equals assembling in the blocks' own dtype and then converting.
    problem = BUILDERS[flavor](build_mesh(1), nu=0.5, omega=2.0)
    mat = problem.matrix()
    assert mat.format == "csr" and mat.dtype == np.complex128
    old = scipy.sparse.bmat(
        [[problem.a, problem.b.conj().T], [problem.b, -problem.c]], format="csr"
    ).astype(np.complex128)
    assert (mat != old).nnz == 0


class TestBlockPreconditioner:
    @pytest.mark.parametrize("flavor", sorted(BUILDERS))
    def test_preconditioner_is_ip_inverse(self, flavor, rng):
        # nu != 1 exercises the nu and 1/nu scales of the KKT blocks.
        problem = BUILDERS[flavor](build_mesh(1), nu=0.5, omega=2.0)
        p, r = reference_inner_product(flavor, 1, 0.5, 2.0)
        ip = problem.inner_product()
        assert np.max(np.abs(ip.p - p)) <= 1e-12 * np.max(np.abs(p))
        assert np.max(np.abs(ip.r - r)) <= 1e-12 * np.max(np.abs(r))
        full = scipy.linalg.block_diag(p, r)
        x = rng.standard_normal(problem.dim) + 1j * rng.standard_normal(problem.dim)
        assert np.linalg.norm(full @ problem.precond_solve(x) - x) < 1e-8 * np.linalg.norm(x)

    @pytest.mark.parametrize("flavor", sorted(BUILDERS))
    def test_columns_match_single_solves(self, flavor, rng):
        problem = BUILDERS[flavor](build_mesh(2), nu=1e-2, omega=5.0)
        shape = (problem.dim, 3)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        block = problem.precond_solve(x)
        assert block.shape == (problem.dim, 3)
        for j in range(3):
            single = problem.precond_solve(x[:, j])
            assert single.shape == (problem.dim,)
            assert np.linalg.norm(block[:, j] - single) <= 1e-13 * np.linalg.norm(single)

    @pytest.mark.parametrize("flavor", sorted(BUILDERS))
    def test_real_input_and_input_unchanged(self, flavor, rng):
        problem = BUILDERS[flavor](build_mesh(1), nu=3.0, omega=1.0)
        x = rng.standard_normal(problem.dim)
        z = x + 1j * rng.standard_normal(problem.dim)
        x_copy, z_copy = x.copy(), z.copy()
        real = problem.precond_solve(x)
        assert np.isrealobj(real)
        as_complex = problem.precond_solve(x + 0j)
        assert np.linalg.norm(real - as_complex) <= 1e-14 * np.linalg.norm(real)
        problem.precond_solve(z)
        assert np.array_equal(x, x_copy)
        assert np.array_equal(z, z_copy)

    def test_rejects_wrong_shape(self):
        problem = parabolic_reduced(build_mesh(0), nu=1.0, omega=1.0)
        with pytest.raises(ValueError, match="shape"):
            problem.precond_solve(np.ones(problem.dim + 1))

    @pytest.mark.parametrize("second", [slice(4, 7), slice(2, 5)])
    def test_slices_must_tile(self, second):
        factor = SpdFactor(scipy.sparse.identity(3, format="csc"))
        with pytest.raises(ValueError, match="tile"):
            BlockPreconditioner(6, [(factor, [slice(0, 3), second], [1.0, 1.0])])

    @staticmethod
    def tridiagonal(n):
        return SpdFactor(scipy.sparse.diags([-0.7, 2.6, -0.7], [-1, 0, 1], (n, n), format="csc"))

    def test_matrix_places_scaled_blocks(self):
        # Blocks in any order, each divided by its scale on its slices; at
        # these values and scales a product with the reciprocal rounds
        # differently.
        first, second = self.tridiagonal(2), self.tridiagonal(3)
        precond = BlockPreconditioner(
            8, [(second, [slice(5, 8), slice(0, 3)], [0.1, 49.0]), (first, [slice(3, 5)], [7.0])]
        )
        pc = precond.matrix()
        assert pc.format == "csr" and pc.dtype == np.float64
        t2, t3 = first.matrix.toarray(), second.matrix.toarray()
        assert np.array_equal(pc.toarray(), scipy.linalg.block_diag(t3 / 49.0, t2 / 7.0, t3 / 0.1))
        x = np.arange(1.0, 9.0)
        assert np.allclose(precond(pc @ x), x, rtol=1e-13)

    def test_inner_product_blocks_reject_a_slice_across_n(self):
        # One block on 3:6 with n = 4 puts entries in Pc[:4, 4:].
        precond = BlockPreconditioner(
            6, [(self.tridiagonal(3), [slice(0, 3), slice(3, 6)], [1.0, 2.0])]
        )
        a = scipy.sparse.identity(4, format="csr")
        b = scipy.sparse.csr_matrix(np.eye(2, 4))
        c = scipy.sparse.csr_matrix((2, 2))
        problem = problems.ModelProblem("test", 0, 1.0, 1.0, a, b, c, np.zeros(6), precond)
        with pytest.raises(ValueError, match="couples unknowns 0:4 to 4:6"):
            problem.inner_product_blocks()
        # A block that crosses n without coupling across it is block-diagonal.
        identity = SpdFactor(scipy.sparse.identity(3, format="csc"))
        problem.precond_solve = BlockPreconditioner(
            6, [(identity, [slice(0, 3), slice(3, 6)], [1.0, 2.0])]
        )
        p, r = problem.inner_product_blocks()
        assert np.array_equal(p.toarray(), np.diag([1.0, 1.0, 1.0, 0.5]))
        assert np.array_equal(r.toarray(), 0.5 * np.eye(2))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        flavor=st.sampled_from(sorted(BUILDERS)),
        level=st.integers(0, 2),
        log_nu=st.floats(-8.0, 8.0),
        omega=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    )
    def test_property_inverts_inner_product(self, flavor, level, log_nu, omega):
        nu = 10.0**log_nu
        problem = BUILDERS[flavor](build_mesh(level), nu, omega)
        p, r = reference_inner_product(flavor, level, nu, omega)
        full = scipy.linalg.block_diag(p, r)
        eye = np.eye(problem.dim)
        assert np.max(np.abs(full @ problem.precond_solve(eye) - eye)) < 1e-8


class TestLevel3LanczosBounds:
    """Constant bounds at level 3, where dense verification gives way to
    Lanczos-based interval estimates (inner estimates of the true hull, so
    the theorem intervals must contain them; the inner endpoints may not
    undershoot the theorem's lower bounds)."""

    @pytest.mark.parametrize("nu,omega", [(1e-8, 1.0), (1.0, 100.0), (1e8, 0.0)])
    def test_reduced_parabolic_level3(self, nu, omega):
        from saddlebounds.krylov import estimate_intervals

        problem = parabolic_reduced(build_mesh(3), nu, omega)
        est = estimate_intervals(problem.operator(), problem.preconditioner())
        assert est.pos_hi <= 1.0 + 1e-6
        assert est.neg_lo >= -1.0 - 1e-6
        assert est.pos_lo >= 1.0 / SQRT3 - 1e-6
        assert est.neg_hi <= -1.0 / SQRT3 + 1e-6

    @pytest.mark.parametrize("nu,omega", [(1e-4, 100.0), (1.0, 1.0)])
    def test_stokes_level3(self, nu, omega):
        from saddlebounds.bounds import b_norm_upper, gamma_opt_general
        from saddlebounds.krylov import estimate_intervals

        problem = stokes_system(build_mesh(3), nu, omega)
        est = estimate_intervals(problem.operator(), problem.preconditioner())
        mu4 = b_norm_upper(1.0, 1.0)
        mu3 = gamma_opt_general(1.0 / SQRT3, 1.0, 1.0)
        assert est.pos_hi <= mu4 + 1e-6
        assert est.neg_lo >= -mu4 - 1e-6
        assert est.pos_lo >= mu3 - 1e-6
        assert est.neg_hi <= -mu3 + 1e-6
