"""P1 and Taylor-Hood (P2 velocity / P1 pressure) assembly on triangles.

All element integrals use one 7-point quadrature rule of polynomial degree 5
(exact for every integrand appearing here: P2 mass needs degree 4, the
divergence coupling degree 3, stiffness degree 2), except the P1 matrices
which have closed-form element integrals.

Homogeneous Dirichlet conditions on the velocity/state spaces are imposed by
symmetric elimination: matrices are assembled over all nodes and then
restricted to interior rows and columns, which keeps them exactly symmetric
positive definite.  Pressure carries no boundary condition; the constant
mode is fixed by pinning one pressure dof, ``PINNED_PRESSURE``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .mesh import Mesh

__all__ = ["ScalarFem", "StokesFem", "assemble_p1", "assemble_taylor_hood"]

#: Pressure vertex whose dof is removed to fix the constant pressure mode.
PINNED_PRESSURE = 0

# Degree-5, 7-point rule on the reference triangle in barycentric
# coordinates; weights sum to one (integral = area * weighted sum).
_W1 = (155.0 - np.sqrt(15.0)) / 1200.0
_W2 = (155.0 + np.sqrt(15.0)) / 1200.0
_A1 = (6.0 - np.sqrt(15.0)) / 21.0
_A2 = (6.0 + np.sqrt(15.0)) / 21.0
QUAD_WEIGHTS = np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2])
QUAD_BARY = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [_A1, _A1, 1.0 - 2.0 * _A1],
        [_A1, 1.0 - 2.0 * _A1, _A1],
        [1.0 - 2.0 * _A1, _A1, _A1],
        [_A2, _A2, 1.0 - 2.0 * _A2],
        [_A2, 1.0 - 2.0 * _A2, _A2],
        [1.0 - 2.0 * _A2, _A2, _A2],
    ]
)


def _p2_values(bary: np.ndarray) -> np.ndarray:
    """P2 basis values at barycentric points; node order
    (v0, v1, v2, m01, m12, m02)."""
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    return np.column_stack(
        [
            l0 * (2.0 * l0 - 1.0),
            l1 * (2.0 * l1 - 1.0),
            l2 * (2.0 * l2 - 1.0),
            4.0 * l0 * l1,
            4.0 * l1 * l2,
            4.0 * l0 * l2,
        ]
    )


def _p2_bary_gradients(bary: np.ndarray) -> np.ndarray:
    """d(phi_k)/d(lambda_i) at each quadrature point: shape (q, 6, 3)."""
    q = bary.shape[0]
    d = np.zeros((q, 6, 3))
    for i in range(3):
        d[:, i, i] = 4.0 * bary[:, i] - 1.0
    for k, (i, j) in enumerate([(0, 1), (1, 2), (0, 2)], start=3):
        d[:, k, i] = 4.0 * bary[:, j]
        d[:, k, j] = 4.0 * bary[:, i]
    return d


# Quadrature-contracted reference tensors (independent of the geometry).
_P2V = _p2_values(QUAD_BARY)                       # (q, 6)
_P2D = _p2_bary_gradients(QUAD_BARY)               # (q, 6, 3)
_MASS6 = np.einsum("q,qk,ql->kl", QUAD_WEIGHTS, _P2V, _P2V)
_STIFF6 = np.einsum("q,qki,qlj->klij", QUAD_WEIGHTS, _P2D, _P2D)
_DIV6 = np.einsum("q,qp,qki->pki", QUAD_WEIGHTS, QUAD_BARY, _P2D)


def _barycentric_gradients(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle gradients of the barycentric coordinates and areas."""
    p = mesh.vertices[mesh.triangles]              # (t, 3, 2)
    ones = np.ones((mesh.num_triangles, 3, 1))
    m = np.concatenate([ones, p], axis=2)          # rows (1, x_i, y_i)
    inv = np.linalg.inv(m)
    grads = inv[:, 1:, :].transpose(0, 2, 1)       # (t, 3 vertices, 2 components)
    areas = 0.5 * np.abs(np.linalg.det(m))
    return grads, areas


def _accumulate(rows, cols, vals, shape) -> scipy.sparse.csr_matrix:
    """CSR matrix of the entries ``vals`` at ``(rows, cols)``, duplicates summed."""
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


@dataclass(frozen=True)
class ScalarFem:
    """P1 mass and stiffness on the interior vertices ``interior``."""

    mass: scipy.sparse.csr_matrix
    stiffness: scipy.sparse.csr_matrix
    interior: np.ndarray


def _p1_matrices(mesh: Mesh) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
    """Exact P1 mass and stiffness over all vertices, boundary included."""
    grads, areas = _barycentric_gradients(mesh)
    t = mesh.triangles
    nv = mesh.num_vertices

    mass_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = areas[:, None, None] * mass_ref[None, :, :]
    gram = np.einsum("tic,tjc->tij", grads, grads)
    ke = areas[:, None, None] * gram

    rows = t[:, :, None].repeat(3, axis=2).ravel()
    cols = t[:, None, :].repeat(3, axis=1).ravel()
    mass = _accumulate(rows, cols, me.ravel(), (nv, nv))
    stiffness = _accumulate(rows, cols, ke.ravel(), (nv, nv))
    return mass, stiffness


def assemble_p1(mesh: Mesh) -> ScalarFem:
    """Exact P1 mass and stiffness on a mesh, Dirichlet dofs eliminated."""
    mass, stiffness = _p1_matrices(mesh)
    interior = np.flatnonzero(~mesh.boundary_vertex_mask)
    return ScalarFem(
        mass=mass[np.ix_(interior, interior)].tocsr(),
        stiffness=stiffness[np.ix_(interior, interior)].tocsr(),
        interior=interior,
    )


@dataclass(frozen=True)
class StokesFem:
    """Taylor-Hood blocks, stored per scalar velocity component.

    Velocity dofs are the interior P2 nodes ``interior`` of one component
    (coordinates ``p2_coordinates[interior]``); vector operators are block
    diagonal in the two components, with the scalar blocks on the diagonal.
    ``div_x`` and ``div_y`` couple the pressure vertices other than
    ``PINNED_PRESSURE`` to the two components, so the divergence
    ``[div_x, div_y]`` has full rank.
    """

    scalar_mass: scipy.sparse.csr_matrix
    scalar_stiffness: scipy.sparse.csr_matrix
    div_x: scipy.sparse.csr_matrix
    div_y: scipy.sparse.csr_matrix
    interior: np.ndarray
    p2_coordinates: np.ndarray

    @property
    def velocity_component_dim(self) -> int:
        return self.interior.size

    @property
    def pressure_dim(self) -> int:
        """Pressure dofs after pinning the constant mode."""
        return self.div_x.shape[0]


def _taylor_hood_matrices(mesh: Mesh) -> tuple[scipy.sparse.csr_matrix, ...]:
    """P2 scalar mass and stiffness over all P2 nodes (the mesh vertices
    followed by the edge midpoints), and the divergence components from all
    P2 nodes to all P1 pressure vertices."""
    grads, areas = _barycentric_gradients(mesh)
    t = mesh.triangles
    nv = mesh.num_vertices
    n_p2 = nv + mesh.num_edges
    p2_nodes = np.hstack([t, mesh.triangle_edges + nv])  # (t, 6)

    gram = np.einsum("tic,tjc->tij", grads, grads)
    me = areas[:, None, None] * _MASS6[None, :, :]
    ke = np.einsum("t,klij,tij->tkl", areas, _STIFF6, gram)
    # d/dx phi_k = sum_i d(phi_k)/d(lambda_i) * grad(lambda_i)_x
    de_x = np.einsum("t,pki,ti->tpk", areas, _DIV6, grads[:, :, 0])
    de_y = np.einsum("t,pki,ti->tpk", areas, _DIV6, grads[:, :, 1])

    rows6 = p2_nodes[:, :, None].repeat(6, axis=2).ravel()
    cols6 = p2_nodes[:, None, :].repeat(6, axis=1).ravel()
    mass = _accumulate(rows6, cols6, me.ravel(), (n_p2, n_p2))
    stiffness = _accumulate(rows6, cols6, ke.ravel(), (n_p2, n_p2))

    rows_d = t[:, :, None].repeat(6, axis=2).ravel()
    cols_d = p2_nodes[:, None, :].repeat(3, axis=1).ravel()
    div_x = _accumulate(rows_d, cols_d, de_x.ravel(), (nv, n_p2))
    div_y = _accumulate(rows_d, cols_d, de_y.ravel(), (nv, n_p2))
    return mass, stiffness, div_x, div_y


def assemble_taylor_hood(mesh: Mesh) -> StokesFem:
    """Taylor-Hood assembly: P2 velocity components, P1 pressure.

    Dirichlet elimination keeps the interior P2 nodes (coordinate test,
    exact for dyadic meshes).  The pressure vertex ``PINNED_PRESSURE`` is
    removed to fix the constant mode.
    """
    mass, stiffness, div_x, div_y = _taylor_hood_matrices(mesh)
    on_boundary = np.concatenate(
        [mesh.boundary_vertex_mask, mesh.boundary_edge_midpoint_mask]
    )
    interior = np.flatnonzero(~on_boundary)
    kept = np.delete(np.arange(mesh.num_vertices), PINNED_PRESSURE)
    return StokesFem(
        scalar_mass=mass[np.ix_(interior, interior)].tocsr(),
        scalar_stiffness=stiffness[np.ix_(interior, interior)].tocsr(),
        div_x=div_x[np.ix_(kept, interior)].tocsr(),
        div_y=div_y[np.ix_(kept, interior)].tocsr(),
        interior=interior,
        p2_coordinates=np.vstack([mesh.vertices, mesh.edge_midpoints]),
    )
