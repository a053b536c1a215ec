"""Criss-cross triangulations of the unit square with uniform refinement.

The level-0 mesh is the unit square cut by both diagonals: four triangles
around the center vertex.  A refinement step quadrisects every triangle via
its edge midpoints, so level ``l`` has mesh size ``h = 2^{-l}``,
``4^{l+1}`` triangles and ``(2^l + 1)^2 + 4^l`` vertices.

All vertex coordinates are dyadic rationals, hence exact in double
precision; boundary detection by coordinate comparison is therefore exact.
Vertex indices of a mesh are preserved by refinement (the coarse vertices
are a prefix of the fine ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Mesh", "build_mesh", "check_level", "MAX_LEVEL"]

#: Levels above this are rejected: dense verification and the experiments
#: in this package are desk scale by design.
MAX_LEVEL = 6


@dataclass(frozen=True)
class Mesh:
    """Triangulation: vertex coordinates, triangle vertex triples, level."""

    vertices: np.ndarray
    triangles: np.ndarray
    level: int

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def _edge_data(self) -> tuple[np.ndarray, np.ndarray]:
        t = self.triangles
        pairs = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [0, 2]]])
        pairs.sort(axis=1)
        edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
        return edges, inverse.reshape(3, self.num_triangles).T

    @property
    def edges(self) -> np.ndarray:
        """Unique edges as sorted vertex pairs, lexicographically ordered."""
        return self._edge_data[0]

    @property
    def triangle_edges(self) -> np.ndarray:
        """Edge indices per triangle, local order (01, 12, 02)."""
        return self._edge_data[1]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def edge_midpoints(self) -> np.ndarray:
        return 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])

    @cached_property
    def boundary_vertex_mask(self) -> np.ndarray:
        return _on_boundary(self.vertices)

    @cached_property
    def boundary_edge_midpoint_mask(self) -> np.ndarray:
        return _on_boundary(self.edge_midpoints)

    def refine(self) -> "Mesh":
        """Quadrisect every triangle via edge midpoints."""
        check_level(self.level + 1)
        nv = self.num_vertices
        new_vertices = np.vstack([self.vertices, self.edge_midpoints])
        te = self.triangle_edges + nv  # midpoint node per triangle edge
        t = self.triangles
        m01, m12, m02 = te[:, 0], te[:, 1], te[:, 2]
        children = np.vstack(
            [
                np.column_stack([t[:, 0], m01, m02]),
                np.column_stack([m01, t[:, 1], m12]),
                np.column_stack([m02, m12, t[:, 2]]),
                np.column_stack([m01, m12, m02]),
            ]
        )
        return Mesh(vertices=new_vertices, triangles=children, level=self.level + 1)

    def to_text(self) -> str:
        """Plain-text listing: vertex coordinates then triangle index triples."""
        lines = [f"# criss-cross mesh level {self.level}",
                 f"vertices {self.num_vertices}"]
        lines += [f"{x!r} {y!r}" for x, y in self.vertices]
        lines.append(f"triangles {self.num_triangles}")
        lines += [f"{a} {b} {c}" for a, b, c in self.triangles]
        return "\n".join(lines) + "\n"


def _on_boundary(points: np.ndarray) -> np.ndarray:
    x, y = points[:, 0], points[:, 1]
    return (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)


def check_level(level: int) -> None:
    """Raise ``ValueError`` unless ``0 <= level <= MAX_LEVEL``."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level > MAX_LEVEL:
        raise ValueError(
            f"level {level} exceeds the desk-scale guard ({MAX_LEVEL})"
        )


def build_mesh(level: int) -> Mesh:
    """Criss-cross mesh of the unit square after ``level`` uniform refinements."""
    check_level(level)
    vertices = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
    )
    triangles = np.array(
        [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]], dtype=np.int64
    )
    mesh = Mesh(vertices=vertices, triangles=triangles, level=0)
    for _ in range(level):
        mesh = mesh.refine()
    return mesh
