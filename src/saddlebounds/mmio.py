"""Matrix Market import/export and system bundles.

Single matrices go through the standard exchange format (coordinate variant
for sparse input, array variant for dense) with enough decimal digits that
reading a file the package wrote reproduces the values bit-exactly.  A
matrix is written in the field of its dtype: real blocks, such as the mass
and inner-product blocks of the model problems, as real fields, and only
complex blocks as complex fields.

A *bundle* is a directory holding one file per block of a saddle-point
system plus its inner product, tied together by a small JSON manifest with
the dimensions and the file-to-block mapping; a bundle written with
``c=None`` has no C file.  Bundle blocks, dense or sparse, are written as
stored in the coordinate variant: zero entries take no space, and a sparse
block is never densified but keeps its explicit zeros, entry order and
dtype.  :func:`load_bundle` passes ``A``, ``B`` and ``C`` as
:func:`scipy.io.mmread` returns them to ``SaddleSystem``, which refuses a
system above ``DENSE_LIMIT`` or a block of the wrong shape before densifying
it, and returns ``P`` and ``R`` as read, for ``saddle.reduce_system``;
array-variant bundles load the same way.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse

from .saddle import SaddleSystem

__all__ = [
    "save_matrix",
    "save_bundle",
    "load_bundle",
    "MANIFEST_NAME",
]

MANIFEST_NAME = "manifest.json"

# 17 significant decimal digits guarantee exact round-trip of binary64.
_PRECISION = 17


def save_matrix(path, matrix) -> None:
    """Write a dense array or sparse matrix in Matrix Market format."""
    matrix = np.asarray(matrix) if not scipy.sparse.issparse(matrix) else matrix
    field = "complex" if np.iscomplexobj(matrix) else "real"
    scipy.io.mmwrite(str(path), matrix, field=field, precision=_PRECISION)


def save_bundle(directory, a, b, c, p, r) -> None:
    """Write the blocks of ``[[A, B*], [B, -C]]`` and of its inner product
    ``diag(P, R)``, dense or sparse, plus the manifest; no C file for ``c=None``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blocks = {name: block for name, block in zip("ABCPR", (a, b, c, p, r)) if block is not None}
    files = {name: f"{name}.mtx" for name in blocks}
    for name, block in blocks.items():
        save_matrix(directory / files[name], scipy.sparse.coo_array(block))
    manifest = {
        "format": "saddlebounds-bundle",
        "version": 1,
        "n": a.shape[0],
        "m": b.shape[0],
        "files": files,
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")


def load_bundle(directory) -> tuple:
    """Read a bundle directory back into ``(system, P, R)``, with ``P`` and
    ``R`` as :func:`scipy.io.mmread` returns them.  A manifest that names a
    file for any block but A, B, C, P and R, or a name that is not a plain
    file name in ``directory``, is refused before any file is read, and a
    system above ``DENSE_LIMIT`` before any block is dense."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    manifest = json.loads(manifest_path.read_text())
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not (
        isinstance(files, dict)
        and manifest.get("format") == "saddlebounds-bundle"
        and all(type(manifest.get(key)) is int for key in ("n", "m"))
        and {"A", "B", "P", "R"} <= files.keys() <= set("ABCPR")
        and all(
            isinstance(name, str) and name not in ("", ".", "..")
            and Path(name).name == name
            for name in files.values()
        )
    ):
        raise ValueError(
            f"{manifest_path} is not a saddlebounds bundle manifest: integers 'n' "
            "and 'm', and 'files' naming the files of A, B, P, R and optionally C, "
            "and of no other block, by plain file names in the bundle directory"
        )
    blocks = {name: scipy.io.mmread(str(directory / fname)) for name, fname in files.items()}
    sys = SaddleSystem(a=blocks["A"], b=blocks["B"], c=blocks.get("C"))
    if (sys.n, sys.m) != (manifest["n"], manifest["m"]):
        raise ValueError(
            f"manifest dimensions ({manifest['n']}, {manifest['m']}) do not match "
            f"block dimensions ({sys.n}, {sys.m})"
        )
    return sys, blocks["P"], blocks["R"]
