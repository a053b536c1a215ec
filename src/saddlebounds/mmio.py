"""Matrix Market import/export and system bundles.

Single matrices go through the standard exchange format (coordinate variant
for sparse input, array variant for dense) with enough decimal digits that
reading a file the package wrote reproduces the values bit-exactly.  A
matrix is written in the field of its dtype: real blocks, such as the mass
and inner-product blocks of the model problems, as real fields, and only
complex blocks as complex fields.

A *bundle* is a directory holding one file per block of a saddle-point
system plus its inner product, tied together by a small JSON manifest with
the dimensions and the file-to-block mapping.  Bundle blocks are written in
the coordinate variant, so zero entries (the whole of a vanishing ``C``)
take no space; bundles written in the array variant load the same way.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse

from .saddle import InnerProduct, SaddleSystem

__all__ = [
    "save_matrix",
    "load_matrix",
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


def load_matrix(path, dense: bool = True):
    """Read a Matrix Market file; coordinate data is densified by default."""
    matrix = scipy.io.mmread(str(path))
    if dense and scipy.sparse.issparse(matrix):
        matrix = matrix.toarray()
    return np.asarray(matrix) if dense else matrix


def save_bundle(directory, sys: SaddleSystem, ip: InnerProduct) -> None:
    """Write system and inner-product blocks plus the manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blocks = {
        "A": sys.a,
        "B": sys.b,
        "C": sys.c,
        "P": ip.p,
        "R": ip.r,
    }
    files = {}
    for name, block in blocks.items():
        filename = f"{name}.mtx"
        save_matrix(directory / filename, scipy.sparse.coo_array(block))
        files[name] = filename
    manifest = {
        "format": "saddlebounds-bundle",
        "version": 1,
        "n": sys.n,
        "m": sys.m,
        "files": files,
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")


def load_bundle(directory) -> tuple[SaddleSystem, InnerProduct]:
    """Read a bundle directory back into (system, inner product)."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != "saddlebounds-bundle":
        raise ValueError(f"{manifest_path} is not a saddlebounds bundle manifest")
    files = manifest["files"]
    blocks = {name: load_matrix(directory / fname) for name, fname in files.items()}
    sys = SaddleSystem(a=blocks["A"], b=blocks["B"], c=blocks.get("C"))
    ip = InnerProduct(p=blocks["P"], r=blocks["R"])
    if sys.n != int(manifest["n"]) or sys.m != int(manifest["m"]):
        raise ValueError(
            f"manifest dimensions ({manifest['n']}, {manifest['m']}) do not match "
            f"block dimensions ({sys.n}, {sys.m})"
        )
    return sys, ip
