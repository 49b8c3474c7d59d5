"""Reference values for the benchmark, computed with numpy alone.

Nothing here imports the package under test.  Orthonormal bases come from
QR; cosines come from singular values, the cosine/sine method of Bjorck &
Golub (1973) and Knyazev & Argentati (SIAM J. Sci. Comput., 2002):

- Grassmann cosine of V with W: product of the singular values of Q_W* Q_V,
  and 0 when dim V > dim W.
- Complementary cosine: product of the singular values of (I - Q_W Q_W*) Q_V,
  the principal sines.
- Oriented cosine: det(Q_V* Q_W) times the phases of det R_V and det R_W,
  since <V, W> = conj(det R_V) det(Q_V* Q_W) det R_W for V = Q_V R_V.

The expected answers of the bundled documents are written out as exact
numbers, not read from the package's gallery.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# The package's own pass threshold (Tolerance.residual_eps).
TOLERANCE = 1e-8

SQRT_HALF = math.sqrt(0.5)
COS_THIRD = math.sqrt(3.0) / 3.0

# Exact values of `grassmann-angles ... --json` on the bundled documents.
CLI_EXPECTED = {
    # line against plane in R^4: 45 degrees
    "angle": {"cos": SQRT_HALF, "value_radians": math.pi / 4},
    # complex planes sharing a line: the complementary angle is 90 degrees
    "angle-complementary": {"cos": 0.0, "value_radians": math.pi / 2},
    # complex planes: cos = sqrt(3)/3
    "angle-any-dim": {"cos": COS_THIRD, "value_radians": math.acos(COS_THIRD)},
    # principal cosines of the complex planes: the shared line, then sqrt(3)/3
    "principal": {"cosines": [1.0, COS_THIRD]},
}

# Expected value of every check of `examples`, per case, in output order.
EXAMPLES_EXPECTED = {
    "3.2": [COS_THIRD, COS_THIRD],
    "3.5": [45.0, 90.0],
    "3.8": [45.0, 45.0, 45.0, 1.0, SQRT_HALF],
    "3.9": [0.0, 0.0],
    "4.2": [1.0],
    "4.6": [COS_THIRD, COS_THIRD, COS_THIRD, 1.0],
    "4.8": [2.0],
    "4.9": [2.0],
}


def orthonormal(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR of a full-rank column basis."""
    return np.linalg.qr(np.asarray(basis), mode="reduced")


def grassmann_cos(basis_v, basis_w) -> float:
    qv, _ = orthonormal(basis_v)
    qw, _ = orthonormal(basis_w)
    if qv.shape[1] > qw.shape[1]:
        return 0.0
    return float(np.prod(np.linalg.svd(qw.conj().T @ qv, compute_uv=False)))


def complementary_cos(basis_v, basis_w) -> float:
    qv, _ = orthonormal(basis_v)
    qw, _ = orthonormal(basis_w)
    residual = qv - qw @ (qw.conj().T @ qv)
    return float(np.prod(np.linalg.svd(residual, compute_uv=False)))


def oriented_cos(basis_v, basis_w) -> complex | float:
    qv, rv = orthonormal(basis_v)
    qw, rw = orthonormal(basis_w)
    dv, dw = np.linalg.det(rv), np.linalg.det(rw)
    value = np.conj(dv / abs(dv)) * (dw / abs(dw)) * np.linalg.det(qv.conj().T @ qw)
    return complex(value) if np.iscomplexobj(value) else float(value)


def principal_cosines(basis_v, basis_w) -> list[float]:
    qv, _ = orthonormal(basis_v)
    qw, _ = orthonormal(basis_w)
    s = np.linalg.svd(qw.conj().T @ qv, compute_uv=False)
    return [float(x) for x in np.clip(s, 0.0, 1.0)]


def load_bases(path: Path) -> dict[str, np.ndarray]:
    """Column bases of a JSON document; an entry is a number or [re, im]."""
    doc = json.loads(Path(path).read_text())
    dtype = np.complex128 if doc["field"] == "complex" else np.float64
    bases = {}
    for name, vectors in doc["subspaces"].items():
        rows = [[complex(*x) if isinstance(x, list) else x for x in vec] for vec in vectors]
        bases[name] = np.array(rows, dtype=dtype).T
    return bases
