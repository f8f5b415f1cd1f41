"""Bridge from matrix operator equations to the diagonal sequence model.

An observed vector y = T x + noise is mapped to sequence-space data
z_j = <y, u_j> / s_j through the SVD T = U diag(s) V^T; keeping the first
D coefficients and mapping back, x_hat = sum_{j<=D} z_j v_j, is the
spectral cut-off reconstruction.  Singular vectors carry a deterministic
sign (first nonzero component of each right vector positive) so that
serialized models compare across runs.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .problem import ValidationError, _level

__all__ = [
    "OperatorModel",
    "decompose",
    "to_sequence",
    "reconstruct",
    "make_integration_operator",
    "load_matrix_csv",
    "save_matrix_csv",
    "load_matrix_bin",
    "save_matrix_bin",
]

_RANK_RTOL = 1e-12
_RECON_RTOL = 1e-10
_MAGIC = b"MSEQ1"


@dataclass(frozen=True, eq=False)
class OperatorModel:
    """SVD of an m-by-n matrix truncated at numerical rank r."""

    matrix: np.ndarray
    left: np.ndarray            # m x r columns u_j
    singular_values: np.ndarray  # length r, decreasing
    right: np.ndarray           # n x r columns v_j
    rank: int

    @property
    def kernel_dim(self) -> int:
        """Dimension of the discarded kernel (matrix columns minus rank)."""
        return self.matrix.shape[1] - self.rank


def decompose(matrix) -> OperatorModel:
    """SVD with decreasing singular values, rank cut at 1e-12 * s_1, and the
    deterministic sign convention."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValidationError("matrix must be 2-d and non-empty")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")

    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise ValidationError("matrix is identically zero")
    rank = int(np.sum(s > _RANK_RTOL * s[0]))
    u, s, v = u[:, :rank], s[:rank], vt[:rank].T

    # sign convention: first component of each right vector above noise
    # level is made positive; the paired left vector flips with it
    above = (v > 1e-12) | (v < -1e-12)
    first, cols = above.argmax(axis=0), np.arange(rank)
    flip = above[first, cols] & (v[first, cols] < 0.0)
    np.negative(v, out=v, where=flip)
    np.negative(u, out=u, where=flip)

    # the check runs on T/2^e with max|T|/2^e in [1/2, 1), where no norm
    # overflows; that scaling is exact short of subnormals, so T decides
    e = int(np.frexp(max(m.max(), -m.min()))[1])
    fit = (u * np.ldexp(s, -e)) @ v.T  # first: at most two n x n temporaries live
    scaled = np.ldexp(m, -e)
    norm = np.linalg.norm(scaled)
    residual = np.linalg.norm(np.subtract(scaled, fit, out=fit))
    if residual > _RECON_RTOL * norm:
        with np.errstate(over="ignore"):  # in T's units, inf where that overflows
            residual, bound = np.ldexp([residual, _RECON_RTOL * norm], e).tolist()
        raise ValidationError(
            f"SVD reconstruction residual {residual!r} exceeds "
            f"{_RECON_RTOL} * ||T|| = {bound!r}")

    for arr in (u, s, v):
        arr.flags.writeable = False
    frozen = np.array(m, copy=True)
    frozen.flags.writeable = False
    return OperatorModel(frozen, u, s, v, rank)


def to_sequence(y, model: OperatorModel) -> np.ndarray:
    """Map ambient data to sequence coefficients z_j = <y, u_j> / s_j, as a
    read-only array."""
    yv = np.asarray(y, dtype=np.float64)
    if yv.shape != (model.matrix.shape[0],):
        raise ValidationError(
            f"data length {yv.shape} does not match operator rows "
            f"{model.matrix.shape[0]}")
    if model.rank < 1:
        raise ValidationError("operator has rank 0; nothing to invert")
    if not np.isfinite(yv).all():
        raise ValidationError("observations must be finite")
    with np.errstate(over="ignore"):  # an infinite z_j is rejected below
        z = (model.left.T @ yv) / model.singular_values
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        j = int(bad[0]) + 1
        raise ValidationError(
            f"observations must be finite: <y, u_{j}>/s_{j} overflows "
            f"(s_{j} = {float(model.singular_values[j - 1])!r})")
    z.flags.writeable = False
    return z


def reconstruct(y, model: OperatorModel, D: int) -> np.ndarray:
    """Spectral cut-off solution x_hat = sum_{j<=D} (<y,u_j>/s_j) v_j."""
    D = _level(D, model.rank)
    z = to_sequence(y, model)
    return model.right[:, :D] @ z[:D]


def make_integration_operator(n: int) -> np.ndarray:
    """Midpoint discretization of integration from 0 to t on a grid of n
    cells: lower-triangular with entries 1/n on and below the diagonal.
    Its singular values decay like 1/j."""
    if n < 2:
        raise ValidationError(f"integration operator needs n >= 2, got {n!r}")
    return np.tril(np.ones((n, n))) / float(n)


def load_matrix_csv(path: str) -> np.ndarray:
    """Dense row-major CSV matrix (one row per line)."""
    try:
        with warnings.catch_warnings():  # an empty matrix is rejected later
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            m = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read matrix CSV {path}: {exc}") from exc
    return m


def save_matrix_csv(matrix, path: str) -> None:
    m = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="ascii") as fh:
        for row in np.atleast_2d(m):
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")


def load_matrix_bin(path: str) -> np.ndarray:
    """Binary matrix: magic 'MSEQ1', u32 rows, u32 cols (little endian),
    then float64 entries in row-major order."""
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != _MAGIC:
            raise ValidationError(
                f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise ValidationError(f"{path}: truncated header")
        rows, cols = struct.unpack("<II", header)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if 8 * rows * cols > left:
            raise ValidationError(f"{path}: truncated payload: {rows} x {cols} "
                                  f"entries claimed, {left} bytes follow")
        payload = fh.read(8 * rows * cols)
        data = np.frombuffer(payload, dtype="<f8")
    return data.reshape(rows, cols).astype(np.float64)


def save_matrix_bin(matrix, path: str) -> None:
    m = np.ascontiguousarray(np.atleast_2d(np.asarray(matrix, dtype=np.float64)))
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", m.shape[0], m.shape[1]))
        fh.write(m.astype("<f8").tobytes(order="C"))
