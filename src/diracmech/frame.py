"""Constraint-adapted frames on a coordinate chart.

A frame field is an invertible matrix-valued map q -> rho(q) whose
column j holds the coefficients of the frame section f_j in the
coordinate basis.  Structure functions follow the convention

    [f_k, f_j] = c^i_{jk} f_i,

stored as c[i][j][k]; every downstream module cites this layout.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError
from .numcore import mat_inverse, partials_of, seed_duals, value_of

__all__ = [
    "FrameField",
    "frame_matrix",
    "structure_functions_tangent",
    "eval_matrix_with_partials",
    "frame_change_structure",
]


@dataclass(frozen=True)
class FrameField:
    """Base dimension and the frame-entry map.

    ``rho(q)`` must return an n x n nested sequence (rows) and accept
    DualScalar coordinates, since structure functions differentiate the
    entries.
    """

    n: int
    rho: Callable


def _check_point(fr: FrameField, q):
    if len(q) != fr.n:
        raise DimensionError(f"point of length {len(q)} on a chart of dimension {fr.n}")


def frame_matrix(fr: FrameField, q) -> np.ndarray:
    """Evaluate rho(q) as a read-only array; columns are the frame sections."""
    _check_point(fr, q)
    rows = fr.rho([float(v) for v in q])
    try:
        entries = [[value_of(e) for e in row] for row in rows]
    except TypeError as exc:  # a row that does not iterate
        raise DimensionError("frame map needs a 2-d layout, got a non-sequence row") from exc
    rho = np.array(entries, dtype=float)
    if rho.ndim != 2:
        raise DimensionError(f"frame map needs a 2-d layout, got shape {rho.shape}")
    rho.flags.writeable = False
    return rho


def eval_matrix_with_partials(entry_map: Callable, q, shape):
    """Evaluate a matrix-valued map at q through dual coordinates.

    Returns (values, partials) with values[r, c] the entries and
    partials[r, c, l] their derivatives along coordinate l.
    """
    duals = seed_duals(q)
    rows = entry_map(duals)
    nrows = len(rows)
    ncols = len(rows[0])
    if (nrows, ncols) != shape:
        raise DimensionError(f"matrix map returned {nrows}x{ncols}, expected {shape}")
    m = len(q)
    values = np.empty((nrows, ncols))
    partials = np.empty((nrows, ncols, m))
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            values[r, c] = value_of(entry)
            partials[r, c, :] = partials_of(entry, m)
    return values, partials


def frame_change_structure(t_inv, anchor_new, t_partials, base_c=None, t_vals=None):
    """Structure functions induced by a frame change f'_B = T^E_B f_E.

    ``t_partials[E, B, l]`` holds the coordinate derivatives of T, and
    ``anchor_new`` the anchor of the new frame (old anchor times T), so
    the derivative term differentiates T along the new sections.  With a
    trivial base structure this is the coordinate formula for structure
    functions of a tangent-bundle frame.
    """
    deriv = np.einsum("ag,ld,gbl->abd", t_inv, anchor_new, t_partials)
    out = deriv - deriv.swapaxes(1, 2)
    if base_c is not None:
        rotated = np.einsum("ag,gef,eb,fd->abd", t_inv, base_c, t_vals, t_vals)
        out = out + (rotated - rotated.swapaxes(1, 2)) / 2.0
    return out


def structure_functions_tangent(fr: FrameField, q) -> np.ndarray:
    """Structure functions c[i][j][k] of the frame under the Lie bracket of
    vector fields, from entry partials and the frame inverse; read-only,
    antisymmetric in (j, k)."""
    _check_point(fr, q)
    values, partials = eval_matrix_with_partials(fr.rho, [float(v) for v in q], (fr.n, fr.n))
    c = frame_change_structure(mat_inverse(values), values, partials)
    c.flags.writeable = False
    return c


def identity_frame(n: int) -> FrameField:
    """Coordinate-basis frame."""
    rows = np.eye(n).tolist()
    return FrameField(n=n, rho=lambda q: rows)
