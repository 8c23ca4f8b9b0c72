"""Skew algebroids over a chart: anchor plus structure functions, the
associated Hamiltonian vector field, Lagrangian-side dynamics, the
Legendre map, and frame changes (including Lie-algebra factors).

Conventions:  anchor(q) is an m x N matrix with dq^i/dt = rho^i_A x^A,
structure(q) is an (N, N, N) array with [f_D, f_B] = c[A][B][D] f_A.
The bracket is antisymmetric but need not satisfy the Jacobi identity,
and no Jacobi check is performed anywhere.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, ValidationError
from .frame import (
    FrameField,
    eval_matrix_with_partials,
    frame_change_structure,
    frame_matrix,
    structure_functions_tangent,
)
from .numcore import ScalarField, grad, mat_inverse

__all__ = [
    "SkewAlgebroid",
    "PhaseState",
    "VelocityState",
    "from_tangent_frame",
    "product_with_lie_algebra",
    "change_frame",
    "restrict_to_constraint",
    "hamiltonian_vector_field",
    "lagrangian_dynamics",
    "legendre_map",
]


@dataclass(frozen=True)
class SkewAlgebroid:
    """Anchor and structure-function rules over an m-dimensional chart."""

    m: int
    rank: int
    anchor: Callable  # q -> array-like (m x rank)
    structure: Callable  # q -> ndarray (rank, rank, rank)

    def anchor_array(self, q) -> np.ndarray:
        return np.asarray(self.anchor(q), dtype=float)

    def rates(self, q, eta, x, a, k=None):
        """(qdot, etadot) of the element with velocity x and base covector a
        on the first k sections (all by default), eta holding all momenta:
        qdot^i = rho^i_b x^b,  etadot_b = c^A_{bd} eta_A x^d - rho^l_b a_l."""
        k = self.rank if k is None else k
        rho = self.anchor_array(q)[:, :k]
        c = self.structure(q)[:, :k, :k].reshape(self.rank, k * k)
        return rho @ x, (eta @ c).reshape(k, k) @ x - rho.T @ a


@dataclass(frozen=True)
class PhaseState:
    """Base point with momentum coordinates, full (N) or reduced (k)."""

    q: tuple
    eta: tuple
    full: bool = True

    def __init__(self, q, eta, full=True):
        object.__setattr__(self, "q", tuple(float(v) for v in q))
        object.__setattr__(self, "eta", tuple(float(v) for v in eta))
        object.__setattr__(self, "full", bool(full))


@dataclass(frozen=True)
class VelocityState:
    """Base point with fiber velocity coordinates."""

    q: tuple
    x: tuple

    def __init__(self, q, x):
        object.__setattr__(self, "q", tuple(float(v) for v in q))
        object.__setattr__(self, "x", tuple(float(v) for v in x))


def _check_full_state(alg: SkewAlgebroid, s: PhaseState):
    if not s.full:
        raise DimensionError("full phase state required")
    if len(s.q) != alg.m or len(s.eta) != alg.rank:
        raise DimensionError(
            f"state ({len(s.q)}, {len(s.eta)}) on an algebroid of shape ({alg.m}, {alg.rank})"
        )


def from_tangent_frame(fr: FrameField) -> SkewAlgebroid:
    """The tangent-bundle algebroid written in the given frame."""
    return SkewAlgebroid(
        m=fr.n,
        rank=fr.n,
        anchor=lambda q: frame_matrix(fr, q),
        structure=lambda q: structure_functions_tangent(fr, q),
    )


def product_with_lie_algebra(fr_base: FrameField, dim_g: int, lie_constants) -> SkewAlgebroid:
    """Product of the base tangent algebroid with a Lie algebra.

    The anchor projects on the base factor; base sections and constant
    Lie-algebra sections commute, so the structure is block diagonal.
    """
    lie = np.asarray(lie_constants, dtype=float)
    if lie.shape != (dim_g, dim_g, dim_g):
        raise DimensionError(f"lie constants of shape {lie.shape}, expected {(dim_g,) * 3}")
    if not np.array_equal(lie, -lie.swapaxes(1, 2)):
        raise ValidationError("lie constants must be antisymmetric in the lower pair")
    m = fr_base.n
    rank = m + dim_g

    def anchor(q):
        a = np.zeros((m, rank))
        a[:, :m] = frame_matrix(fr_base, q)
        return a

    def structure(q):
        c = np.zeros((rank, rank, rank))
        c[:m, :m, :m] = structure_functions_tangent(fr_base, q)
        c[m:, m:, m:] = lie
        return c

    return SkewAlgebroid(m=m, rank=rank, anchor=anchor, structure=structure)


def change_frame(alg: SkewAlgebroid, t_map: Callable) -> SkewAlgebroid:
    """Rewrite the algebroid in the frame f'_B = T^E_B f_E.

    The new anchor is rho T; the new structure combines the rotated old
    brackets with derivatives of T taken along the new sections (through
    the anchor), which reduces to the tangent-frame formula when the
    original algebroid is the coordinate tangent bundle.
    """
    rank = alg.rank

    def anchor(q):
        t_vals, _ = eval_matrix_with_partials(t_map, [float(v) for v in q], (rank, rank))
        return alg.anchor_array(q) @ t_vals

    def structure(q):
        qf = [float(v) for v in q]
        t_vals, t_part = eval_matrix_with_partials(t_map, qf, (rank, rank))
        t_inv = mat_inverse(t_vals)
        anchor_new = alg.anchor_array(qf) @ t_vals
        return frame_change_structure(
            t_inv, anchor_new, t_part, base_c=alg.structure(qf), t_vals=t_vals
        )

    return SkewAlgebroid(m=alg.m, rank=rank, anchor=anchor, structure=structure)


def restrict_to_constraint(alg: SkewAlgebroid, k: int) -> SkewAlgebroid:
    """Project onto the span of the first k sections.

    For a frame adapted orthogonally to a constraint distribution this is
    the induced skew algebroid on the constraint: anchor columns and all
    three structure indices are truncated to the admissible range.
    """
    if not 1 <= k <= alg.rank:
        raise DimensionError(f"constraint rank {k} outside 1..{alg.rank}")
    return SkewAlgebroid(
        m=alg.m,
        rank=k,
        anchor=lambda q: alg.anchor_array(q)[:, :k],
        structure=lambda q: np.array(alg.structure(q)[:k, :k, :k]),
    )


def hamiltonian_vector_field(alg: SkewAlgebroid, h: ScalarField, s: PhaseState):
    """Phase velocities (qdot, etadot) of the Hamiltonian vector field

        qdot^j   = rho^j_A dH/deta_A
        etadot_B = c^D_{BE} eta_D dH/deta_E - rho^i_B dH/dq^i
    """
    _check_full_state(alg, s)
    g = grad(h, s.q + s.eta)
    return alg.rates(s.q, np.asarray(s.eta), g[alg.m :], g[: alg.m])


def lagrangian_dynamics(alg: SkewAlgebroid, lagr: ScalarField, vs: VelocityState):
    """Momenta and phase velocities generated by a Lagrangian:

        eta_A    = dL/dx^A
        qdot^i   = rho^i_A x^A
        etadot_B = c^D_{BE} (dL/dx^D) x^E + rho^i_B dL/dq^i
    """
    if len(vs.q) != alg.m or len(vs.x) != alg.rank:
        raise DimensionError(
            f"velocity state ({len(vs.q)}, {len(vs.x)}) on shape ({alg.m}, {alg.rank})"
        )
    g = grad(lagr, vs.q + vs.x)
    gx = g[alg.m :]
    qdot, etadot = alg.rates(vs.q, gx, np.asarray(vs.x), -g[: alg.m])
    return gx, qdot, etadot


def legendre_map(lagr: ScalarField, vs: VelocityState) -> PhaseState:
    """Fiber derivative of the Lagrangian: eta_A = dL/dx^A, base unchanged."""
    nq = len(vs.q)
    g = grad(lagr, vs.q + vs.x)
    return PhaseState(q=vs.q, eta=g[nq:], full=True)
