"""Skew algebroids over a chart: anchor plus structure functions, the
associated Hamiltonian vector field, Lagrangian-side dynamics, the
Legendre map, and frame changes (including Lie-algebra factors).

Conventions:  anchor(q) is an m x N matrix with dq^i/dt = rho^i_A x^A,
structure(q) is an (N, N, N) array with [f_D, f_B] = c[A][B][D] f_A.
The bracket is antisymmetric but need not satisfy the Jacobi identity,
and no Jacobi check is performed anywhere.

The element contraction (``SkewAlgebroid.scalar_rates``) is plain
Python arithmetic with every sum in a fixed order, so its results do not
depend on a BLAS kernel.  It reads a constant tensor and a map of q the
same way, and leaves out every coefficient that is a plain float zero.
The same code runs on floats and on tracing scalars: ``float_rates``
runs code generated from it once per k, ``dirac.reduced_field`` traces
it into the reduced field and the isotropy check into its pair program.
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
from .numcore import (
    ScalarField,
    dot,
    gauss_solve,
    grad,
    mat_inverse,
    max_abs,
    shape_of,
)
from .tracing import compile_traced, is_traced

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

# Float runs of an admissibility residual at one k before a program is compiled
# for it: a compile costs what a hundred skater or three hundred ball samples
# save, so a short run, such as one CLI call at stride 1, pays for none
RESIDUAL_FLOAT_RUNS = 100


class _Constant:
    """A constant anchor or structure tensor: called at any q it returns
    the same read-only array."""

    def __init__(self, value, shape, what):
        array = np.array(value, dtype=float)
        if array.shape != shape:
            raise DimensionError(f"constant {what} of shape {array.shape}, expected {shape}")
        array.flags.writeable = False
        self.array = array
        self._pinv = {}

    def __call__(self, q):
        return self.array

    def pinv(self, k):
        """Pseudo-inverse rows of the first k columns (an anchor's), and those
        columns' rows, as float (index, value) rows computed once per k."""
        rows = self._pinv.get(k)
        if rows is None:
            columns = self.array[:, :k]
            rows = self._pinv[k] = (_index_rows(np.linalg.pinv(columns)), _index_rows(columns))
        return rows


@dataclass(frozen=True)
class SkewAlgebroid:
    """Anchor and structure-function rules over an m-dimensional chart.

    ``anchor`` and ``structure`` are maps of q, or constant arrays, which
    are stored as maps returning the read-only array.  The contraction
    reads both kinds alike.
    """

    m: int
    rank: int
    anchor: Callable  # q -> array-like (m x rank), or a constant array
    structure: Callable  # q -> ndarray (rank, rank, rank), or a constant array

    def __post_init__(self):
        for what, shape in (("anchor", (self.m, self.rank)), ("structure", (self.rank,) * 3)):
            value = getattr(self, what)
            if not callable(value):
                object.__setattr__(self, what, _Constant(value, shape, what))
        # ("rates", k) -> the compiled contraction; ("admissibility", k) -> the
        # residual program called next, with a path the one compiled for it,
        # and ("float runs", k) -> how many float runs the residual has made
        object.__setattr__(self, "_cache", {})

    def anchor_array(self, q) -> np.ndarray:
        return np.asarray(self.anchor(q), dtype=float)

    def scalar_rates(self, q, eta, x, a, k=None):
        """(qdot, etadot) as lists for the element with velocity x and base
        covector a on the first k sections (all by default), eta holding all
        momenta:

            qdot^i   = rho^i_b x^b,
            etadot_b = w_bd x^d - rho^l_b a_l,  w_bd = c^A_{bd} eta_A,

        each sum left to right over its upper index, without the
        coefficients that are plain float zeros.  This is the one
        transcription of the element formula: it runs on floats and on
        tracing scalars, from which ``float_rates`` and
        ``dirac.reduced_field`` generate code."""
        k = self.rank if k is None else k
        rho = _checked_rows(self.anchor(q), (self.m, self.rank), "anchor")
        c = _checked_rows(self.structure(q), (self.rank,) * 3, "structure")
        # "+ 0.0" makes a zero rate +0.0, as a dot product accumulated from
        # +0.0 gives it; it leaves every other value as it is
        qdot = [dot(_pairs(row[:k]), x) + 0.0 for row in rho]
        etadot = []
        for b in range(k):
            wrow = ((d, _pairs([ca[b][d] for ca in c])) for d in range(k))
            u = dot([(d, dot(coeffs, eta)) for d, coeffs in wrow if coeffs], x)
            etadot.append((u - dot(_pairs([row[b] for row in rho]), a)) + 0.0)
        return qdot, etadot

    def float_rates(self, q, eta, x, a, k=None):
        """``scalar_rates`` at float lists of matching lengths, through its
        program, compiled once per k (``tracing.compile_traced``)."""
        k = self.rank if k is None else k
        m, rank = self.m, self.rank
        program = self._cache.get(("rates", k))
        if program is None:
            bounds = (0, m, m + rank, m + rank + k, 2 * m + rank + k)

            def flat(*xs):
                qdot, etadot = self.scalar_rates(*(xs[i:j] for i, j in zip(bounds, bounds[1:])), k)
                return qdot + etadot

            program = self._cache[("rates", k)] = compile_traced(flat, bounds[-1])
        out = program(*q, *eta, *x, *a)
        return out[:m], out[m:]

    def rates(self, q, eta, x, a, k=None):
        """``float_rates`` at any point of numbers, as two arrays."""
        k = self.rank if k is None else k
        parts = [_coordinates(v) for v in (q, eta, x, a)]
        if [len(v) for v in parts] != [self.m, self.rank, k, self.m]:
            raise DimensionError(
                f"element of lengths {tuple(len(v) for v in parts)} on shape "
                f"({self.m}, {self.rank}) with k={k}"
            )
        qdot, etadot = self.float_rates(*parts, k)
        return np.array(qdot, dtype=float), np.array(etadot, dtype=float)

    def admissibility_residual(self, q, qdot, k) -> float:
        """How far qdot lies off the span of the first k sections: its
        largest coefficient on the other sections when the anchor is square,
        else its largest component off the image of the first k anchor
        columns, through their pseudo-inverse (rows made once per k for a
        constant anchor, per call for a map).  Fixed-order float arithmetic
        apart from the pseudo-inverse itself."""
        program = self._cache.get(("admissibility", k))
        if program is None:
            return max_abs(self._off_span(q, [float(v) for v in qdot], k))
        return max_abs(program(*q, *map(float, qdot)))

    def _off_span(self, q, qdot, k, replay=None) -> list:
        """The components whose largest magnitude is the residual, at tracing
        scalars along the decisions ``replay`` iterates over.  On floats,
        past ``RESIDUAL_FLOAT_RUNS`` at k, it records a square anchor's
        elimination decisions (``solve_in_place``) and makes the program
        traced along them the one called next, which gives up to this float
        run where a guard fails: each pivot order met costs one compile, and
        a map that cannot be traced (numpy's) keeps the float run, which
        stops recording after its first try."""
        runs = self._cache["float runs", k] = self._cache.get(("float runs", k), 0) + 1
        path = replay or ([] if runs > RESIDUAL_FLOAT_RUNS else None)
        if self.m == self.rank:
            out = gauss_solve(self.anchor(q), qdot, path)[k:]
        else:
            if isinstance(self.anchor, _Constant):
                pinv, columns = self.anchor.pinv(k)
            else:
                anchor = self.anchor_array(q)[:, :k]
                pinv, columns = _index_rows(np.linalg.pinv(anchor)), _index_rows(anchor)
            z = [dot(p, qdot) for p in pinv]
            out = [v - dot(row, z) for v, row in zip(qdot, columns)]
        if isinstance(path, list):
            m, taken = self.m, tuple(path)
            if ("admissibility", k, taken) not in self._cache:

                def off_span(*xs):  # traced along ``taken``; on floats the float run
                    replay = iter(taken) if is_traced(xs) else None
                    return self._off_span(xs[:m], list(xs[m:]), k, replay)

                program = self._cache["admissibility", k, taken] = compile_traced(off_span, 2 * m)
                if program is off_span:  # untraceable: from now on float runs that record nothing
                    self._cache["float runs", k] = float("-inf")
                    return out
            self._cache["admissibility", k] = self._cache["admissibility", k, taken]
        return out


def _checked_rows(value, shape, what):
    """The rows of an anchor or structure value, which must have ``shape``.
    Called where the contraction is traced and on its fallback, so
    generated code does not pay for it."""
    found = shape_of(value)
    if found != shape:
        raise DimensionError(f"{what} of shape {found}, expected {shape}")
    return value.tolist() if isinstance(value, np.ndarray) else value


def _index_rows(array) -> list:
    """The rows of a 2-D array as float (index, value) rows, zeros kept."""
    return [tuple(enumerate(row)) for row in array.tolist()]


def _pairs(values) -> tuple:
    """(index, value) pairs without the plain float zeros: such a term is
    +-0 at finite points, and the rates' "+ 0.0" fixes a zero's sign."""
    return tuple((i, v) for i, v in enumerate(values) if not (isinstance(v, float) and v == 0.0))


@dataclass(frozen=True)
class PhaseState:
    """Base point with momentum coordinates, full (N) or reduced (k)."""

    q: tuple
    eta: tuple
    full: bool = True

    def __init__(self, q, eta, full=True):
        self.__dict__.update(q=_coordinates(q), eta=_coordinates(eta), full=bool(full))

    @classmethod
    def of_floats(cls, q: tuple, eta: tuple, full: bool = True) -> "PhaseState":
        """The state of two tuples of floats, taken as they are."""
        state = cls.__new__(cls)
        state.__dict__.update(q=q, eta=eta, full=full)
        return state


@dataclass(frozen=True)
class VelocityState:
    """Base point with fiber velocity coordinates."""

    q: tuple
    x: tuple

    def __init__(self, q, x):
        object.__setattr__(self, "q", _coordinates(q))
        object.__setattr__(self, "x", _coordinates(x))


def _coordinates(value) -> tuple:
    """``value`` as a tuple of floats; a string is not a sequence of numbers."""
    try:
        if not isinstance(value, (str, bytes)):
            return tuple(map(float, value))
    except (TypeError, ValueError):
        pass
    raise DimensionError(f"coordinates must be a sequence of numbers, not {value!r}")


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
