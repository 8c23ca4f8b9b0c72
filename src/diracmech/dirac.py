"""The constraint-induced Dirac algebroid and its reduced dynamics.

Fiber indices split into admissible (first k) and transverse (rest).
Membership of an element in the structure fixes

    y^alpha = 0,
    qdot^i  = rho^i_b y^b,
    etadot_b = c^A_{bd} eta_A y^d - rho^l_b a_l        (b admissible),

with etadot_alpha free.  ``make_element`` checks its parameters for one
element core, and ``pairing`` and ``pairing_scale`` share one loop; the
isotropy check compiles the two (``element_pairing``) into one program
per system.  Contracting with dH yields the consistency condition
dH/deta_alpha = 0 plus the reduced phase equations

    qdot^i   = rho^i_a dH/deta_a
    etadot_b = c^a_{bd} eta_a dH/deta_d + c^alpha_{bd} eta_alpha dH/deta_d
               - rho^l_b dH/dq^l,

where eta_alpha is reconstructed pointwise from the consistency
condition rather than integrated.  The shape of this field is fixed by
the algebroid and the consistency solution, whatever H is: one
function of the state (``_transverse``, the one transcription of the
consistency map, then ``_field_outputs``) that ``reduced_field`` traces
once per system into one float program, called flat as ``field(*y,
*guess)``, and ``evaluate_reduced`` runs on floats.  Every sum runs in a
fixed order, so the output does not depend on the BLAS kernel.  Two
independent transcriptions of the classical constrained dynamics
(mechanical metric form and magnetic almost-Poisson form) live here as
oracles for cross-validation.
"""

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebroid import PhaseState, SkewAlgebroid
from .errors import (
    DegenerateHamiltonianError,
    DimensionError,
    SingularMatrixError,
    ValidationError,
)
from .frame import eval_matrix_with_partials
from .numcore import (
    ScalarField,
    grad,
    grad_and_hessian_rows,
    newton_iterate,
    partials_of,
    seed_duals,
    shape_of,
    solve_in_place,
    value_and_grad,
)
from .tracing import compile_traced, is_traced

__all__ = [
    "DiracAlgebroid",
    "DiracElement",
    "ConsistencySolution",
    "make_element",
    "pairing",
    "pairing_scale",
    "element_pairing",
    "consistency_residual",
    "solve_consistency",
    "complete_state",
    "evaluate_reduced",
    "reduced_field",
    "reduced_vector_field",
    "oracle_mechanical",
    "oracle_magnetic",
]


@dataclass(frozen=True)
class DiracAlgebroid:
    """A skew algebroid with its fiber indices split at rank k."""

    alg: SkewAlgebroid
    k: int

    def __post_init__(self):
        if type(self.k) is bool or not isinstance(self.k, numbers.Integral):
            raise ValidationError(f"constraint rank must be an integer, got {self.k!r}")
        if not 1 <= self.k <= self.alg.rank:
            raise ValidationError(f"constraint rank {self.k} outside 1..{self.alg.rank}")

    @property
    def transverse(self) -> int:
        return self.alg.rank - self.k


@dataclass(frozen=True)
class DiracElement:
    """One element of the structure over a full phase-space point."""

    base: PhaseState
    cov_base: tuple      # a_j
    cov_fiber: tuple     # y^B, transverse part zero
    vec_base: tuple      # qdot^i
    vec_fiber: tuple     # etadot_B


@dataclass(frozen=True)
class ConsistencySolution:
    """How the transverse momenta are recovered on the effective phase
    space: identically zero (mechanical), an affine shift eta_alpha =
    A_alpha(q) (magnetic), or a Newton solve (generic)."""

    kind: str  # "zero" | "affine" | "newton"
    affine_map: Callable | None = None  # q -> ndarray of length N - k

    def __post_init__(self):
        if self.kind not in ("zero", "affine", "newton"):
            raise ValidationError(f"unknown consistency kind {self.kind!r}")
        if self.kind == "affine" and not callable(self.affine_map):
            raise ValidationError("affine consistency needs a map")


NEWTON_CONSISTENCY = ConsistencySolution(kind="newton")


def make_element(dirac: DiracAlgebroid, s: PhaseState, a, xb, etadot_alpha) -> DiracElement:
    """Assemble the element with parameters (a_j, x^b, etadot_alpha)."""
    alg, k, nt = dirac.alg, dirac.k, dirac.transverse
    if not s.full or len(s.q) != alg.m or len(s.eta) != alg.rank:
        raise DimensionError("full phase state of matching shape required")
    a = _float_list(a, alg.m, "covector of length {} on base of dimension {n}")
    xb = _float_list(xb, k, "admissible velocity of length {}, expected {n}")
    etadot_alpha = _float_list(etadot_alpha, nt, "transverse rates of length {}, expected {n}")
    return _element(dirac, s.q, s.eta, a, xb, etadot_alpha, s)


def _element(dirac: DiracAlgebroid, q, eta, a, xb, etadot_alpha, base=None) -> DiracElement:
    """``make_element`` over (q, eta) unchecked, from ``alg.scalar_rates``:
    the one assembly of an element, on floats and on tracing scalars."""
    qdot, etadot = dirac.alg.scalar_rates(q, eta, xb, a, dirac.k)
    cov_fiber = (*xb, *(0.0,) * dirac.transverse)
    return DiracElement(base, tuple(a), cov_fiber, tuple(qdot), (*etadot, *etadot_alpha))


def _float_list(value, n: int, message: str):
    """``value`` as a list of n floats, or DimensionError(message formatted
    with its shape and n)."""
    shape = shape_of(value)
    message = message.format(shape, n=n)
    if shape != (n,):
        raise DimensionError(message)
    try:
        return [float(v) for v in value]
    except (TypeError, ValueError) as err:
        raise DimensionError(f"{message}: {err}") from err


def _pairing_sums(e1: DiracElement, e2: DiracElement) -> tuple:
    """(pairing, pairing_scale) from one loop in the pairing's one order,
    cov1 . vec2 over the base, then the fiber, then cov2 . vec1: each
    product and its absolute value added left to right from 0.0, not by
    ``sum()``, which is compensated from Python 3.12."""
    total = scale = 0.0
    covs = e1.cov_base + e1.cov_fiber + e2.cov_base + e2.cov_fiber
    for a, v in zip(covs, e2.vec_base + e2.vec_fiber + e1.vec_base + e1.vec_fiber):
        total += a * v
        scale += abs(a * v)
    return total, scale


def pairing(e1: DiracElement, e2: DiracElement) -> float:
    """Symmetric pairing <cov1, vec2> + <cov2, vec1>; zero on the structure."""
    if e1.base != e2.base:
        raise ValidationError("pairing requires elements over the same base point")
    return float(_pairing_sums(e1, e2)[0])


def pairing_scale(e1: DiracElement, e2: DiracElement) -> float:
    """Sum of absolute pairing terms, added as ``pairing`` adds them."""
    return float(_pairing_sums(e1, e2)[1])


def element_pairing(dirac: DiracAlgebroid, q, eta, *params) -> tuple:
    """(pairing, pairing_scale) of the elements over (q, eta) with the
    parameters (a, xb, etadot_alpha) ``params[:3]`` and ``params[3:]``,
    unchecked, on floats or tracing scalars: ``check_isotropy`` compiles it."""
    return _pairing_sums(_element(dirac, q, eta, *params[:3]), _element(dirac, q, eta, *params[3:]))


def consistency_residual(dirac: DiracAlgebroid, h: ScalarField, s: PhaseState) -> np.ndarray:
    """dH/deta_alpha at a full state; zero exactly on the effective space."""
    if not s.full:
        raise DimensionError("full phase state required")
    g = grad(h, s.q + s.eta)
    return g[dirac.alg.m + dirac.k :]


def solve_consistency(
    dirac: DiracAlgebroid,
    h: ScalarField,
    q,
    eta_a,
    guess=None,
    solution: ConsistencySolution = NEWTON_CONSISTENCY,
) -> np.ndarray:
    """Transverse momenta solving dH/deta_alpha = 0 at (q, eta_a).

    Declared closed forms are used directly; otherwise Newton runs from
    ``guess`` with the transverse Hessian block of H as Jacobian.
    """
    q, eta_a = _float_reduced(dirac, q, eta_a)
    return np.array(_transverse(dirac, h, q, eta_a, guess, solution), dtype=float)


def _transverse(dirac, h, q, eta_a, guess, solution) -> list:
    """The transverse momenta eta_alpha at (q, eta_a) as a list: the one
    transcription of the consistency kinds, on floats and on tracing
    scalars."""
    nt = dirac.transverse
    if nt == 0 or solution.kind == "zero":
        return [0.0] * nt
    if solution.kind == "affine":
        out = solution.affine_map(list(q))
        shape = shape_of(out)
        if shape != (nt,):
            raise DimensionError(f"affine map returned {shape}, expected {(nt,)}")
        for j, v in enumerate(out):
            if hasattr(v, "__len__"):  # one number each
                raise DimensionError(f"affine map returned {v!r} as entry {j}, expected a number")
        return list(out)
    return _newton_transverse(dirac, h, q, eta_a, guess)


def _newton_transverse(dirac, h, q, eta_a, guess) -> list:
    """Newton's solution of dH/deta_alpha = 0 from ``guess``, as a list.
    Each iterate runs H's nested-dual sweep over the transverse momenta
    once (``grad_and_hessian_rows``, which on floats compiles nothing):
    its first partials are the residual, and the step's elimination
    consumes its block rows.  The rows at the solution are eliminated once
    more, to check that the block is nonsingular there.  At tracing
    scalars ``newton_iterate`` records the loop, sweep included, once; a
    block that is not constant cannot be traced there unless it is 1 x 1."""
    m, k, nt = dirac.alg.m, dirac.k, dirac.transverse
    head = [*q, *eta_a]
    alpha_idx = tuple(range(m + k, m + k + nt))
    jac = None

    def residual_map(eta_alpha):
        nonlocal jac
        res, jac = grad_and_hessian_rows(h, head + eta_alpha, alpha_idx)
        return res, jac

    length = shape_of(guess)[:1]  # a non-sequence is newton_iterate's to reject
    if length and length[0] != nt:
        raise DimensionError(f"guess of length {length[0]}, expected {nt}")
    try:
        sol = newton_iterate(residual_map, [0.0] * nt if guess is None else guess)
        # enforce the nondegeneracy precondition even when the start already
        # solves the condition (a flat transverse block means the condition
        # does not select a unique momentum); the last rows are at ``sol``
        solve_in_place(jac, [])
    except SingularMatrixError as err:
        raise DegenerateHamiltonianError(
            "transverse Hessian block is singular; the dynamics does not project "
            "onto an effective phase space"
        ) from err
    return sol


def _float_reduced(dirac: DiracAlgebroid, q, eta_a) -> tuple:
    """(q, eta_a) checked against the shape of ``dirac``, as two float lists."""
    m, k = dirac.alg.m, dirac.k
    try:
        if len(q) != m or len(eta_a) != k:
            raise DimensionError(f"reduced state {len(q), len(eta_a)} on shape {m, k}")
        return [float(v) for v in q], [float(v) for v in eta_a]
    except (TypeError, ValueError) as err:
        message = f"reduced state must be sequences of numbers, not {q!r}, {eta_a!r}"
        raise DimensionError(message) from err


def complete_state(
    dirac: DiracAlgebroid,
    h: ScalarField,
    rs: PhaseState,
    guess=None,
    solution: ConsistencySolution = NEWTON_CONSISTENCY,
):
    """Reduced state -> (full PhaseState, eta_alpha)."""
    if rs.full:
        raise DimensionError("reduced phase state required")
    eta_alpha = solve_consistency(dirac, h, rs.q, rs.eta, guess=guess, solution=solution)
    return PhaseState(q=rs.q, eta=rs.eta + tuple(eta_alpha), full=True), eta_alpha


def _field_outputs(dirac: DiracAlgebroid, h: ScalarField, q, eta_a, eta_alpha) -> list:
    """The reduced field at a completed state, flat: qdot, etadot_a,
    eta_alpha, H, grad_H.  The element contraction is the algebroid's
    ``scalar_rates`` on tracing scalars, its compiled ``float_rates`` on
    floats."""
    alg, m, k = dirac.alg, dirac.alg.m, dirac.k
    eta = [*eta_a, *eta_alpha]
    value, g = value_and_grad(h, [*q, *eta])
    rates = alg.scalar_rates if is_traced(eta_a) else alg.float_rates
    qdot, etadot = rates(q, eta, g[m : m + k], g[:m], k)
    return [*qdot, *etadot, *eta_alpha, value, *g]


def evaluate_reduced(
    dirac: DiracAlgebroid,
    h: ScalarField,
    q,
    eta_a,
    guess=None,
    solution: ConsistencySolution = NEWTON_CONSISTENCY,
):
    """The reduced field at (q, eta_a) as ``(eta_alpha, grad_H, qdot,
    etadot_a)``: eta_alpha solves the consistency condition (Newton from
    ``guess`` unless a closed form is declared), and grad_H is taken at
    the completed state.  This is the field that ``reduced_field``
    compiles, run on floats."""
    q, eta_a = _float_reduced(dirac, q, eta_a)
    m, k, nt = dirac.alg.m, dirac.k, dirac.transverse
    eta_alpha = _transverse(dirac, h, q, eta_a, guess, solution)
    out = _field_outputs(dirac, h, q, eta_a, eta_alpha)
    n = m + k
    return (
        np.array(out[n : n + nt], dtype=float),
        np.array(out[n + nt + 1 :], dtype=float),
        np.array(out[:m], dtype=float),
        np.array(out[m:n], dtype=float),
    )


def reduced_field(
    dirac: DiracAlgebroid,
    h: ScalarField,
    solution: ConsistencySolution = NEWTON_CONSISTENCY,
) -> Callable:
    """The reduced field of (dirac, h, solution) compiled to straight-line
    float code, called flat as ``field(*y, *guess)``: the n = m + k floats
    of the reduced state (q, eta_a), then the nt of Newton's start, which
    the closed consistency forms read not at all.  It returns one flat
    tuple, equal to ``evaluate_reduced``: qdot, etadot_a (together the
    derivative of y, ``[:n]``), eta_alpha ``[n:n + nt]``, H ``[n + nt]``
    and grad_H ``[n + nt + 1:]``; ``field(*y, *guess, True)`` may return
    the first n + nt alone, and does not give up where only the rest fail.

    One tape holds the consistency solve, the dual sweep of H and the
    element contraction.  ``zero`` is constants and ``affine`` its traced
    map.  ``newton`` is the Newton loop recorded once
    (``numcore.newton_iterate`` at tracing scalars): H's transverse sweep,
    its test and one step, which the code leaves at the first iterate that
    converged, as the loop returns it, and whose sweep at that iterate the
    rest of the field reads (what only H reads runs once, after the loop).
    Where the code gives up, and for a system that cannot be traced, the
    program runs the same field on floats, in full: for ``newton`` the
    float loop, then H's compiled gradient and the compiled contraction
    (``tracing.compile_traced``).  It is compiled on the first call for a
    (dirac, solution) pair and cached on ``h`` by the solution's kind and
    map: equal solutions share one program, and the map is never hashed.
    """
    # the cached program holds dirac and solution, so their ids stay theirs
    key = (id(dirac), solution.kind, id(solution.affine_map))
    field = h._programs.get(key)
    if field is None:
        field = h._programs[key] = _compile_field(dirac, h, solution)
    return field


def _compile_field(dirac, h, solution) -> Callable:
    m, n, nt = dirac.alg.m, dirac.alg.m + dirac.k, dirac.transverse

    def field(*xs):  # the program's trailing flag is not read
        q, eta_a = xs[:m], xs[m:n]
        return _field_outputs(dirac, h, q, eta_a, _transverse(dirac, h, q, eta_a, xs[n : n + nt], solution))

    return compile_traced(field, n + nt, lead=n + nt)


def reduced_vector_field(
    dirac: DiracAlgebroid,
    h: ScalarField,
    rs: PhaseState,
    guess=None,
    solution: ConsistencySolution = NEWTON_CONSISTENCY,
):
    """The explicit dynamics on the effective phase space, (qdot, etadot_a).

    Transverse momenta come from ``solve_consistency``; the transverse
    structure term c^alpha_{bd} eta_alpha dH/deta_d always uses the
    solved values, which is exactly what distinguishes a magnetic system
    from a mechanical one.
    """
    if rs.full:
        raise DimensionError("reduced phase state required")
    return evaluate_reduced(dirac, h, rs.q, rs.eta, guess=guess, solution=solution)[2:]


def oracle_mechanical(
    mass: float,
    g_inv_sub: Callable,
    potential: ScalarField,
    alg_c: SkewAlgebroid,
    rs: PhaseState,
):
    """Metric form of the constrained dynamics, transcribed term by term:

        qdot^i   = (1/m) rho^i_a g^{ab} eta_b
        etadot_b = (1/m) c^a_{bd} eta_a g^{de} eta_e
                   - rho^i_b ( (1/2m) dg^{ae}/dq^i eta_a eta_e + dV/dq^i )

    ``alg_c`` is the algebroid already restricted to the constraint, and
    ``g_inv_sub(q)`` the inverse metric block on it.
    """
    if rs.full:
        raise DimensionError("reduced phase state required")
    q = [float(v) for v in rs.q]
    eta = np.asarray(rs.eta)
    k = alg_c.rank
    ginv_vals, ginv_part = eval_matrix_with_partials(g_inv_sub, q, (k, k))
    rho = alg_c.anchor_array(q)
    c = alg_c.structure(q)
    gv = grad(potential, q)
    qdot = rho @ (ginv_vals @ eta) / mass
    quad = np.einsum("ael,a,e->l", ginv_part, eta, eta)
    etadot = (
        np.einsum("abd,a,de,e->b", c, eta, ginv_vals, eta) / mass
        - rho.T @ (quad / (2.0 * mass) + gv)
    )
    return qdot, etadot


def oracle_magnetic(
    mass: float,
    g_inv_sub: Callable,
    a_par: Callable,
    a_perp: Callable,
    potential: ScalarField,
    anchor_adm: Callable,
    structure_constrained: Callable,
    rs: PhaseState,
):
    """Almost-Poisson form of the dynamics for a momentum-shift Hamiltonian:

        H_C(q, eta_a) = (1/2m) g^{ab} (eta_a - A_a)(eta_b - A_b) + V(q)
        qdot^i   = rho^i_b dH_C/deta_b
        etadot_b = c^a_{bd} eta_a dH_C/deta_d + c^alpha_{bd} A_alpha dH_C/deta_d
                   - rho^l_b dH_C/dq^l

    ``structure_constrained(q)`` must provide c[A][b][d] with the full
    fiber range upstairs and admissible indices downstairs; the
    transverse bracket coefficients enter through the shift A_alpha.
    """
    if rs.full:
        raise DimensionError("reduced phase state required")
    q = [float(v) for v in rs.q]
    eta = np.asarray(rs.eta)
    k = eta.shape[0]
    m_dim = len(q)

    duals = seed_duals(list(q) + list(rs.eta))
    qd, etad = duals[:m_dim], duals[m_dim:]
    g_rows = g_inv_sub(qd)
    a_rows = a_par(qd)
    kinetic = 0.0
    for a_i in range(k):
        shift_a = etad[a_i] - a_rows[a_i]
        for b_i in range(k):
            coeff = g_rows[a_i][b_i]
            if not hasattr(coeff, "partials") and float(coeff) == 0.0:
                continue
            kinetic = kinetic + coeff * shift_a * (etad[b_i] - a_rows[b_i])
    hc = kinetic / (2.0 * mass) + potential.fn(*qd)
    n_active = m_dim + k
    ghc = np.array(partials_of(hc, n_active), dtype=float)
    gq, geta = ghc[:m_dim], ghc[m_dim:]

    rho = np.asarray(anchor_adm(q), dtype=float)
    c = np.asarray(structure_constrained(q), dtype=float)
    shift = np.asarray(a_perp(q), dtype=float)
    eta_ext = np.concatenate([eta, shift])
    qdot = rho @ geta
    etadot = np.einsum("abd,a,d->b", c, eta_ext, geta) - rho.T @ gq
    return qdot, etadot
