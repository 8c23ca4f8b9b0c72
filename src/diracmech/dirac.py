"""The constraint-induced Dirac algebroid and its reduced dynamics.

Fiber indices split into admissible (first k) and transverse (rest).
Membership of an element in the structure fixes

    y^alpha = 0,
    qdot^i  = rho^i_b y^b,
    etadot_b = c^A_{bd} eta_A y^d - rho^l_b a_l        (b admissible),

with etadot_alpha free.  Contracting with dH yields the consistency
condition dH/deta_alpha = 0 plus the reduced phase equations

    qdot^i   = rho^i_a dH/deta_a
    etadot_b = c^a_{bd} eta_a dH/deta_d + c^alpha_{bd} eta_alpha dH/deta_d
               - rho^l_b dH/dq^l,

where eta_alpha is reconstructed pointwise from the consistency
condition rather than integrated.  Two independent transcriptions of the
classical constrained dynamics (mechanical metric form and magnetic
almost-Poisson form) live here as oracles for cross-validation.
"""

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
    hessian_block,
    mat_inverse,
    newton_solve,
    partials_of,
    seed_duals,
)

__all__ = [
    "DiracAlgebroid",
    "DiracElement",
    "ConsistencySolution",
    "make_element",
    "pairing",
    "pairing_scale",
    "consistency_residual",
    "solve_consistency",
    "complete_state",
    "evaluate_reduced",
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

    def __init__(self, base, cov_base, cov_fiber, vec_base, vec_fiber):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "cov_base", tuple(float(v) for v in cov_base))
        object.__setattr__(self, "cov_fiber", tuple(float(v) for v in cov_fiber))
        object.__setattr__(self, "vec_base", tuple(float(v) for v in vec_base))
        object.__setattr__(self, "vec_fiber", tuple(float(v) for v in vec_fiber))


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
        if self.kind == "affine" and self.affine_map is None:
            raise ValidationError("affine consistency needs a map")


NEWTON_CONSISTENCY = ConsistencySolution(kind="newton")


def make_element(dirac: DiracAlgebroid, s: PhaseState, a, xb, etadot_alpha) -> DiracElement:
    """Assemble the element with parameters (a_j, x^b, etadot_alpha)."""
    alg, k = dirac.alg, dirac.k
    if not s.full or len(s.q) != alg.m or len(s.eta) != alg.rank:
        raise DimensionError("full phase state of matching shape required")
    a = np.asarray(a, dtype=float)
    xb = np.asarray(xb, dtype=float)
    etadot_alpha = np.asarray(etadot_alpha, dtype=float)
    if a.shape != (alg.m,):
        raise DimensionError(f"covector of length {a.shape} on base of dimension {alg.m}")
    if xb.shape != (k,):
        raise DimensionError(f"admissible velocity of length {xb.shape}, expected {k}")
    if etadot_alpha.shape != (dirac.transverse,):
        raise DimensionError(
            f"transverse rates of length {etadot_alpha.shape}, expected {dirac.transverse}"
        )
    qdot, etadot_adm = alg.rates(s.q, np.asarray(s.eta), xb, a, k)
    return DiracElement(
        base=s,
        cov_base=a,
        cov_fiber=np.concatenate([xb, np.zeros(dirac.transverse)]),
        vec_base=qdot,
        vec_fiber=np.concatenate([etadot_adm, etadot_alpha]),
    )


def _pairing_terms(e1: DiracElement, e2: DiracElement):
    for cov, vec in ((e1, e2), (e2, e1)):
        for a, qd in zip(cov.cov_base, vec.vec_base):
            yield a * qd
        for y, ed in zip(cov.cov_fiber, vec.vec_fiber):
            yield y * ed


def pairing(e1: DiracElement, e2: DiracElement) -> float:
    """Symmetric pairing <cov1, vec2> + <cov2, vec1>; zero on the structure."""
    if e1.base != e2.base:
        raise ValidationError("pairing requires elements over the same base point")
    return float(sum(_pairing_terms(e1, e2)))


def pairing_scale(e1: DiracElement, e2: DiracElement) -> float:
    """Sum of absolute pairing terms, the natural cancellation scale."""
    return float(sum(abs(t) for t in _pairing_terms(e1, e2)))


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
    nt = dirac.transverse
    if nt == 0:
        return np.zeros(0)
    if solution.kind == "zero":
        return np.zeros(nt)
    if solution.kind == "affine":
        out = np.asarray(solution.affine_map([float(v) for v in q]), dtype=float)
        if out.shape != (nt,):
            raise DimensionError(f"affine map returned {out.shape}, expected {(nt,)}")
        return out
    m, k = dirac.alg.m, dirac.k
    q = [float(v) for v in q]
    eta_a = [float(v) for v in eta_a]
    alpha_idx = list(range(m + k, m + k + nt))
    if guess is None:
        guess = np.zeros(nt)
    jac = None

    def residual_map(eta_alpha):
        nonlocal jac
        p = q + eta_a + list(eta_alpha)
        res = grad(h, p)[m + k :]
        jac = hessian_block(h, p, alpha_idx)
        return res, jac

    try:
        sol = newton_solve(residual_map, guess)
        # enforce the nondegeneracy precondition even when the start already
        # solves the condition (a flat transverse block means the condition
        # does not select a unique momentum); the last Jacobian is at ``sol``
        mat_inverse(jac)
    except SingularMatrixError as err:
        raise DegenerateHamiltonianError(
            "transverse Hessian block is singular; the dynamics does not project "
            "onto an effective phase space"
        ) from err
    return sol


def _check_reduced(dirac: DiracAlgebroid, q, eta_a):
    if len(q) != dirac.alg.m or len(eta_a) != dirac.k:
        raise DimensionError(
            f"reduced state ({len(q)}, {len(eta_a)}) on shape "
            f"({dirac.alg.m}, {dirac.k})"
        )


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
    _check_reduced(dirac, rs.q, rs.eta)
    eta_alpha = solve_consistency(dirac, h, rs.q, rs.eta, guess=guess, solution=solution)
    full = PhaseState(q=rs.q, eta=rs.eta + tuple(eta_alpha), full=True)
    return full, eta_alpha


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
    the completed state."""
    _check_reduced(dirac, q, eta_a)
    m, k = dirac.alg.m, dirac.k
    eta_alpha = solve_consistency(dirac, h, q, eta_a, guess=guess, solution=solution)
    eta = np.concatenate([eta_a, eta_alpha])
    g = grad(h, (*q, *eta))
    qdot, etadot = dirac.alg.rates(q, eta, g[m : m + k], g[:m], k)
    return eta_alpha, g, qdot, etadot


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
    _, _, qdot, etadot = evaluate_reduced(dirac, h, rs.q, rs.eta, guess=guess, solution=solution)
    return qdot, etadot


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
            if _is_zero_const(coeff):
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


def _is_zero_const(x):
    return not hasattr(x, "partials") and float(x) == 0.0
