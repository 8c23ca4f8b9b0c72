"""Builtin catalog of constrained systems.

Every entry is a full-fiber Dirac system: the skater variants live on
the tangent bundle of R^2 x S^1 written in the constraint-adapted frame
(fiber rank 3, constraint rank 2), the ball variants on the product of
T R^2 with so(3) written in the rolling-adapted frame (fiber rank 5,
constraint rank 3).  Transverse momenta are recovered by the declared
consistency solution, which build() spot-checks against the consistency
residual on the float dual sweep (``numcore.dual_sweep``), so a build
compiles nothing.

Parameter and state-variable names are a stable public contract:

    skater_*: states x, y, phi, eta1, eta2   (+ transverse eta3)
    ball_*:   states x, y, eta1..eta3        (+ transverse eta4, eta5)
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from . import exprparse, numcore
from .algebroid import PhaseState, SkewAlgebroid, restrict_to_constraint
from .dirac import (
    ConsistencySolution,
    DiracAlgebroid,
    oracle_magnetic,
    oracle_mechanical,
    solve_consistency,
)
from .errors import (
    CatalogError,
    DegenerateParameterError,
    DimensionError,
    UnsupportedError,
    ValidationError,
)
from .frame import FrameField
from .numcore import ScalarField, dual_sweep, max_abs

__all__ = [
    "MetricBlocks",
    "SystemSpec",
    "CATALOG_DEFAULTS",
    "catalog_names",
    "build",
    "hamiltonian_with_potential",
    "skater_frame",
    "ball_transition_matrix",
    "so3_constants",
    "ball_structure_constants",
    "skater_structure_constants",
    "mechanical_lagrangian",
    "oracle_reduced_field",
]


@dataclass(frozen=True)
class MetricBlocks:
    """Metric and momentum-shift data backing the oracle dynamics."""

    mass: float
    g_inv_sub: Callable  # q -> (k, k) rows, inverse of the metric on the constraint
    g_full: Callable     # q -> (N, N) rows, metric on the whole fiber
    potential: ScalarField
    a_par: Callable | None = None   # q -> length-k admissible shift components
    a_perp: Callable | None = None  # q -> length-(N-k) transverse components


@dataclass(frozen=True)
class SystemSpec:
    """A catalog entry: geometry, Hamiltonian, and validation data."""

    name: str
    dirac: DiracAlgebroid
    base_names: tuple
    fiber_names: tuple
    params: Mapping
    hamiltonian: ScalarField
    consistency: ConsistencySolution
    analytic: Callable | None = None
    metric: MetricBlocks | None = None

    @property
    def m(self) -> int:
        return self.dirac.alg.m

    @property
    def n_fiber(self) -> int:
        return self.dirac.alg.rank

    @property
    def k(self) -> int:
        return self.dirac.k

    @property
    def admissible_names(self) -> tuple:
        return self.fiber_names[: self.k]

    @property
    def transverse_names(self) -> tuple:
        return tuple(f"eta_alpha_{i + 1}" for i in range(self.n_fiber - self.k))

    @property
    def reduced_names(self) -> tuple:
        return self.base_names + self.admissible_names


def _zero_potential(base_names) -> ScalarField:
    return ScalarField(base_names, (), lambda *args: 0.0)


def _skew_constants(rank: int, entries: Mapping) -> np.ndarray:
    """Structure constants with c^a_{bd} = v = -c^a_{db} for each
    (a, b, d): v of ``entries`` (1-based indices), and zero elsewhere."""
    c = np.zeros((rank, rank, rank))
    for (a, b, d), v in entries.items():
        c[a - 1, b - 1, d - 1] = v
        c[a - 1, d - 1, b - 1] = -v
    return c


def _diagonal_metric(mass, diagonal, k, potential) -> MetricBlocks:
    """Metric data of the constant metric diag(``diagonal``) on the fiber,
    whose first k sections span the constraint."""
    g_inv, g_full = (np.diag(d).tolist() for d in ([1.0 / v for v in diagonal[:k]], diagonal))
    return MetricBlocks(mass, lambda q: g_inv, lambda q: g_full, potential)


# -- skater geometry -------------------------------------------------------


def skater_frame() -> FrameField:
    """Blade-aligned section, rotation, and the blade normal, in that order."""

    def rho(q):
        phi = q[2]
        c = numcore.cos(phi)
        s = numcore.sin(phi)
        return [[c, 0.0, -s], [s, 0.0, c], [0.0, 1.0, 0.0]]

    return FrameField(n=3, rho=rho)


def skater_structure_constants() -> np.ndarray:
    """Structure functions of ``skater_frame()``, the same at every q; the
    ``structure_skater`` check compares them with the frame formula."""
    return _skew_constants(3, {(3, 1, 2): 1.0, (1, 2, 3): 1.0})


_SKATER_BASE = ("x", "y", "phi")
_SKATER_FIBER = ("eta1", "eta2", "eta3")


def _skater_kinetic(m, k2) -> Callable:
    """T(q, p) = (p1^2 + p2^2 / k2 + p3^2) / 2m, the same at every q: the
    free skater's H, and the charged one's at the shifted momenta."""
    half_over_m = 0.5 / m

    def kinetic(x, y, phi, p1, p2, p3):
        return half_over_m * (p1 * p1 + (p2 * p2) / k2 + p3 * p3)

    return kinetic


def _skater_analytic_free(m, k2):
    def closed_form(ic, t):
        x0c, y0c, phi0, eta1, eta2 = [float(v) for v in ic]
        omega0 = eta2 / (m * k2)
        if omega0 == 0.0:
            raise DegenerateParameterError(
                "closed form needs nonzero initial rotation (eta2 != 0)"
            )
        v0 = eta1 / m
        phase = phi0 + omega0 * t
        x = (v0 / omega0) * (math.sin(phase) - math.sin(phi0)) + x0c
        y = -(v0 / omega0) * (math.cos(phase) - math.cos(phi0)) + y0c
        return np.array([x, y, phase, eta1, eta2])

    return closed_form


def _skater_analytic_slope(m, k2, lam):
    def closed_form(ic, t):
        xi, yi, phi0, eta1_i, eta2 = [float(v) for v in ic]
        omega0 = eta2 / (m * k2)
        if omega0 == 0.0:
            raise DegenerateParameterError(
                "closed form needs nonzero initial rotation (eta2 != 0)"
            )
        # Family constants fitted so the printed parameterization passes
        # through the supplied state at t = 0.
        v0 = (eta1_i + (lam / omega0) * math.sin(phi0)) / m
        x0 = xi - lam / (4 * m * omega0**2) * math.cos(2 * phi0) - (v0 / omega0) * math.sin(phi0)
        y0 = yi - lam / (4 * m * omega0**2) * math.sin(2 * phi0) + (v0 / omega0) * math.cos(phi0)
        phase = phi0 + omega0 * t
        eta1 = -(lam / omega0) * math.sin(phase) + v0 * m
        x = lam / (4 * m * omega0**2) * math.cos(2 * phase) + (v0 / omega0) * math.sin(phase) + x0
        y = (
            -lam / (2 * m * omega0) * t
            + lam / (4 * m * omega0**2) * math.sin(2 * phase)
            - (v0 / omega0) * math.cos(phase)
            + y0
        )
        return np.array([x, y, phase, eta1, eta2])

    return closed_form


def _build_skater_free(p) -> SystemSpec:
    m, k2 = p["m"], p["k2"]
    # the anchor is the frame itself, built from numcore.cos and sin so
    # that it traces
    alg = SkewAlgebroid(m=3, rank=3, anchor=skater_frame().rho, structure=skater_structure_constants())
    return SystemSpec(
        name="skater_free",
        dirac=DiracAlgebroid(alg, k=2),
        base_names=_SKATER_BASE,
        fiber_names=_SKATER_FIBER,
        params=p,
        hamiltonian=ScalarField(_SKATER_BASE, _SKATER_FIBER, _skater_kinetic(m, k2)),
        consistency=ConsistencySolution(kind="zero"),
        analytic=_skater_analytic_free(m, k2),
        metric=_diagonal_metric(m, (1.0, k2, 1.0), 2, _zero_potential(_SKATER_BASE)),
    )


def _build_skater_slope(p) -> SystemSpec:
    m, k2, lam = p["m"], p["k2"], p["lambda"]
    free = replace(_build_skater_free(p), name="skater_slope")
    potential = ScalarField(_SKATER_BASE, (), lambda x, y, phi: lam * x)
    sloped = _with_extra_potential(free, potential)
    return replace(sloped, analytic=_skater_analytic_slope(m, k2, lam))


def _build_skater_charged(p) -> SystemSpec:
    m, k2, b, ec, d = p["m"], p["k2"], p["B"], p["e_c"], p["d"]
    kinetic = _skater_kinetic(m, k2)

    def fn(x, y, phi, e1, e2, e3):
        cp = numcore.cos(phi)
        sp = numcore.sin(phi)
        return kinetic(x, y, phi, e1 - ec * b * x * sp, e2 - ec * b * d * x * cp, e3 - ec * b * x * cp)

    def a_par(q):
        x, phi = q[0], q[2]
        return [ec * b * x * numcore.sin(phi), ec * b * d * x * numcore.cos(phi)]

    def a_perp(q):
        return [ec * b * q[0] * numcore.cos(q[2])]

    return _with_momentum_shift(_build_skater_free(p), "skater_charged", fn, a_par, a_perp)


# -- rolling ball geometry --------------------------------------------------


def so3_constants() -> np.ndarray:
    """Rotation-algebra constants in the bracket convention used here:
    c^a_{bd} is the coefficient of generator a in [l_d, l_b], so that
    [l_1, l_2] = l_3 and cyclically."""
    return _skew_constants(3, {(3, 2, 1): 1.0, (1, 3, 2): 1.0, (2, 1, 3): 1.0})


def ball_transition_matrix(k2: float, radius: float) -> np.ndarray:
    """Columns express the rolling-adapted sections in the product basis
    (d_x, d_y, l_x, l_y, l_z): three spanning the no-slip distribution and
    two metric-orthogonal complements."""
    r = radius
    return np.array(
        [
            [r, 0.0, 0.0, k2, 0.0],
            [0.0, -r, 0.0, 0.0, k2],
            [0.0, 1.0, 0.0, 0.0, r],
            [1.0, 0.0, 0.0, -r, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
        ]
    )


def ball_structure_constants(k2: float, radius: float) -> np.ndarray:
    """Structure functions of the rolling-adapted ball frame.

    Obtained by expanding the rotation-algebra brackets of the sections
    through l_x = (k2 f2 + R f5)/(k2 + R^2), l_y = (k2 f1 - R f4)/(k2 + R^2);
    the ``structure_ball`` check compares them with the frame-change rule.
    """
    r = radius
    s = k2 + r * r
    return _skew_constants(5, {
        (3, 1, 2): 1.0,
        (2, 1, 3): -k2 / s,
        (5, 1, 3): -r / s,
        (1, 2, 3): k2 / s,
        (4, 2, 3): -r / s,
        (3, 1, 5): r,
        (3, 2, 4): r,
        (2, 3, 4): -r * k2 / s,
        (5, 3, 4): -r * r / s,
        (1, 3, 5): -r * k2 / s,
        (4, 3, 5): r * r / s,
        (3, 4, 5): -r * r,
    })


_BALL_BASE = ("x", "y")
_BALL_FIBER = ("eta1", "eta2", "eta3", "eta4", "eta5")


def _ball_kinetic(m, k2, radius) -> Callable:
    """T(q, p), rolling, spin and transverse terms, the same at every q:
    the free ball's H, and the magnetic one's at the shifted momenta."""
    s = k2 + radius * radius
    c_plane = 0.5 / (m * s)
    c_spin = 0.5 / (m * k2)
    c_perp = 0.5 / (m * k2 * s)

    def kinetic(x, y, p1, p2, p3, p4, p5):
        return c_plane * (p1 * p1 + p2 * p2) + c_spin * (p3 * p3) + c_perp * (p4 * p4 + p5 * p5)

    return kinetic


def _ball_analytic_free(m, k2, radius):
    s = k2 + radius * radius

    def closed_form(ic, t):
        x0, y0, e1, e2, e3 = [float(v) for v in ic]
        vx = radius * e1 / (m * s)
        vy = -radius * e2 / (m * s)
        return np.array([x0 + vx * t, y0 + vy * t, e1, e2, e3])

    return closed_form


def _build_ball_free(p) -> SystemSpec:
    m, k2, r = p["m"], p["k2"], p["R"]
    s = k2 + r * r
    # a section's anchor is its (d_x, d_y) part in the product basis
    anchor = ball_transition_matrix(k2, r)[:2].tolist()
    alg = SkewAlgebroid(m=2, rank=5, anchor=anchor, structure=ball_structure_constants(k2, r))
    return SystemSpec(
        name="ball_free",
        dirac=DiracAlgebroid(alg, k=3),
        base_names=_BALL_BASE,
        fiber_names=_BALL_FIBER,
        params=p,
        hamiltonian=ScalarField(_BALL_BASE, _BALL_FIBER, _ball_kinetic(m, k2, r)),
        consistency=ConsistencySolution(kind="zero"),
        analytic=_ball_analytic_free(m, k2, r),
        metric=_diagonal_metric(m, (s, s, k2, k2 * s, k2 * s), 3, _zero_potential(_BALL_BASE)),
    )


def _build_ball_magnetic(p) -> SystemSpec:
    k2, r, b, ec = p["k2"], p["R"], p["B"], p["e_c"]
    kinetic = _ball_kinetic(p["m"], k2, r)

    def fn(x, y, e1, e2, e3, e4, e5):
        return kinetic(x, y, e1, e2 + ec * b * x * r, e3, e4, e5 - ec * b * x * k2)

    def a_par(q):
        return [0.0, -ec * b * q[0] * r, 0.0]

    def a_perp(q):
        return [0.0, ec * b * q[0] * k2]

    return _with_momentum_shift(_build_ball_free(p), "ball_magnetic", fn, a_par, a_perp)


def _build_ball_harmonic(p) -> SystemSpec:
    m, omega = p["m"], p["omega"]
    magnetic = replace(_build_ball_magnetic(p), name="ball_harmonic", params=p)
    coeff = 0.5 * m * (omega * omega)

    def pot_fn(x, y):
        return coeff * (x**2 + y**2)

    potential = ScalarField(_BALL_BASE, (), pot_fn)
    return _with_extra_potential(magnetic, potential)


def _with_momentum_shift(spec: SystemSpec, name: str, fn, a_par, a_perp) -> SystemSpec:
    """``spec`` under ``name`` with Hamiltonian ``fn``, its kinetic energy
    in the momenta shifted by A = (a_par, a_perp): the transverse shift
    a_perp solves the consistency condition, and no closed form is kept."""
    return replace(
        spec,
        name=name,
        hamiltonian=ScalarField(spec.base_names, spec.fiber_names, fn),
        consistency=ConsistencySolution(kind="affine", affine_map=a_perp),
        analytic=None,
        metric=replace(spec.metric, a_par=a_par, a_perp=a_perp),
    )


def _with_extra_potential(spec: SystemSpec, extra: ScalarField) -> SystemSpec:
    """New spec with Hamiltonian H + extra(q); consistency is untouched
    because the extra term carries no momentum dependence."""
    m_dim = spec.m
    base_fn = spec.hamiltonian.fn
    extra_fn = extra.fn

    def fn(*args):
        return base_fn(*args) + extra_fn(*args[:m_dim])

    hamiltonian = ScalarField(spec.base_names, spec.fiber_names, fn)
    metric = spec.metric
    if metric is not None:
        old_pot = metric.potential.fn

        def pot(*qargs):
            return old_pot(*qargs) + extra_fn(*qargs)

        metric = replace(metric, potential=ScalarField(spec.base_names, (), pot))
    return replace(spec, hamiltonian=hamiltonian, metric=metric, analytic=None)


# -- catalog ----------------------------------------------------------------

CATALOG_DEFAULTS = {
    "skater_free": {"m": 1.0, "k2": 1.0},
    "skater_slope": {"m": 1.0, "k2": 1.0, "lambda": 1.0},
    "skater_charged": {"m": 1.0, "k2": 1.0, "B": 1.0, "e_c": 1.0, "d": 0.1},
    "ball_free": {"m": 1.0, "k2": 1.0, "R": 1.0},
    "ball_magnetic": {"m": 1.0, "k2": 1.0, "R": 1.0, "B": 1.0, "e_c": 1.0},
    "ball_harmonic": {"m": 1.0, "k2": 1.0, "R": 1.0, "B": 1.0, "e_c": 1.0, "omega": 1.0},
}

_BUILDERS = {
    "skater_free": _build_skater_free,
    "skater_slope": _build_skater_slope,
    "skater_charged": _build_skater_charged,
    "ball_free": _build_ball_free,
    "ball_magnetic": _build_ball_magnetic,
    "ball_harmonic": _build_ball_harmonic,
}


def catalog_names() -> tuple:
    return tuple(sorted(_BUILDERS))


def build(name: str, overrides: Mapping | None = None) -> SystemSpec:
    """Assemble a catalog system, applying parameter overrides, then
    spot-check the declared consistency solution on random states.  An
    override must be a finite number, and ``m`` and ``k2`` positive."""
    if name not in _BUILDERS:
        raise CatalogError(f"unknown system {name!r}; available: {', '.join(catalog_names())}")
    if overrides is not None and not isinstance(overrides, Mapping):
        raise CatalogError(f"overrides of system {name!r} must be a mapping, got {overrides!r}")
    params = dict(CATALOG_DEFAULTS[name])
    for key, value in (overrides or {}).items():
        if key not in params:
            raise CatalogError(f"system {name!r} has no parameter {key!r}")
        try:
            value = float(value)
        except (TypeError, ValueError):
            pass  # not a number: rejected below, with its repr
        positive = key in ("m", "k2")  # the Hamiltonians and metrics divide by these
        if not isinstance(value, float) or not math.isfinite(value) or (positive and value <= 0.0):
            need = "positive and finite" if positive else "finite"
            raise DegenerateParameterError(
                f"parameter {key!r} of system {name!r} must be {need}, got {value!r}"
            )
        params[key] = value
    spec = _BUILDERS[name](params)
    _spot_check_consistency(spec)
    return spec


def _spot_check_consistency(spec: SystemSpec, samples: int = 10):
    if spec.consistency.kind == "newton":
        raise ValidationError("catalog systems declare a closed-form consistency solution")
    h = spec.hamiltonian
    rng = np.random.default_rng(20240917)
    for _ in range(samples):  # drawn as floats, which solve_consistency converts fastest
        q = rng.uniform(-1.5, 1.5, spec.m).tolist()
        eta_a = rng.uniform(-2.0, 2.0, spec.k).tolist()
        eta_alpha = solve_consistency(spec.dirac, h, q, eta_a, solution=spec.consistency)
        # the float sweep, not grad: a compiled program would outlive the check unread
        _, g = dual_sweep(h, q + eta_a + eta_alpha.tolist())
        res = max_abs(g[spec.m + spec.k :])
        if res > 1e-12 * (1.0 + max_abs(g)):
            raise ValidationError(
                f"declared consistency solution of {spec.name!r} violates the "
                f"consistency condition (residual {res:.3e})"
            )


def hamiltonian_with_potential(spec: SystemSpec, extra: exprparse.ExprNode) -> SystemSpec:
    """Add a position-only potential term to the Hamiltonian.

    Momentum dependence is rejected since it would invalidate the
    declared consistency solution.
    """
    if not isinstance(extra, exprparse.ExprNode):
        raise ValidationError(f"potential must be a parsed expression, got {extra!r}")
    names = exprparse.free_variables(extra)
    bad = names - set(spec.base_names)
    if bad:
        raise ValidationError(
            f"potential may only use base coordinates {spec.base_names}, "
            f"found {sorted(bad)}"
        )
    base_names = spec.base_names

    def extra_fn(*qargs):
        return exprparse.eval_expr(extra, dict(zip(base_names, qargs)))

    return _with_extra_potential(spec, ScalarField(base_names, (), extra_fn))


# -- oracle wiring ----------------------------------------------------------


def mechanical_lagrangian(spec: SystemSpec) -> ScalarField:
    """Full-fiber Lagrangian (m/2) g_AB x^A x^B - V(q) from the metric data."""
    metric = spec.metric
    if metric is None or metric.a_par is not None:
        raise UnsupportedError(f"system {spec.name!r} is not mechanical")
    mass = metric.mass
    n = spec.n_fiber
    m_dim = spec.m
    g_full = metric.g_full
    pot = metric.potential.fn

    def fn(*args):
        q = args[:m_dim]
        x = args[m_dim:]
        rows = g_full(list(q))
        quad = 0.0
        for a in range(n):
            row = rows[a]
            for b in range(n):
                coeff = row[b]
                if not hasattr(coeff, "partials") and float(coeff) == 0.0:
                    continue
                quad = quad + coeff * x[a] * x[b]
        return 0.5 * mass * quad - pot(*q)

    x_names = tuple(f"x{i + 1}" for i in range(n))
    return ScalarField(spec.base_names, x_names, fn)


def oracle_reduced_field(spec: SystemSpec, rs: PhaseState):
    """Dispatch to the metric-form or momentum-shift oracle dynamics."""
    metric = spec.metric
    if metric is None:
        raise UnsupportedError(f"system {spec.name!r} carries no metric data")
    # a full state is the oracles' to reject, with their own message
    if not rs.full and (len(rs.q) != spec.m or len(rs.eta) != spec.k):
        raise DimensionError(f"reduced state {len(rs.q), len(rs.eta)} on shape {spec.m, spec.k}")
    if metric.a_par is None:
        restricted = restrict_to_constraint(spec.dirac.alg, spec.k)
        return oracle_mechanical(metric.mass, metric.g_inv_sub, metric.potential, restricted, rs)
    alg, k = spec.dirac.alg, spec.k
    return oracle_magnetic(
        metric.mass,
        metric.g_inv_sub,
        metric.a_par,
        metric.a_perp,
        metric.potential,
        anchor_adm=lambda q: alg.anchor_array(q)[:, :k],
        structure_constrained=lambda q: alg.structure(q)[:, :k, :k],
        rs=rs,
    )
