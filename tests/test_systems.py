import math
import sys

import numpy as np
import pytest

from dataclasses import replace

from diracmech import numcore, tracing
from diracmech.algebroid import PhaseState, change_frame, product_with_lie_algebra
from diracmech.dirac import ConsistencySolution, reduced_vector_field
from diracmech.errors import (
    CatalogError,
    DegenerateParameterError,
    DimensionError,
    NumericDomainError,
    UnsupportedError,
    ValidationError,
)
from diracmech.exprparse import parse_text
from diracmech.frame import identity_frame, structure_functions_tangent
from diracmech.numcore import ScalarField
from diracmech.systems import (
    ball_transition_matrix,
    build,
    catalog_names,
    hamiltonian_with_potential,
    mechanical_lagrangian,
    oracle_reduced_field,
    skater_frame,
    so3_constants,
    _spot_check_consistency,
)


def reduced(q, eta):
    return PhaseState(q=q, eta=eta, full=False)


def field_at(spec, rs):
    return reduced_vector_field(spec.dirac, spec.hamiltonian, rs, solution=spec.consistency)


# -- build ---------------------------------------------------------------------


def test_catalog_contents():
    assert set(catalog_names()) == {
        "skater_free", "skater_slope", "skater_charged",
        "ball_free", "ball_magnetic", "ball_harmonic",
    }


def test_build_skater_free_shape():
    spec = build("skater_free")
    assert (spec.m, spec.n_fiber, spec.k) == (3, 3, 2)
    assert spec.reduced_names == ("x", "y", "phi", "eta1", "eta2")
    assert spec.transverse_names == ("eta_alpha_1",)
    assert spec.hamiltonian.arity == spec.m + spec.n_fiber


def test_build_parameter_override_scales_hamiltonian():
    base = build("ball_magnetic")
    doubled = build("ball_magnetic", {"B": 2.0})
    p = (0.7, 0.2, 0.5, -0.3, 0.1, 0.0, 0.4)
    # the shift enters as eta2 + e_c B x R and eta5 - e_c B x k2
    x, e2, e5 = p[0], p[3], p[6]
    s = 2.0
    want = (
        0.25 * (p[2] ** 2 + (e2 + 2.0 * x) ** 2)
        + 0.5 * p[4] ** 2
        + 0.25 * (p[5] ** 2 + (e5 - 2.0 * x) ** 2)
    )
    assert abs(doubled.hamiltonian(*p) - want) <= 1e-15
    assert base.hamiltonian(*p) != doubled.hamiltonian(*p)


def test_build_unknown_name_and_param():
    with pytest.raises(CatalogError):
        build("nosuch")
    with pytest.raises(CatalogError):
        build("skater_free", {"R": 2.0})


@pytest.mark.parametrize(
    "name, overrides, param",
    [
        ("skater_free", {"k2": 0.0}, "k2"),
        ("ball_free", {"k2": -1.0, "R": -1.0}, "k2"),
        ("ball_free", {"m": math.inf}, "m"),
        ("skater_slope", {"m": -1.0}, "m"),
        ("skater_charged", {"B": math.nan}, "B"),
        ("ball_harmonic", {"omega": -math.inf}, "omega"),
        ("skater_free", {"m": "abc"}, "m"),
        ("skater_free", {"m": None}, "m"),
    ],
)
def test_build_rejects_degenerate_overrides(name, overrides, param):
    with pytest.raises(DegenerateParameterError, match=f"parameter '{param}' of system '{name}'"):
        build(name, overrides)


@pytest.mark.parametrize("name", ["skater_free", "skater_slope", "skater_charged"])
def test_engine_skater_structure_is_the_frame_formula(name):
    # the constants the engine runs on, against the tangent-frame formula
    alg = build(name).dirac.alg
    for phi in (0.0, 0.4, -2.2, math.pi / 2, 3.0):
        q = (0.5, -0.1, phi)
        assert np.max(np.abs(alg.structure(q) - structure_functions_tangent(skater_frame(), q))) <= 1e-14


@pytest.mark.parametrize("name", ["ball_free", "ball_magnetic", "ball_harmonic"])
def test_engine_ball_structure_is_the_frame_change(name):
    # anchor and constants the engine runs on, against the product of T R^2
    # with so(3) rotated into the rolling-adapted frame, off the defaults
    k2, radius = 0.4, 2.0
    alg = build(name, {"k2": k2, "R": radius}).dirac.alg
    rows = ball_transition_matrix(k2, radius).tolist()
    want = change_frame(product_with_lie_algebra(identity_frame(2), 3, so3_constants()), lambda q: rows)
    q = [0.3, -0.7]
    assert np.max(np.abs(alg.anchor_array(q) - want.anchor_array(q))) <= 1e-15
    assert np.max(np.abs(alg.structure(q) - want.structure(q))) <= 1e-13


def test_build_accepts_finite_overrides_of_any_sign():
    assert build("ball_free", {"R": -1.0, "k2": 0.5, "m": 2.0}).params["R"] == -1.0
    assert build("skater_charged", {"B": -2.0, "e_c": 0.0, "d": 0.0}).params["B"] == -2.0


def test_spot_check_rejects_wrong_consistency():
    spec = build("ball_magnetic")
    broken = replace(spec, consistency=ConsistencySolution(kind="zero"))
    with pytest.raises(ValidationError):
        _spot_check_consistency(broken)


def test_spot_check_rejects_a_scaled_affine_consistency_map():
    spec = build("ball_magnetic")
    a_perp = spec.consistency.affine_map
    scaled = ConsistencySolution(kind="affine", affine_map=lambda q: [1.5 * v for v in a_perp(q)])
    match = r"'ball_magnetic' violates the consistency condition \(residual \d\.\d{3}e[+-]\d+\)"
    with pytest.raises(ValidationError, match=match):
        _spot_check_consistency(replace(spec, consistency=scaled))


def test_spot_check_raises_where_the_hamiltonian_is_not_finite():
    # exp(800 x) overflows for x > 0.89, which the drawn x in [-1.5, 1.5) reach
    spec = build("skater_free")
    base = spec.hamiltonian.fn

    def fn(x, *rest):
        return base(x, *rest) + numcore.exp(800.0 * x)

    blown = replace(spec, hamiltonian=ScalarField(spec.base_names, spec.fiber_names, fn))
    with pytest.raises(NumericDomainError):
        _spot_check_consistency(blown)


@pytest.mark.parametrize("name", catalog_names())
def test_build_compiles_nothing(name, monkeypatch):
    # every binding of compile_traced in the package, as numcore imports it by name
    original, arities = tracing.compile_traced, []

    def counted(fn, arity):
        arities.append(arity)
        return original(fn, arity)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("diracmech") and getattr(module, "compile_traced", None) is original:
            monkeypatch.setattr(module, "compile_traced", counted)
    build(name)
    assert arities == []


def test_spot_check_rejects_newton_consistency():
    spec = replace(build("ball_magnetic"), consistency=ConsistencySolution(kind="newton"))
    with pytest.raises(ValidationError, match="closed-form consistency"):
        _spot_check_consistency(spec)


# -- analytic solutions ------------------------------------------------------------


def test_analytic_free_skater_reproduces_ic_at_zero():
    spec = build("skater_free")
    ic = (0.4, -0.1, 0.7, 0.8, 1.2)
    out = spec.analytic(np.array(ic), 0.0)
    assert np.allclose(out, ic, atol=1e-15)


def test_analytic_free_skater_period_closure():
    spec = build("skater_free")
    out = spec.analytic(np.array([0.0, 0.0, 0.0, 1.0, 1.0]), 2 * math.pi)
    assert abs(out[0]) <= 1e-12 and abs(out[1]) <= 1e-12
    assert abs(out[2] - 2 * math.pi) <= 1e-12


def test_analytic_slope_skater_frozen_values():
    # printed closed form with constants (0, 0, 1, 1, 0) evaluated at t = pi
    spec = build("skater_slope")
    out = spec.analytic(np.array([0.25, -1.0, 0.0, 1.0, 1.0]), math.pi)
    want_x = 0.25 * math.cos(2 * math.pi) + math.sin(math.pi)
    want_y = -math.pi / 2 + 0.25 * math.sin(2 * math.pi) - math.cos(math.pi)
    want_eta1 = -math.sin(math.pi) + 1.0
    assert abs(out[0] - want_x) <= 1e-14
    assert abs(out[1] - want_y) <= 1e-14
    assert abs(out[2] - math.pi) <= 1e-14
    assert abs(out[3] - want_eta1) <= 1e-14
    assert abs(out[4] - 1.0) <= 1e-15


def test_analytic_rejects_zero_rotation():
    spec = build("skater_free")
    with pytest.raises(DegenerateParameterError):
        spec.analytic(np.array([0.0, 0.0, 0.0, 1.0, 0.0]), 1.0)


def test_analytic_ball_free_line():
    spec = build("ball_free", {"m": 2.0, "R": 1.5, "k2": 0.5})
    out = spec.analytic(np.array([1.0, -1.0, 0.8, 0.4, 0.1]), 2.0)
    s = 0.5 + 1.5**2
    assert abs(out[0] - (1.0 + 2.0 * 1.5 * 0.8 / (2.0 * s))) <= 1e-15
    assert abs(out[1] - (-1.0 - 2.0 * 1.5 * 0.4 / (2.0 * s))) <= 1e-15
    assert out[2:].tolist() == [0.8, 0.4, 0.1]


@pytest.mark.parametrize("name", ["skater_free", "skater_slope"])
def test_analytic_satisfies_reduced_dynamics(name):
    # central differences of the closed form against the engine field
    spec = build(name)
    ic = reduced((0.1, -0.3, 0.2), (0.9, 1.1))
    h = 1e-6
    ic_vec = np.array(ic.q + ic.eta)
    for t in np.linspace(0.05, 9.95, 50):
        here = spec.analytic(ic_vec, float(t))
        fd = (spec.analytic(ic_vec, float(t) + h) - spec.analytic(ic_vec, float(t) - h)) / (2 * h)
        qdot, etadot = field_at(spec, reduced(here[: spec.m], here[spec.m :]))
        assert np.max(np.abs(fd - np.concatenate([qdot, etadot]))) <= 1e-5


# -- potential modification -----------------------------------------------------------


def test_zero_potential_leaves_dynamics_unchanged():
    spec = build("ball_magnetic")
    modified = hamiltonian_with_potential(spec, parse_text("0"))
    rng = np.random.default_rng(3)
    for _ in range(10):
        rs = reduced(rng.uniform(-1, 1, 2), rng.uniform(-2, 2, 3))
        a = np.concatenate(field_at(spec, rs))
        b = np.concatenate(field_at(modified, rs))
        assert np.array_equal(a, b)


def test_harmonic_potential_equals_ball_harmonic():
    augmented = hamiltonian_with_potential(build("ball_magnetic"), parse_text("0.5*(x^2+y^2)"))
    harmonic = build("ball_harmonic")
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = np.concatenate([rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 5)])
        assert augmented.hamiltonian(*p.tolist()) == harmonic.hamiltonian(*p.tolist())
        rs = reduced(p[:2], rng.uniform(-2, 2, 3))
        a = np.concatenate(field_at(augmented, rs))
        b = np.concatenate(field_at(harmonic, rs))
        assert np.array_equal(a, b)


def test_potential_rejects_momentum_variables():
    with pytest.raises(ValidationError):
        hamiltonian_with_potential(build("skater_free"), parse_text("eta1^2"))


def test_potential_keeps_consistency_solution():
    spec = build("ball_magnetic")
    modified = hamiltonian_with_potential(spec, parse_text("x^2*y"))
    assert modified.consistency is spec.consistency
    # still satisfies the transverse condition: spot check does not raise
    _spot_check_consistency(modified)


# -- printed reduced equations as fixtures ----------------------------------------------


def charged_skater_display(params, q, eta):
    """Reduced equations of the charged skater, expanded by hand from the
    structure data (the sign of the eta2 rate follows the energy-conserving
    expansion, see the decisions ledger)."""
    m, k2, b, ec, d = params["m"], params["k2"], params["B"], params["e_c"], params["d"]
    x, y, phi = q
    e1, e2 = eta
    cp, sp = math.cos(phi), math.sin(phi)
    p1 = e1 - ec * b * x * sp
    p2 = e2 - ec * b * d * x * cp
    qdot = np.array([p1 * cp / m, p1 * sp / m, p2 / (m * k2)])
    e1dot = (ec * b / m) * cp * ((x + d * cp) * p2 / k2 + p1 * sp)
    e2dot = -(ec * b * d * x / (m * k2)) * sp * p2
    return qdot, np.array([e1dot, e2dot])


def test_charged_skater_matches_display():
    spec = build("skater_charged", {"d": 0.3, "B": 1.7, "e_c": 0.8, "k2": 1.4, "m": 1.2})
    rng = np.random.default_rng(7)
    for _ in range(100):
        rs = reduced(rng.uniform(-1.5, 1.5, 3), rng.uniform(-2, 2, 2))
        qdot, etadot = field_at(spec, rs)
        qdot_d, etadot_d = charged_skater_display(spec.params, rs.q, rs.eta)
        assert np.max(np.abs(qdot - qdot_d) / (1 + np.abs(qdot_d))) <= 1e-12
        assert np.max(np.abs(etadot - etadot_d) / (1 + np.abs(etadot_d))) <= 1e-12


def magnetic_ball_display(params, q, eta, omega=None):
    m, k2, r, b, ec = params["m"], params["k2"], params["R"], params["B"], params["e_c"]
    s = k2 + r * r
    x, y = q
    e1, e2, e3 = eta
    shifted = e2 + ec * b * r * x
    qdot = np.array([r * e1 / (m * s), -r * shifted / (m * s)])
    e1dot = -ec * b * r * r * shifted / (m * s)
    e2dot = 0.0
    if omega is not None:
        e1dot -= r * m * omega**2 * x
        e2dot += r * m * omega**2 * y
    return qdot, np.array([e1dot, e2dot, 0.0])


def test_magnetic_ball_matches_display():
    spec = build("ball_magnetic", {"m": 1.3, "k2": 0.7, "R": 1.1, "B": 0.9, "e_c": 1.4})
    rng = np.random.default_rng(11)
    for _ in range(100):
        rs = reduced(rng.uniform(-1.5, 1.5, 2), rng.uniform(-2, 2, 3))
        qdot, etadot = field_at(spec, rs)
        qdot_d, etadot_d = magnetic_ball_display(spec.params, rs.q, rs.eta)
        assert np.max(np.abs(qdot - qdot_d) / (1 + np.abs(qdot_d))) <= 1e-12
        assert np.max(np.abs(etadot - etadot_d) / (1 + np.abs(etadot_d))) <= 1e-12


def test_harmonic_ball_matches_display():
    spec = build("ball_harmonic", {"omega": 1.6})
    rng = np.random.default_rng(13)
    for _ in range(100):
        rs = reduced(rng.uniform(-1.5, 1.5, 2), rng.uniform(-2, 2, 3))
        qdot, etadot = field_at(spec, rs)
        qdot_d, etadot_d = magnetic_ball_display(spec.params, rs.q, rs.eta, omega=1.6)
        assert np.max(np.abs(qdot - qdot_d) / (1 + np.abs(qdot_d))) <= 1e-12
        assert np.max(np.abs(etadot - etadot_d) / (1 + np.abs(etadot_d))) <= 1e-12


def test_free_ball_matches_display():
    spec = build("ball_free", {"m": 0.8, "k2": 1.9, "R": 0.6})
    m, k2, r = 0.8, 1.9, 0.6
    s = k2 + r * r
    rng = np.random.default_rng(17)
    for _ in range(50):
        rs = reduced(rng.uniform(-1.5, 1.5, 2), rng.uniform(-2, 2, 3))
        qdot, etadot = field_at(spec, rs)
        assert abs(qdot[0] - r * rs.eta[0] / (m * s)) <= 1e-14
        assert abs(qdot[1] + r * rs.eta[1] / (m * s)) <= 1e-14
        assert np.max(np.abs(etadot)) <= 1e-14


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: build("skater_slope").analytic(np.array([0.0, 0.0, 0.0, 1.0, 0.0]), 1.0),
            DegenerateParameterError,
            "closed form needs nonzero initial rotation (eta2 != 0)",
        ),
        (
            lambda: hamiltonian_with_potential(build("ball_free"), "x^2"),
            ValidationError,
            "potential must be a parsed expression, got 'x^2'",
        ),
        (
            lambda: build("skater_free", [1, 2]),
            CatalogError,
            "overrides of system 'skater_free' must be a mapping, got [1, 2]",
        ),
        (
            lambda: mechanical_lagrangian(build("skater_charged")),
            UnsupportedError,
            "system 'skater_charged' is not mechanical",
        ),
        (
            lambda: oracle_reduced_field(
                replace(build("skater_free"), metric=None), reduced((0.0, 0.0, 0.0), (1.0, 1.0))
            ),
            UnsupportedError,
            "system 'skater_free' carries no metric data",
        ),
        *(
            (
                lambda name=name: oracle_reduced_field(build(name), reduced((0.0, 0.0), (1.0, 1.0))),
                DimensionError,
                f"reduced state (2, 2) on shape {shape}",
            )
            for name, shape in (("skater_free", (3, 2)), ("skater_charged", (3, 2)), ("ball_magnetic", (2, 3)))
        ),
    ],
)
def test_public_functions_raise_typed_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
