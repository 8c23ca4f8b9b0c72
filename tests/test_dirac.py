import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmech.algebroid import PhaseState, restrict_to_constraint
from diracmech.dirac import (
    ConsistencySolution,
    DiracAlgebroid,
    DiracElement,
    _float_list,
    complete_state,
    consistency_residual,
    evaluate_reduced,
    make_element,
    oracle_magnetic,
    oracle_mechanical,
    pairing,
    pairing_scale,
    reduced_vector_field,
    solve_consistency,
)
from diracmech.checks import ISOTROPY_TOL
from diracmech.errors import (
    DegenerateHamiltonianError,
    DimensionError,
    NumericDomainError,
    ValidationError,
)
from diracmech.frame import frame_matrix
from diracmech.integrate import simulate
from diracmech.numcore import (
    ScalarField,
    gauss_solve,
    grad,
    hessian_block,
    mat_inverse,
    max_abs,
    partials_of,
    seed_duals,
    solve_linear,
)
from diracmech.systems import build, catalog_names, oracle_reduced_field, skater_frame


def full_state(spec, rng):
    return PhaseState(
        rng.uniform(-1.5, 1.5, spec.m), rng.uniform(-2.0, 2.0, spec.n_fiber), full=True
    )


# -- make_element / membership ------------------------------------------------


def test_make_element_zero_parameters():
    spec = build("skater_free")
    s = PhaseState((0.3, 0.1, -0.4), (1.0, 2.0, 3.0))
    e = make_element(spec.dirac, s, np.zeros(3), np.zeros(2), np.zeros(1))
    assert e.cov_base == (0.0,) * 3
    assert e.cov_fiber == (0.0,) * 3
    assert e.vec_base == (0.0,) * 3
    assert e.vec_fiber == (0.0,) * 3


def test_make_element_skater_display():
    # at phi = 0 with a = 0 and admissible velocity (1, 0):
    # qdot is the blade direction and etadot_2 = -eta3 * z^1
    spec = build("skater_free")
    eta3 = 0.8
    s = PhaseState((0.0, 0.0, 0.0), (1.0, 2.0, eta3))
    e = make_element(spec.dirac, s, np.zeros(3), [1.0, 0.0], [0.25])
    assert np.allclose(e.vec_base, [1.0, 0.0, 0.0], atol=1e-15)
    assert abs(e.vec_fiber[0]) <= 1e-15
    assert abs(e.vec_fiber[1] + eta3) <= 1e-15
    assert e.vec_fiber[2] == 0.25
    assert e.cov_fiber[2] == 0.0


def test_make_element_unit_velocity_hits_anchor_column():
    spec = build("ball_magnetic")
    rng = np.random.default_rng(4)
    s = full_state(spec, rng)
    rho = spec.dirac.alg.anchor_array(s.q)
    for b in range(spec.k):
        xb = np.zeros(spec.k)
        xb[b] = 1.0
        e = make_element(spec.dirac, s, np.zeros(spec.m), xb, np.zeros(2))
        assert np.allclose(e.vec_base, rho[:, b], atol=1e-15)


def test_make_element_membership_invariants():
    rng = np.random.default_rng(9)
    for name in ("skater_charged", "ball_harmonic"):
        spec = build(name)
        dirac = spec.dirac
        for _ in range(50):
            s = full_state(spec, rng)
            a = rng.uniform(-2, 2, spec.m)
            xb = rng.uniform(-2, 2, spec.k)
            ed = rng.uniform(-2, 2, spec.n_fiber - spec.k)
            e = make_element(dirac, s, a, xb, ed)
            rho = dirac.alg.anchor_array(s.q)
            c = dirac.alg.structure(s.q)
            assert all(v == 0.0 for v in e.cov_fiber[spec.k :])
            assert np.allclose(e.vec_base, rho[:, : spec.k] @ xb, atol=1e-14)
            want = np.einsum("abd,a,d->b", c[:, : spec.k, : spec.k], np.array(s.eta), xb)
            want -= rho[:, : spec.k].T @ a
            assert np.allclose(e.vec_fiber[: spec.k], want, atol=1e-13)


def test_make_element_dimension_errors():
    spec = build("skater_free")
    s = PhaseState((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
    with pytest.raises(DimensionError):
        make_element(spec.dirac, s, np.zeros(2), np.zeros(2), np.zeros(1))
    with pytest.raises(DimensionError):
        make_element(spec.dirac, s, np.zeros(3), np.zeros(3), np.zeros(1))


# SHA-256 of every output of make_element and of each pair's pairing, over
# seeded parameters given as arrays and as lists, recorded before
# make_element passed float lists straight to the compiled contraction
ELEMENT_DIGESTS = {
    "ball_free": "06f1a11b46d6a800570ce7917e1061072515c0da65fd8cb1fe5f3248e85e96bc",
    "ball_harmonic": "3ce97b79cdc30751da1ed86410fdf04dc1c5ab69299c7b76aa42afdafc519be5",
    "ball_magnetic": "10916c4c2fbb84afa9c91d915413745703fe3fc2882f09f1caf10bdb8b62341e",
    "skater_charged": "72634b3c7acafa7709383a01f5982b0b8c053a054f788cc2855916311d4200d1",
    "skater_free": "5ecb4b221bb72c17856787ebe67cdfaa7885235db93ff1d23e5d62c7fdd8afca",
    "skater_slope": "60e703ca5598d3a7fd12c37553140c1c872b7cec90c1884dc2a9230cc67bfe5c",
}


@pytest.mark.parametrize("name", sorted(ELEMENT_DIGESTS))
def test_make_element_outputs_are_pinned_bit_for_bit(name):
    spec = build(name)
    nt = spec.n_fiber - spec.k
    rng = np.random.default_rng([37, list(catalog_names()).index(name)])
    digest = hashlib.sha256()
    for i in range(40):
        s = full_state(spec, rng)
        pair = []
        for _ in range(2):
            a, xb, ed = (rng.uniform(-2.0, 2.0, n) for n in (spec.m, spec.k, nt))
            if i % 2:
                a, xb, ed = a.tolist(), tuple(xb.tolist()), ed.tolist()
            e = make_element(spec.dirac, s, a, xb, ed)
            for part in (e.cov_base, e.cov_fiber, e.vec_base, e.vec_fiber):
                assert type(part) is tuple and all(type(v) is float for v in part)
                digest.update(struct.pack(f"<{len(part)}d", *part))
            pair.append(e)
        digest.update(struct.pack("<2d", pairing(*pair), pairing_scale(*pair)))
    assert digest.hexdigest() == ELEMENT_DIGESTS[name]


ZEROS = {"a": [0.0] * 3, "xb": [0.0] * 2, "ed": [0.0]}


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"a": [0.0] * 2}, "covector of length (2,) on base of dimension 3"),
        ({"a": np.zeros((3, 1))}, "covector of length (3, 1) on base of dimension 3"),
        ({"a": 1.0}, "covector of length () on base of dimension 3"),
        ({"a": [[1.0, 2.0], [3.0]]}, "covector of length (2, [2, 1]) on base of dimension 3"),
        ({"xb": [0.0] * 3}, "admissible velocity of length (3,), expected 2"),
        ({"xb": [[0.0, 0.0]]}, "admissible velocity of length (1, 2), expected 2"),
        ({"xb": np.float64(0.0)}, "admissible velocity of length (), expected 2"),
        ({"xb": [[0.0], []]}, "admissible velocity of length (2, [1, 0]), expected 2"),
        ({"ed": []}, "transverse rates of length (0,), expected 1"),
        ({"ed": [[0.0]]}, "transverse rates of length (1, 1), expected 1"),
        ({"ed": 0.5}, "transverse rates of length (), expected 1"),
        ({"ed": ((0.0, 1.0), (2.0,))}, "transverse rates of length (2, [2, 1]), expected 1"),
        (
            {"a": [[1.0], 2.0, 3.0]},
            "covector of length (3,) on base of dimension 3: float() argument must be "
            "a string or a real number, not 'list'",
        ),
        (
            {"ed": ["x"]},
            "transverse rates of length (1,), expected 1: could not convert string to float: 'x'",
        ),
    ],
    ids=[
        *(f"{what}_{name}" for what in ("a", "xb", "ed") for name in ("length", "2d", "scalar", "nested")),
        "a_mixed",
        "ed_string",
    ],
)
def test_make_element_parameter_errors(bad, message):
    spec = build("skater_free")
    s = PhaseState((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
    args = {**ZEROS, **bad}
    with pytest.raises(DimensionError) as info:
        make_element(spec.dirac, s, args["a"], args["xb"], args["ed"])
    assert str(info.value) == message


@pytest.mark.parametrize(
    "name",
    ["skater_free", "skater_slope", "skater_charged", "ball_free", "ball_magnetic", "ball_harmonic"],
)
def test_reduced_field_is_the_element_of_dh(name):
    """The reduced dynamics is the structure element whose covector is dH:
    base part a = dH/dq, admissible velocity x = dH/deta_a, at the state
    completed by the consistency solution."""
    spec = build(name)
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = tuple(rng.uniform(-1.5, 1.5, spec.m))
        eta_a = tuple(rng.uniform(-2.0, 2.0, spec.k))
        eta_alpha = solve_consistency(
            spec.dirac, spec.hamiltonian, q, eta_a, solution=spec.consistency
        )
        full = PhaseState(q=q, eta=eta_a + tuple(eta_alpha), full=True)
        g = grad(spec.hamiltonian, full.q + full.eta)
        e = make_element(
            spec.dirac,
            full,
            a=g[: spec.m],
            xb=g[spec.m : spec.m + spec.k],
            etadot_alpha=np.zeros(spec.dirac.transverse),
        )
        _, _, qdot, etadot = evaluate_reduced(
            spec.dirac, spec.hamiltonian, q, eta_a, solution=spec.consistency
        )
        assert np.array(e.vec_base).tolist() == qdot.tolist()
        assert np.array(e.vec_fiber[: spec.k]).tolist() == etadot.tolist()


# -- pairing -------------------------------------------------------------------


def test_pairing_unit_covector_against_unit_vector():
    spec = build("skater_free")
    s = PhaseState((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    zero = make_element(spec.dirac, s, np.zeros(3), np.zeros(2), np.zeros(1))
    cov_only = type(zero)(
        base=s, cov_base=(1.0, 0.0, 0.0), cov_fiber=(0.0,) * 3,
        vec_base=(0.0,) * 3, vec_fiber=(0.0,) * 3,
    )
    vec_only = type(zero)(
        base=s, cov_base=(0.0,) * 3, cov_fiber=(0.0,) * 3,
        vec_base=(1.0, 0.0, 0.0), vec_fiber=(0.0,) * 3,
    )
    assert pairing(cov_only, vec_only) == 1.0


def test_pairing_isotropy_on_structure_elements():
    rng = np.random.default_rng(21)
    for name in ("skater_free", "skater_charged", "ball_magnetic"):
        spec = build(name)
        for _ in range(200):
            s = full_state(spec, rng)
            e1 = make_element(
                spec.dirac, s, rng.uniform(-2, 2, spec.m), rng.uniform(-2, 2, spec.k),
                rng.uniform(-2, 2, spec.n_fiber - spec.k),
            )
            e2 = make_element(
                spec.dirac, s, rng.uniform(-2, 2, spec.m), rng.uniform(-2, 2, spec.k),
                rng.uniform(-2, 2, spec.n_fiber - spec.k),
            )
            assert abs(pairing(e1, e2)) <= 1e-12 * max(pairing_scale(e1, e2), 1e-30)
            assert abs(pairing(e1, e1)) <= 1e-12 * max(pairing_scale(e1, e1), 1e-30)


def components(n, bound):
    # 0 or at least 1e-30 in magnitude: products of a few components stay
    # normal floats, where the rounding of the pairing is relative
    part = st.floats(-bound, bound).map(lambda v: v if abs(v) >= 1e-30 else 0.0)
    return st.lists(part, min_size=n, max_size=n)


SPECS = {name: build(name) for name in catalog_names()}


@st.composite
def element_pairs(draw):
    spec = SPECS[draw(st.sampled_from(catalog_names()))]
    s = PhaseState(draw(components(spec.m, 1.5)), draw(components(spec.n_fiber, 2.0)))
    nt = spec.n_fiber - spec.k
    return [
        make_element(
            spec.dirac, s, draw(components(spec.m, 2.0)), draw(components(spec.k, 2.0)),
            draw(components(nt, 2.0)),
        )
        for _ in range(2)
    ]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(element_pairs())
def test_pairing_isotropy_on_random_elements_of_every_system(pair):
    e1, e2 = pair
    assert abs(pairing(e1, e2)) <= ISOTROPY_TOL * pairing_scale(e1, e2)


def test_pairing_adds_its_products_left_to_right():
    """The products 1e16, 1.0, -1e16 add to 0.0 left to right from 0.0;
    a compensated sum (``sum()`` from Python 3.12) would give 1.0."""
    s = PhaseState((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    zeros = (0.0,) * 3
    e1 = DiracElement(s, (1e16, 1.0, -1e16), zeros, zeros, zeros)
    e2 = DiracElement(s, zeros, zeros, (1.0, 1.0, 1.0), zeros)
    assert bits(pairing(e1, e2)) == bits(0.0)
    assert bits(pairing(e2, e1)) == bits(0.0)
    assert pairing_scale(e1, e2) == 2e16
    # cov1 . vec2 over the base (1e16), the fiber (1.0), then cov2 . vec1
    # (1.0): 1e16 left to right, where the exact sum is 1e16 + 2
    one = (1.0, 0.0, 0.0)
    e3 = DiracElement(s, (1e16, 0.0, 0.0), one, one, zeros)
    e4 = DiracElement(s, one, zeros, one, one)
    assert pairing(e3, e4) == pairing_scale(e3, e4) == 1e16


def bits(value):
    return struct.pack("<d", value)


SPECIAL = [1.5, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -1.7976931348623157e308]


class ListKind(list):
    pass


@pytest.mark.parametrize("n", [0, 1, 3, len(SPECIAL)])
def test_float_list_exact_types_equal_the_checked_path(n):
    """A list subclass, a list, a tuple and a float64 vector of floats all
    give the same floats, as a list."""
    values = SPECIAL[:n]
    want = _float_list(ListKind(values), n, "{}")
    assert type(want) is list and all(type(v) is float for v in want)
    for value in (values, tuple(values), np.array(values, dtype=np.float64)):
        out = _float_list(value, n, "{}")
        assert type(out) is list
        assert [bits(v) for v in out] == [bits(v) for v in want] == [bits(v) for v in values]


def test_float_list_takes_the_checked_path_for_other_numbers():
    assert _float_list([1, np.float64(2.0), True], 3, "{}") == [1.0, 2.0, 1.0]
    assert _float_list(np.arange(3), 3, "{}") == [0.0, 1.0, 2.0]
    with pytest.raises(DimensionError, match=r"^\(3,\) for 2$"):
        _float_list(np.zeros(3), 2, "{} for {n}")
    with pytest.raises(DimensionError, match=r"^\(2,\) for 3$"):
        _float_list((1.0, 2.0), 3, "{} for {n}")


def test_pairing_base_mismatch():
    spec = build("skater_free")
    s1 = PhaseState((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    s2 = PhaseState((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    e1 = make_element(spec.dirac, s1, np.zeros(3), np.zeros(2), np.zeros(1))
    e2 = make_element(spec.dirac, s2, np.zeros(3), np.zeros(2), np.zeros(1))
    with pytest.raises(ValidationError):
        pairing(e1, e2)


# -- consistency ------------------------------------------------------------------


def test_consistency_residual_mechanical_zero():
    spec = build("skater_free")
    s = PhaseState((0.4, -0.2, 1.1), (0.7, -0.3, 0.0))
    assert np.array_equal(consistency_residual(spec.dirac, spec.hamiltonian, s), [0.0])


def test_consistency_residual_charged_skater():
    spec = build("skater_charged")
    x, phi = 0.9, 0.3
    eta3 = 1.0 * 1.0 * x * math.cos(phi)
    s = PhaseState((x, 0.0, phi), (0.5, -0.1, eta3))
    res = consistency_residual(spec.dirac, spec.hamiltonian, s)
    assert np.max(np.abs(res)) <= 1e-15


def test_consistency_residual_magnetic_ball():
    spec = build("ball_magnetic")
    x = 0.7
    s = PhaseState((x, 0.2), (0.5, -0.1, 0.3, 0.0, x))
    res = consistency_residual(spec.dirac, spec.hamiltonian, s)
    assert np.max(np.abs(res)) <= 1e-15


def test_solve_consistency_closed_forms():
    free = build("skater_free")
    assert np.array_equal(
        solve_consistency(free.dirac, free.hamiltonian, (0.3, 0.1, 0.2), (1.0, 2.0),
                          solution=free.consistency),
        [0.0],
    )
    charged = build("skater_charged")
    sol = solve_consistency(
        charged.dirac, charged.hamiltonian, (2.0, 0.0, 0.0), (1.0, 1.0),
        solution=charged.consistency,
    )
    assert np.allclose(sol, [2.0], atol=1e-15)
    ball = build("ball_magnetic")
    sol = solve_consistency(
        ball.dirac, ball.hamiltonian, (1.0, 0.5), (0.1, 0.2, 0.3),
        solution=ball.consistency,
    )
    assert np.allclose(sol, [0.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("kind", ["affine", "newton"])
def test_solve_consistency_checks_the_reduced_shape(kind):
    spec = build("skater_charged")
    solution = spec.consistency if kind == "affine" else ConsistencySolution(kind="newton")
    message = "reduced state (2, 2) on shape (3, 2)"
    with pytest.raises(DimensionError) as info:
        solve_consistency(spec.dirac, spec.hamiltonian, [0.1, 0.2], [1.0, 0.5], solution=solution)
    assert str(info.value) == message
    short = PhaseState((0.1, 0.2), (1.0, 0.5), full=False)
    with pytest.raises(DimensionError) as info:
        complete_state(spec.dirac, spec.hamiltonian, short, solution=solution)
    assert str(info.value) == message


def test_solve_consistency_newton_agrees_with_closed_form():
    rng = np.random.default_rng(33)
    for name in ("skater_charged", "ball_magnetic"):
        spec = build(name)
        for _ in range(10):
            q = rng.uniform(-1.5, 1.5, spec.m)
            eta_a = rng.uniform(-2, 2, spec.k)
            closed = solve_consistency(
                spec.dirac, spec.hamiltonian, q, eta_a, solution=spec.consistency
            )
            newton = solve_consistency(spec.dirac, spec.hamiltonian, q, eta_a)
            assert np.max(np.abs(closed - newton)) <= 1e-12


def test_solve_consistency_degenerate_hamiltonian():
    spec = build("skater_free")
    flat = ScalarField(
        spec.base_names, spec.fiber_names,
        lambda x, y, phi, e1, e2, e3: 0.5 * (e1 * e1 + e2 * e2),
    )
    with pytest.raises(DegenerateHamiltonianError):
        solve_consistency(spec.dirac, flat, (0.0, 0.0, 0.0), (1.0, 1.0))


def test_newton_reports_a_non_finite_residual_first():
    # the residual and the transverse block both overflow at the start
    spec = build("skater_free")
    steep = ScalarField(
        spec.base_names, spec.fiber_names,
        lambda x, y, phi, e1, e2, e3: 0.5 * (e1 * e1 + e2 * e2) + 1e300 * (e3 + x) ** 4,
    )
    with pytest.raises(NumericDomainError) as info:
        solve_consistency(spec.dirac, steep, (1e10, 0.0, 0.0), (1.0, 1.0))
    assert str(info.value) == "non-finite derivative at (10000000000.0, 0.0, 0.0, 1.0, 1.0, 0.0)"


def test_newton_builds_one_hessian_block_per_residual(monkeypatch):
    # each residual is one run of H's transverse sweep, which gives the
    # residual and the Jacobian rows; the full gradient is never taken
    from diracmech import dirac, numcore

    spec = build("ball_magnetic")
    h = spec.hamiltonian
    counts = {"residual": 0, "sweep": 0, "value_and_grad": 0}
    sweep, iterate, full_gradient = numcore._hessian_sweep, dirac.newton_iterate, numcore.value_and_grad

    def counted_sweep(*args):
        counts["sweep"] += 1
        return sweep(*args)

    def counted_iterate(residual_map, *args, **kwargs):
        def counted_map(x):
            counts["residual"] += 1
            return residual_map(x)

        return iterate(counted_map, *args, **kwargs)

    def counted_gradient(*args, **kwargs):
        counts["value_and_grad"] += 1
        return full_gradient(*args, **kwargs)

    monkeypatch.setattr(numcore, "_hessian_sweep", counted_sweep)
    monkeypatch.setattr(dirac, "newton_iterate", counted_iterate)
    for module in (dirac, numcore):
        monkeypatch.setattr(module, "value_and_grad", counted_gradient)
    sol = solve_consistency(spec.dirac, h, (0.2, -0.1), (1.0, 0.3, -0.2))
    assert np.max(np.abs(sol - [0.0, 0.2])) <= 1e-12
    assert counts["sweep"] == counts["residual"] >= 2
    assert counts["value_and_grad"] == 0


# SHA-256 over the bytes of the Newton solution of solve_consistency and of
# hessian_block over the transverse momenta there, at 50 reduced states drawn
# from default_rng(21), recorded when the float Newton loop ran a compiled
# Hessian program
FLOAT_NEWTON_DIGESTS = {
    "skater_charged": "42c807ec6d8caec46514a83ef6b76ef425b979a66cff7c2fda86e399eac917e1",
    "ball_magnetic": "cdd4e5d515ae38657db4ae3cfbff43e2d8e14b47e1e39b61e0631e0eb97ff5d9",
    "skater_quartic": "5335cfd81b87f280ccc4053e852b491ea9bfde5ab05a7930f805fd90db185f5a",
}


@pytest.mark.parametrize("name", sorted(FLOAT_NEWTON_DIGESTS))
def test_float_newton_compiles_nothing(name, monkeypatch):
    from diracmech import numcore

    spec = build(name.replace("quartic", "charged"))
    h = spec.hamiltonian
    if name == "skater_quartic":
        h = ScalarField(spec.base_names, spec.fiber_names, lambda *a: spec.hamiltonian.fn(*a) + 0.25 * a[5] ** 4)

    def refuse(fn, arity):
        raise AssertionError("the float Newton path compiled a program")

    monkeypatch.setattr(numcore, "compile_traced", refuse)
    start = spec.m + spec.k
    idx = list(range(start, start + spec.dirac.transverse))
    rng = np.random.default_rng(21)
    digest = hashlib.sha256()
    for _ in range(50):
        q, eta = rng.uniform(-1.5, 1.5, spec.m).tolist(), rng.uniform(-2.0, 2.0, spec.k).tolist()
        sol = solve_consistency(spec.dirac, h, q, eta)
        digest.update(sol.tobytes())
        digest.update(hessian_block(h, [*q, *eta, *sol.tolist()], idx).tobytes())
    assert digest.hexdigest() == FLOAT_NEWTON_DIGESTS[name]


# -- reduced field -------------------------------------------------------------------


def test_reduced_field_free_skater():
    spec = build("skater_free")
    rs = PhaseState((0.0, 0.0, 0.0), (1.0, 1.0), full=False)
    qdot, etadot = reduced_vector_field(spec.dirac, spec.hamiltonian, rs, solution=spec.consistency)
    assert np.allclose(qdot, [1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(etadot, [0.0, 0.0], atol=1e-15)


def test_reduced_field_slope_skater():
    spec = build("skater_slope")
    rs = PhaseState((0.0, 0.0, 0.0), (1.0, 1.0), full=False)
    qdot, etadot = reduced_vector_field(spec.dirac, spec.hamiltonian, rs, solution=spec.consistency)
    assert abs(etadot[0] + 1.0) <= 1e-15
    assert abs(etadot[1]) <= 1e-15


def test_reduced_field_magnetic_ball_hand_values():
    # at x = 0 with eta = (1, 0, 0): xdot = R/(m (k2 + R^2)) = 1/2, rest zero
    spec = build("ball_magnetic")
    rs = PhaseState((0.0, 0.0), (1.0, 0.0, 0.0), full=False)
    qdot, etadot = reduced_vector_field(spec.dirac, spec.hamiltonian, rs, solution=spec.consistency)
    assert np.allclose(qdot, [0.5, 0.0], atol=1e-15)
    assert np.allclose(etadot, np.zeros(3), atol=1e-15)


# -- oracles ---------------------------------------------------------------------------


def test_oracle_mechanical_free_skater_matches_printed_equations():
    spec = build("skater_free")
    rng = np.random.default_rng(41)
    for _ in range(30):
        rs = PhaseState(rng.uniform(-1.5, 1.5, 3), rng.uniform(-2, 2, 2), full=False)
        qdot, etadot = oracle_reduced_field(spec, rs)
        x, y, phi = rs.q
        e1, e2 = rs.eta
        assert abs(qdot[0] - math.cos(phi) * e1) <= 1e-14
        assert abs(qdot[1] - math.sin(phi) * e1) <= 1e-14
        assert abs(qdot[2] - e2) <= 1e-14
        assert np.max(np.abs(etadot)) <= 1e-14


def test_oracle_mechanical_slope_skater_matches_printed_equations():
    spec = build("skater_slope")
    rng = np.random.default_rng(43)
    for _ in range(30):
        rs = PhaseState(rng.uniform(-1.5, 1.5, 3), rng.uniform(-2, 2, 2), full=False)
        qdot, etadot = oracle_reduced_field(spec, rs)
        phi = rs.q[2]
        assert abs(etadot[0] + math.cos(phi)) <= 1e-14
        assert abs(etadot[1]) <= 1e-14


def test_oracle_mechanical_rest_state_is_stationary():
    spec = build("ball_free")
    rs = PhaseState((0.4, -0.6), (0.0, 0.0, 0.0), full=False)
    qdot, etadot = oracle_reduced_field(spec, rs)
    assert np.max(np.abs(qdot)) == 0.0
    assert np.max(np.abs(etadot)) == 0.0


def test_oracle_magnetic_with_zero_shift_degenerates_to_mechanical():
    spec = build("skater_free")
    metric = spec.metric
    alg, k = spec.dirac.alg, spec.k
    rng = np.random.default_rng(47)
    for _ in range(30):
        rs = PhaseState(rng.uniform(-1.5, 1.5, 3), rng.uniform(-2, 2, 2), full=False)
        mech = oracle_mechanical(
            metric.mass, metric.g_inv_sub, metric.potential,
            restrict_to_constraint(alg, k), rs,
        )
        mag = oracle_magnetic(
            metric.mass, metric.g_inv_sub,
            lambda q: [0.0, 0.0], lambda q: [0.0],
            metric.potential,
            anchor_adm=lambda q: alg.anchor_array(q)[:, :k],
            structure_constrained=lambda q: alg.structure(q)[:, :k, :k],
            rs=rs,
        )
        for got, want in zip(mag, mech):
            assert np.max(np.abs(got - want) / (1 + np.abs(want))) <= 1e-13


@pytest.mark.parametrize("name", ["skater_free", "skater_slope", "ball_free",
                                  "skater_charged", "ball_magnetic", "ball_harmonic"])
def test_oracle_equivalence(name):
    spec = build(name)
    rng = np.random.default_rng(51)
    for _ in range(100):
        rs = PhaseState(rng.uniform(-1.5, 1.5, spec.m), rng.uniform(-2, 2, spec.k), full=False)
        qdot, etadot = reduced_vector_field(
            spec.dirac, spec.hamiltonian, rs, solution=spec.consistency
        )
        qdot_o, etadot_o = oracle_reduced_field(spec, rs)
        assert np.max(np.abs(qdot - qdot_o) / (1 + np.abs(qdot_o))) <= 1e-12
        assert np.max(np.abs(etadot - etadot_o) / (1 + np.abs(etadot_o))) <= 1e-12


# -- invariants of the reduced dynamics ---------------------------------------------


def test_reduced_energy_gradient_annihilates_field():
    rng = np.random.default_rng(61)
    for name in ("skater_charged", "ball_harmonic"):
        spec = build(name)
        for _ in range(50):
            rs = PhaseState(
                rng.uniform(-1.5, 1.5, spec.m), rng.uniform(-2, 2, spec.k), full=False
            )
            qdot, etadot = reduced_vector_field(
                spec.dirac, spec.hamiltonian, rs, solution=spec.consistency
            )
            eta_alpha = solve_consistency(
                spec.dirac, spec.hamiltonian, rs.q, rs.eta, solution=spec.consistency
            )
            g = grad(spec.hamiltonian, rs.q + rs.eta + tuple(eta_alpha))
            rate = g[: spec.m] @ qdot + g[spec.m : spec.m + spec.k] @ etadot
            scale = np.abs(g[: spec.m]) @ np.abs(qdot) + np.abs(
                g[spec.m : spec.m + spec.k]
            ) @ np.abs(etadot)
            assert abs(rate) <= 1e-11 * max(scale, 1e-30)


def test_velocity_admissibility_through_frame():
    fr = skater_frame()
    rng = np.random.default_rng(67)
    for name in ("skater_free", "skater_charged"):
        spec = build(name)
        for _ in range(50):
            rs = PhaseState(
                rng.uniform(-1.5, 1.5, 3), rng.uniform(-2, 2, 2), full=False
            )
            qdot, _ = reduced_vector_field(
                spec.dirac, spec.hamiltonian, rs, solution=spec.consistency
            )
            z = solve_linear(frame_matrix(fr, rs.q), qdot)
            assert abs(z[2]) <= 1e-12 * max(np.linalg.norm(z), 1e-30)


def test_transverse_momentum_integrability_along_flow():
    # along magnetic trajectories, d/dt eta_alpha tracks dA_alpha/dq . qdot
    # with a second-order finite-difference defect
    spec = build("ball_magnetic")
    ic = PhaseState((0.1, -0.2), (1.0, 0.4, -0.3), full=False)

    def residual(dt):
        traj = simulate(spec, ic, t_end=1.0, dt=dt, stride=1)
        data = traj.reduced_array()
        defects = []
        for i in range(1, len(data) - 1):
            q = data[i, : spec.m]
            rs = PhaseState(q, data[i, spec.m :], full=False)
            qdot, _ = reduced_vector_field(
                spec.dirac, spec.hamiltonian, rs, solution=spec.consistency
            )
            duals = seed_duals(list(q))
            a_vals = spec.consistency.affine_map(duals)
            d_eta = (traj.eta_alpha[i + 1] - traj.eta_alpha[i - 1]) / (2 * dt)
            for beta in range(spec.n_fiber - spec.k):
                gradient = np.array(partials_of(a_vals[beta], spec.m))
                defects.append(d_eta[beta] - gradient @ qdot)
        return max_abs(defects)

    coarse, fine = residual(2e-3), residual(1e-3)
    assert 3.5 <= coarse / fine <= 4.5


NONDEFAULT_PARAMS = {
    "skater_free": {"m": 1.7, "k2": 0.6},
    "skater_slope": {"m": 0.9, "k2": 2.3, "lambda": 0.4},
    "skater_charged": {"m": 1.3, "k2": 0.8, "B": 1.9, "e_c": 0.7, "d": 0.23},
    "ball_free": {"m": 2.1, "k2": 0.5, "R": 1.4},
    "ball_magnetic": {"m": 0.8, "k2": 1.6, "R": 0.9, "B": 2.2, "e_c": 1.1},
    "ball_harmonic": {"m": 1.2, "k2": 0.7, "R": 1.8, "B": 0.6, "e_c": 1.3, "omega": 2.4},
}


@pytest.mark.parametrize("name", sorted(NONDEFAULT_PARAMS))
def test_oracle_equivalence_nondefault_parameters(name):
    spec = build(name, NONDEFAULT_PARAMS[name])
    rng = np.random.default_rng(77)
    for _ in range(50):
        rs = PhaseState(rng.uniform(-1.5, 1.5, spec.m), rng.uniform(-2, 2, spec.k), full=False)
        qdot, etadot = reduced_vector_field(
            spec.dirac, spec.hamiltonian, rs, solution=spec.consistency
        )
        qdot_o, etadot_o = oracle_reduced_field(spec, rs)
        assert np.max(np.abs(qdot - qdot_o) / (1 + np.abs(qdot_o))) <= 1e-12
        assert np.max(np.abs(etadot - etadot_o) / (1 + np.abs(etadot_o))) <= 1e-12


# -- public entry points on bad input -------------------------------------------

FULL = PhaseState(q=(0.1, 0.2, 0.3), eta=(1.0, 0.5, 0.0), full=True)
REDUCED = PhaseState(q=(0.1, 0.2, 0.3), eta=(1.0, 0.5), full=False)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda s: DiracAlgebroid(s.dirac.alg, k=4), ValidationError, "constraint rank 4 outside 1..3"),
        (lambda s: ConsistencySolution(kind="bogus"), ValidationError, "unknown consistency kind 'bogus'"),
        (lambda s: ConsistencySolution(kind="affine"), ValidationError, "affine consistency needs a map"),
        (
            lambda s: make_element(s.dirac, REDUCED, [0.0] * 3, [0.0] * 2, [0.0]),
            DimensionError,
            "full phase state of matching shape required",
        ),
        (
            lambda s: consistency_residual(s.dirac, s.hamiltonian, REDUCED),
            DimensionError,
            "full phase state required",
        ),
        (
            lambda s: complete_state(s.dirac, s.hamiltonian, FULL),
            DimensionError,
            "reduced phase state required",
        ),
        (
            lambda s: reduced_vector_field(s.dirac, s.hamiltonian, FULL),
            DimensionError,
            "reduced phase state required",
        ),
        (
            lambda s: oracle_mechanical(
                1.0, s.metric.g_inv_sub, s.metric.potential, restrict_to_constraint(s.dirac.alg, 2), FULL
            ),
            DimensionError,
            "reduced phase state required",
        ),
        (
            lambda s: oracle_magnetic(1.0, s.metric.g_inv_sub, None, None, s.metric.potential, None, None, FULL),
            DimensionError,
            "reduced phase state required",
        ),
        (
            lambda s: ConsistencySolution(kind="affine", affine_map=5),
            ValidationError,
            "affine consistency needs a map",
        ),
        (
            lambda s: DiracAlgebroid(s.dirac.alg, k="2"),
            ValidationError,
            "constraint rank must be an integer, got '2'",
        ),
        (
            lambda s: DiracAlgebroid(s.dirac.alg, k=2.0),
            ValidationError,
            "constraint rank must be an integer, got 2.0",
        ),
        # inputs that are not numbers, where a float conversion raised
        (
            lambda s: grad(s.hamiltonian, ["a"] * 6),
            DimensionError,
            f"point {['a'] * 6} is not a sequence of numbers: could not convert string to float: 'a'",
        ),
        (
            lambda s: grad(s.hamiltonian, 5),
            DimensionError,
            "point 5 is not a sequence of numbers: object of type 'int' has no len()",
        ),
        (
            lambda s: hessian_block(s.hamiltonian, ["a"] * 6, [5]),
            DimensionError,
            f"point {['a'] * 6} is not a sequence of numbers: could not convert string to float: 'a'",
        ),
        (
            lambda s: hessian_block(s.hamiltonian, 5, [5]),
            DimensionError,
            "point 5 is not a sequence of numbers: object of type 'int' has no len()",
        ),
        (
            lambda s: gauss_solve([[1.0, 0.0], [0.0, 1.0]], ["a", 1.0]),
            DimensionError,
            "right-hand side ['a', 1.0] is not a sequence of numbers: could not convert string to float: 'a'",
        ),
        (
            lambda s: solve_linear([[1.0, 0.0], [0.0, 1.0]], ["a", 1.0]),
            DimensionError,
            "right-hand side ['a', 1.0] is not a sequence of numbers: could not convert string to float: 'a'",
        ),
        (
            lambda s: gauss_solve([["a", 0.0], [0.0, 1.0]], [1.0, 1.0]),
            DimensionError,
            "matrix [['a', 0.0], [0.0, 1.0]] is not rows of numbers: could not convert string to float: 'a'",
        ),
        (
            lambda s: evaluate_reduced(s.dirac, s.hamiltonian, ["a", 0, 0], [1.0, 1.0], solution=s.consistency),
            DimensionError,
            "reduced state must be sequences of numbers, not ['a', 0, 0], [1.0, 1.0]",
        ),
        (
            lambda s: evaluate_reduced(s.dirac, s.hamiltonian, [0.0] * 3, ["a", 1.0]),  # by Newton
            DimensionError,
            "reduced state must be sequences of numbers, not [0.0, 0.0, 0.0], ['a', 1.0]",
        ),
        (
            lambda s: solve_consistency(s.dirac, s.hamiltonian, ["a", "b", "c"], [1.0, 1.0], solution=s.consistency),
            DimensionError,
            "reduced state must be sequences of numbers, not ['a', 'b', 'c'], [1.0, 1.0]",
        ),
        # inputs that escaped as a bare ValueError or TypeError
        (
            lambda s: solve_consistency(s.dirac, s.hamiltonian, [0.0] * 3, [1.0, 1.0], guess=["a"]),
            DimensionError,
            "Newton start ['a'] is not a sequence of numbers: could not convert string to float: 'a'",
        ),
        (
            lambda s: solve_consistency(s.dirac, s.hamiltonian, [0.0] * 3, [1.0, 1.0], guess=[0.0, 0.0]),
            DimensionError,
            "guess of length 2, expected 1",
        ),
        (
            lambda s: evaluate_reduced(s.dirac, s.hamiltonian, [0.0] * 3, [1.0, 1.0], guess=5),
            DimensionError,
            "Newton start 5 is not a sequence of numbers: 'int' object is not iterable",
        ),
        (
            lambda s: hessian_block(s.hamiltonian, [0.0] * 6, 5),
            DimensionError,
            "index subset 5 is not a sequence of integers: 'int' object is not iterable",
        ),
        (
            lambda s: gauss_solve([[1.0, [2.0]], [3.0, 4.0]], [1.0, 1.0]),
            DimensionError,
            "matrix [[1.0, [2.0]], [3.0, 4.0]] is not rows of numbers",
        ),
        (
            lambda s: mat_inverse([[1.0, [2.0]], [3.0, 4.0]]),
            DimensionError,
            "matrix [[1.0, [2.0]], [3.0, 4.0]] is not rows of numbers",
        ),
        (
            lambda s: solve_linear([[1.0, [2.0]], [3.0, 4.0]], [1.0, 1.0]),
            DimensionError,
            "matrix [[1.0, [2.0]], [3.0, 4.0]] is not rows of numbers",
        ),
        (
            lambda s: mat_inverse([[1.0, 2.0], [3.0, 4j]]),
            DimensionError,
            "matrix [[1.0, 2.0], [3.0, 4j]] is not rows of numbers",
        ),
        # a None entry, which numpy's float conversion makes nan
        (
            lambda s: mat_inverse([[1, None], [1, 2]]),
            DimensionError,
            "matrix [[1, None], [1, 2]] is not rows of numbers",
        ),
        (
            lambda s: gauss_solve([[1, None], [1, 2]], [1.0, 1.0]),
            DimensionError,
            "matrix [[1, None], [1, 2]] is not rows of numbers",
        ),
    ],
)
def test_public_entry_points_reject_bad_input(call, error, message):
    with pytest.raises(error) as info:
        call(build("skater_free"))
    assert str(info.value) == message


def test_complete_state_appends_the_solved_transverse_momenta():
    spec = build("skater_charged")
    full, eta_alpha = complete_state(spec.dirac, spec.hamiltonian, REDUCED, solution=spec.consistency)
    want = solve_consistency(spec.dirac, spec.hamiltonian, REDUCED.q, REDUCED.eta, solution=spec.consistency)
    assert list(eta_alpha) == list(want) != [0.0]
    assert full == PhaseState(q=REDUCED.q, eta=REDUCED.eta + tuple(want), full=True)
