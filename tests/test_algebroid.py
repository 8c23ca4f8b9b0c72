import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmech import algebroid, numcore, tracing
from diracmech.algebroid import (
    PhaseState,
    SkewAlgebroid,
    VelocityState,
    change_frame,
    from_tangent_frame,
    hamiltonian_vector_field,
    lagrangian_dynamics,
    legendre_map,
    product_with_lie_algebra,
    restrict_to_constraint,
)
from diracmech.errors import DimensionError, ValidationError
from diracmech.frame import FrameField, identity_frame, structure_functions_tangent
from diracmech.dirac import reduced_field
from diracmech.integrate import simulate
from diracmech.numcore import ScalarField, gauss_solve, grad, max_abs
from diracmech.systems import (
    ball_structure_constants,
    ball_transition_matrix,
    build,
    catalog_names,
    mechanical_lagrangian,
    skater_frame,
    so3_constants,
)

SKATER_C = np.zeros((3, 3, 3))
SKATER_C[2, 0, 1] = 1.0
SKATER_C[2, 1, 0] = -1.0
SKATER_C[0, 1, 2] = 1.0
SKATER_C[0, 2, 1] = -1.0


def restricted_skater():
    return restrict_to_constraint(from_tangent_frame(skater_frame()), 2)


def skater_h0_restricted(m=1.0, k2=1.0):
    return ScalarField(
        ("x", "y", "phi"),
        ("eta1", "eta2"),
        lambda x, y, phi, e1, e2: (0.5 / m) * (e1 * e1 + (e2 * e2) / k2),
    )


# -- constructors -------------------------------------------------------------


def test_from_tangent_frame_skater():
    alg = from_tangent_frame(skater_frame())
    assert alg.m == alg.rank == 3
    q = (0.2, -0.4, 0.9)
    rho = alg.anchor_array(q)
    assert np.allclose(rho[:, 0], [math.cos(0.9), math.sin(0.9), 0.0], atol=1e-15)
    assert np.max(np.abs(alg.structure(q) - SKATER_C)) <= 1e-14


def test_from_tangent_frame_identity_plane():
    alg = from_tangent_frame(identity_frame(2))
    q = (0.4, 0.7)
    assert np.array_equal(alg.anchor_array(q), np.eye(2))
    assert np.array_equal(alg.structure(q), np.zeros((2, 2, 2)))


def test_from_tangent_frame_polar():
    fr = FrameField(n=2, rho=lambda q: [[1.0, 0.0], [0.0, 1.0 / q[0]]])
    alg = from_tangent_frame(fr)
    assert abs(alg.structure((2.0, 0.0))[1, 0, 1] - 0.5) <= 1e-14


def test_product_with_lie_algebra_ball_shape():
    alg = product_with_lie_algebra(identity_frame(2), 3, so3_constants())
    q = (0.3, 0.8)
    assert alg.m == 2 and alg.rank == 5
    rho = alg.anchor_array(q)
    assert np.array_equal(rho, np.hstack([np.eye(2), np.zeros((2, 3))]))
    c = alg.structure(q)
    assert np.array_equal(c[2:, 2:, 2:], so3_constants())
    assert np.array_equal(c[:2], np.zeros((2, 5, 5)))


def test_product_with_trivial_lie_algebra():
    alg = product_with_lie_algebra(identity_frame(2), 0, np.zeros((0, 0, 0)))
    base = from_tangent_frame(identity_frame(2))
    q = (1.0, -1.0)
    assert np.array_equal(alg.anchor_array(q), base.anchor_array(q))
    assert np.array_equal(alg.structure(q), base.structure(q))


def test_product_rejects_non_antisymmetric_constants():
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = 1.0
    with pytest.raises(ValidationError):
        product_with_lie_algebra(identity_frame(2), 2, bad)


# -- change_frame --------------------------------------------------------------


def test_change_frame_reproduces_tangent_formula_exactly():
    trivial = from_tangent_frame(identity_frame(3))
    fr = skater_frame()
    rotated = change_frame(trivial, fr.rho)
    for phi in (0.0, 0.7, -1.9):
        q = (0.1, 0.2, phi)
        want = structure_functions_tangent(fr, q)
        assert np.array_equal(rotated.structure(q), want)
        assert np.allclose(rotated.anchor_array(q), trivial.anchor_array(q) @ np.array(fr.rho(list(q))), atol=1e-15)


def test_change_frame_identity_is_identity():
    alg = product_with_lie_algebra(identity_frame(2), 3, so3_constants())
    same = change_frame(alg, lambda q: np.eye(5).tolist())
    q = (0.5, -0.5)
    assert np.array_equal(same.anchor_array(q), alg.anchor_array(q))
    assert np.array_equal(same.structure(q), alg.structure(q))


@pytest.mark.parametrize("k2,radius", [(1.0, 1.0), (0.4, 2.0)])
def test_change_frame_ball_constants_match_hand_expansion(k2, radius):
    base = product_with_lie_algebra(identity_frame(2), 3, so3_constants())
    rows = ball_transition_matrix(k2, radius).tolist()
    rotated = change_frame(base, lambda q: rows)
    got = rotated.structure((0.0, 0.0))
    assert np.max(np.abs(got - ball_structure_constants(k2, radius))) <= 1e-13
    anchor = rotated.anchor_array((0.0, 0.0))
    assert np.allclose(
        anchor,
        [[radius, 0.0, 0.0, k2, 0.0], [0.0, -radius, 0.0, 0.0, k2]],
        atol=1e-15,
    )


def matmul(a, b):
    return [[sum((a[i][l] * b[l][j] for l in range(len(b))), 0.0) for j in range(len(b[0]))] for i in range(len(a))]


@st.composite
def frame_changes(draw):
    """A catalog algebroid and a frame change T = D (I + N(q)) with D a
    constant diagonal of powers of two and N strictly upper triangular
    (entries u + v sin(q_l)), with T^-1 = (I - N + N^2 - ...) D^-1 written
    out, so both maps take dual coordinates."""
    alg = build(draw(st.sampled_from(catalog_names()))).dirac.alg
    r = alg.rank
    coeff = st.floats(-1.0, 1.0)
    diag = [draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 2.0])) for _ in range(r)]
    upper = {
        (i, j): (draw(coeff), draw(coeff), draw(st.integers(0, alg.m - 1)))
        for i in range(r)
        for j in range(i + 1, r)
    }

    def nilpotent(q):
        return [
            [upper[i, j][0] + upper[i, j][1] * numcore.sin(q[upper[i, j][2]]) if j > i else 0.0 for j in range(r)]
            for i in range(r)
        ]

    def t_map(q):
        n = nilpotent(q)
        return [[diag[i] * ((1.0 if i == j else 0.0) + n[i][j]) for j in range(r)] for i in range(r)]

    def t_inverse(q):
        minus_n = [[-v for v in row] for row in nilpotent(q)]
        power = [[1.0 if i == j else 0.0 for j in range(r)] for i in range(r)]
        total = power
        for _ in range(r - 1):
            power = matmul(power, minus_n)
            total = [[u + v for u, v in zip(a, b)] for a, b in zip(total, power)]
        return [[total[i][j] / diag[j] for j in range(r)] for i in range(r)]

    q = [draw(st.floats(-1.5, 1.5)) for _ in range(alg.m)]
    return alg, t_map, t_inverse, q


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(frame_changes())
def test_change_frame_there_and_back_returns_anchor_and_structure(case):
    alg, t_map, t_inverse, q = case
    back = change_frame(change_frame(alg, t_map), t_inverse)
    assert np.allclose(back.anchor_array(q), alg.anchor_array(q), rtol=0.0, atol=1e-12)
    assert np.allclose(back.structure(q), alg.structure(q), rtol=0.0, atol=1e-12)


# -- the element contraction ----------------------------------------------------


@pytest.mark.parametrize("name", ["skater_charged", "ball_magnetic"])
def test_rates_matches_einsum_reference(name):
    """qdot = rho x and etadot_b = c^A_{bd} eta_A x^d - rho^l_b a_l on the
    first k sections, for every k up to the rank, within 1e-15 of the sum
    of absolute terms (the rounding scale of either summation order)."""
    alg = build(name).dirac.alg
    rng = np.random.default_rng(11)
    ratios = []
    for k in range(1, alg.rank + 1):
        for _ in range(200):
            q = rng.uniform(-2.0, 2.0, alg.m)
            eta = rng.uniform(-3.0, 3.0, alg.rank)
            x = rng.uniform(-3.0, 3.0, k)
            a = rng.uniform(-3.0, 3.0, alg.m)
            qdot, etadot = alg.rates(q, eta, x, a, k)
            rho = alg.anchor_array(q)[:, :k]
            c = alg.structure(q)[:, :k, :k]
            terms = (
                (qdot, np.einsum("ib,b->i", rho, x), np.abs(rho) @ np.abs(x)),
                (
                    etadot,
                    np.einsum("abd,a,d->b", c, eta, x) - np.einsum("lb,l->b", rho, a),
                    np.einsum("abd,a,d->b", np.abs(c), np.abs(eta), np.abs(x))
                    + np.abs(rho).T @ np.abs(a),
                ),
            )
            for got, want, scale in terms:
                assert got.shape == want.shape
                ratios.extend(np.abs(got - want) / np.maximum(scale, 1e-300))
    assert max_abs(ratios) <= 1e-15
    q, eta = (0.3, -0.2, 0.7)[: alg.m], np.arange(1.0, alg.rank + 1)
    x, a = np.linspace(-1.0, 1.0, alg.rank), np.ones(alg.m)
    for got, want in zip(alg.rates(q, eta, x, a), alg.rates(q, eta, x, a, alg.rank)):
        assert np.array_equal(got, want)


def test_admissibility_of_a_constant_anchor_given_as_a_map_has_the_same_bits():
    alg = build("ball_free").dirac.alg
    anchor = alg.anchor(None)
    mapped = SkewAlgebroid(m=alg.m, rank=alg.rank, anchor=lambda q: anchor, structure=alg.structure)
    rng = np.random.default_rng(23)
    mismatches = 0
    for _ in range(200):
        q = rng.uniform(-1.5, 1.5, alg.m)
        qdot = rng.uniform(-2.0, 2.0, alg.m)
        k = int(rng.integers(1, alg.rank + 1))
        got, want = mapped.admissibility_residual(q, qdot, k), alg.admissibility_residual(q, qdot, k)
        mismatches += np.float64(got).view(np.uint64) != np.float64(want).view(np.uint64)
    assert mismatches == 0



def residual_programs(alg, k) -> dict:
    """The admissibility programs ``alg`` compiled at k, by decision path."""
    return {
        key[2]: program
        for key, program in alg._cache.items()
        if key[:2] == ("admissibility", k) and len(key) == 3
    }


@pytest.fixture
def compile_at_once(monkeypatch):
    """Residual programs compiled from the first float run on."""
    monkeypatch.setattr(algebroid, "RESIDUAL_FLOAT_RUNS", 0)


def float_residual(alg, q, qdot, k) -> float:
    """The residual of a square anchor by the float elimination itself."""
    return max_abs(gauss_solve(alg.anchor(q), [float(v) for v in qdot])[k:])


def same_bits(got, want) -> bool:
    return np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


@pytest.mark.parametrize("float_runs, programs", [(None, 2), (0, 3)])
def test_skater_residuals_across_pivot_orders_have_the_float_bits(float_runs, programs, monkeypatch):
    # phi runs from 0 exactly (sin phi is 0: a zero skip) across pi/4 and 3pi/4,
    # where the row of largest magnitude in the anchor's first column changes.
    # After the float runs, the order met is compiled (|sin| > |cos| at sample
    # 101), then the first order again past 3pi/4; compiled at once, all three
    if float_runs is not None:
        monkeypatch.setattr(algebroid, "RESIDUAL_FLOAT_RUNS", float_runs)
    spec = build("skater_free")
    alg, k = spec.dirac.alg, spec.k
    traj = simulate(spec, PhaseState((0.0, 0.0, 0.0), (1.0, 1.0), full=False), t_end=3.0, dt=1e-3)
    assert len(traj) == 301 and traj.states[0].q[2] == 0.0 and traj.states[-1].q[2] > 3 * math.pi / 4
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    column = traj.observables["admissibility_residual_inf"]
    for state, eta_alpha, got in zip(traj.states, traj.eta_alpha, column):
        qdot = field(*state.q, *state.eta, *eta_alpha)[: alg.m]
        assert same_bits(got, float_residual(alg, state.q, qdot, k))
    assert len(residual_programs(alg, k)) == programs


def test_a_short_run_compiles_no_residual_program():
    alg = build("skater_free").dirac.alg
    for _ in range(algebroid.RESIDUAL_FLOAT_RUNS):
        alg.admissibility_residual((0.0, 0.0, 0.3), [0.3, -0.7, 0.2], 2)
    assert residual_programs(alg, 2) == {}
    alg.admissibility_residual((0.0, 0.0, 0.3), [0.3, -0.7, 0.2], 2)
    assert [p.__code__.co_filename for p in residual_programs(alg, 2).values()] == ["<traced>"]


def test_a_residual_program_gives_up_at_another_pivot_order(compile_at_once):
    alg = build("skater_free").dirac.alg
    qdot = [0.3, -0.7, 0.2]
    alg.admissibility_residual((0.0, 0.0, 0.3), qdot, 2)  # |cos phi| > |sin phi|
    program = alg._cache["admissibility", 2]
    assert program.__code__.co_filename == "<traced>"
    assert same_bits(max_abs(program(0.0, 0.0, 0.5, *qdot)), float_residual(alg, (0.0, 0.0, 0.5), qdot, 2))
    assert alg._cache["admissibility", 2] is program
    q = (0.0, 0.0, 1.2)  # |sin phi| > |cos phi|: the guard on the pivot row gives up
    assert same_bits(max_abs(program(*q, *qdot)), float_residual(alg, q, qdot, 2))
    # the float run it gave up to made the program of its own order the next one
    assert alg._cache["admissibility", 2] is not program
    assert set(residual_programs(alg, 2).values()) == {program, alg._cache["admissibility", 2]}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_velocity_gives_the_float_residual(bad, compile_at_once):
    skater = build("skater_free").dirac.alg
    ball = build("ball_free").dirac.alg
    anchor = ball.anchor(None)
    ball_as_map = SkewAlgebroid(m=2, rank=5, anchor=lambda q: anchor, structure=ball.structure)
    for alg, q, qdot, reference in (
        (skater, (0.1, 0.2, 0.3), [0.3, bad, 0.2], lambda q, qdot, k: float_residual(skater, q, qdot, k)),
        (ball, (0.1, 0.2), [bad, 0.4], ball_as_map.admissibility_residual),
    ):
        k = alg.rank - 1
        alg.admissibility_residual(q, [0.3, -0.7, 0.2][: alg.m], k)
        assert residual_programs(alg, k)
        got, want = alg.admissibility_residual(q, qdot, k), reference(q, qdot, k)
        assert math.isnan(got) if math.isnan(want) else same_bits(got, want)


def test_a_numpy_frame_anchor_keeps_the_float_path(compile_at_once):
    alg = from_tangent_frame(skater_frame())  # frame_matrix converts its entries to floats
    qdot = [0.3, -0.7, 0.2]
    for phi in (0.0, 0.3, 1.2):
        q = (0.1, 0.2, phi)
        assert same_bits(alg.admissibility_residual(q, qdot, 2), float_residual(alg, q, qdot, 2))
    programs = residual_programs(alg, 2).values()
    assert programs and all(program.__code__.co_filename != "<traced>" for program in programs)


def test_a_numpy_frame_anchor_stops_tracing_after_its_first_try(monkeypatch):
    # past the warm-up, the first float run records its decisions and tries one
    # trace, which fails; the later runs, over other pivot orders too, record
    # nothing and try none
    traces = []

    def counted(fn, arity, lead=None):
        traces.append(arity)
        return tracing.compile_traced(fn, arity, lead)

    monkeypatch.setattr(algebroid, "compile_traced", counted)
    alg = from_tangent_frame(skater_frame())
    qdot = [0.3, -0.7, 0.2]
    for k in (1, 2):
        for phi in np.linspace(0.0, 3.0, 300).tolist():
            q = (0.1, 0.2, phi)
            assert same_bits(alg.admissibility_residual(q, qdot, k), float_residual(alg, q, qdot, k))
    assert len(traces) == 2  # one per k
    assert "admissibility" not in {key[0] for key in alg._cache if len(key) == 2}


@pytest.mark.parametrize("phi", [0.0, 0.3, 1.2])
def test_residual_programs_record_no_guard_that_every_float_passes(phi, compile_at_once):
    # v > v and v < v are false for every float, nan included, and so is 0.0 > fabs(v)
    alg = build("skater_free").dirac.alg
    alg.admissibility_residual((0.1, 0.2, phi), [0.3, -0.7, 0.2], 2)
    (program,) = residual_programs(alg, 2).values()
    source = tracing.source_of(program)
    zero = next(name for name, v in program.__globals__.items() if re.fullmatch(r"c\d+", name) and repr(v) == "0.0")
    assert "raise give_up" in source
    assert not re.search(r"if (v\d+) [<>] \1:", source)
    assert not re.search(rf"if {zero} > v\d+:", source)


def residual_program_digest(program) -> str:
    """sha256(source + sorted constants) of a compiled residual program."""
    consts = {name: v for name, v in program.__globals__.items() if re.fullmatch(r"c\d+", name)}
    return hashlib.sha256((tracing.source_of(program) + repr(sorted(consts.items()))).encode()).hexdigest()


# the skater's residual program at each decision path a 0 to 3 rad turn meets, by
# a heading on it, and the ball's constant anchor at k = 3
RESIDUAL_PROGRAM_DIGESTS = {
    "skater_free/phi=0": "ec8a843f20c33ba3ba46822352adfe11de494428e46835609637d29921eaf4cc",
    "skater_free/phi=0.3": "66344ea1c2009edea3d1de2bdaf5f24008ebb1fd19c95ddb6989ca0cd342fac6",
    "skater_free/phi=1.2": "57a219bd6ae4d02c687bb97564fff75f21715949da53a4603ddc2b15b7a41fd8",
    "ball_free/k=3": "98f45fa3293d074206d54571cf09cbf853cee250229f4b1639b458fec7f0d193",
}


def test_admissibility_programs_are_pinned(compile_at_once):
    digests = {}
    for label in RESIDUAL_PROGRAM_DIGESTS:
        name, point = label.split("/")
        alg = build(name).dirac.alg
        if name == "ball_free":
            alg.admissibility_residual((0.1, 0.2), [0.3, -0.7], 3)
            (program,) = residual_programs(alg, 3).values()
        else:
            alg.admissibility_residual((0.1, 0.2, float(point[len("phi=") :])), [0.3, -0.7, 0.2], 2)
            (program,) = residual_programs(alg, 2).values()
        digests[label] = residual_program_digest(program)
    assert digests == RESIDUAL_PROGRAM_DIGESTS


# -- Hamiltonian side -----------------------------------------------------------


def test_hamiltonian_field_constant_h():
    alg = restricted_skater()
    f = ScalarField(("x", "y", "phi"), ("eta1", "eta2"), lambda *a: 3.0)
    qdot, etadot = hamiltonian_vector_field(alg, f, PhaseState((0.1, 0.2, 0.3), (1.0, 2.0)))
    assert np.array_equal(qdot, np.zeros(3)) and np.array_equal(etadot, np.zeros(2))


def test_hamiltonian_field_skater_free_values():
    alg = restricted_skater()
    s = PhaseState((0.0, 0.0, 0.0), (1.0, 1.0))
    qdot, etadot = hamiltonian_vector_field(alg, skater_h0_restricted(), s)
    assert np.allclose(qdot, [1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(etadot, [0.0, 0.0], atol=1e-15)


def test_hamiltonian_field_slope_term():
    lam = 1.0
    h0 = skater_h0_restricted()
    h1 = ScalarField(
        h0.base_names, h0.fiber_names, lambda x, y, phi, e1, e2: h0.fn(x, y, phi, e1, e2) + lam * x
    )
    qdot, etadot = hamiltonian_vector_field(
        restricted_skater(), h1, PhaseState((0.0, 0.0, 0.0), (1.0, 1.0))
    )
    assert abs(etadot[0] + lam) <= 1e-15
    assert abs(etadot[1]) <= 1e-15


def test_energy_derivative_vanishes_along_hamiltonian_field():
    rng = np.random.default_rng(31)
    for name in ("skater_free", "skater_charged", "ball_magnetic"):
        spec = build(name)
        alg = spec.dirac.alg
        for _ in range(30):
            s = PhaseState(rng.uniform(-1.5, 1.5, alg.m), rng.uniform(-2, 2, alg.rank))
            qdot, etadot = hamiltonian_vector_field(alg, spec.hamiltonian, s)
            g = grad(spec.hamiltonian, s.q + s.eta)
            rate = g[: alg.m] @ qdot + g[alg.m :] @ etadot
            scale = np.abs(g[: alg.m] @ qdot) + np.abs(g[alg.m :]) @ np.abs(etadot) + 1e-30
            assert abs(rate) <= 1e-12 * scale


# -- Lagrangian side --------------------------------------------------------------


def test_lagrangian_dynamics_trivial_algebroid():
    alg = from_tangent_frame(identity_frame(3))
    lagr = ScalarField(
        ("q1", "q2", "q3"),
        ("x1", "x2", "x3"),
        lambda q1, q2, q3, x1, x2, x3: 0.5 * (x1 * x1 + x2 * x2 + x3 * x3),
    )
    vs = VelocityState((0.0, 0.0, 0.0), (1.0, -2.0, 0.5))
    eta, qdot, etadot = lagrangian_dynamics(alg, lagr, vs)
    assert np.allclose(eta, vs.x, atol=1e-15)
    assert np.allclose(qdot, vs.x, atol=1e-15)
    assert np.array_equal(etadot, np.zeros(3))


def test_lagrangian_dynamics_skater_restricted():
    alg = restricted_skater()
    lagr = ScalarField(
        ("x", "y", "phi"),
        ("z1", "z2"),
        lambda x, y, phi, z1, z2: 0.5 * (z1 * z1 + z2 * z2),
    )
    eta, qdot, etadot = lagrangian_dynamics(alg, lagr, VelocityState((0.0, 0.0, 0.0), (1.0, 0.0)))
    assert np.allclose(eta, [1.0, 0.0], atol=1e-15)
    assert np.allclose(qdot, [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(etadot, [0.0, 0.0], atol=1e-15)


def _metric_dynamics_reference(alg_c, mass, g_full, potential, vs):
    """Velocity form of the constrained metric dynamics, transcribed
    independently of the Lagrangian-side evaluator, with g the metric on
    the constraint, the (k, k) block of ``g_full`` that it reads:

        eta_a    = m g_ab x^b
        qdot     = rho x
        etadot_b = m c^a_{bd} x^d g_ae x^e
                   + rho^i_b ( (m/2) dg_ae/dq^i x^a x^e - dV/dq^i )
    """
    q = list(vs.q)
    x = np.asarray(vs.x)
    k = alg_c.rank
    duals = numcore.seed_duals(q)
    rows = g_full(duals)
    g_vals = np.array([[numcore.value_of(rows[r][c]) for c in range(k)] for r in range(k)])
    g_part = np.array(
        [[numcore.partials_of(rows[r][c], len(q)) for c in range(k)] for r in range(k)]
    )
    rho = alg_c.anchor_array(q)
    c = alg_c.structure(q)
    gv = grad(potential, q)
    eta = mass * g_vals @ x
    qdot = rho @ x
    quad = np.einsum("ael,a,e->l", g_part, x, x)
    etadot = mass * np.einsum("abd,d,ae,e->b", c, x, g_vals, x) + rho.T @ (
        0.5 * mass * quad - gv
    )
    return eta, qdot, etadot


@pytest.mark.parametrize("name", ["skater_free", "skater_slope", "ball_free"])
def test_mechanical_lagrangian_reproduces_metric_dynamics(name):
    spec = build(name)
    alg_c = restrict_to_constraint(spec.dirac.alg, spec.k)
    metric = spec.metric
    lagr_c = ScalarField(
        spec.base_names,
        tuple(f"x{i+1}" for i in range(spec.k)),
        _restricted_lagrangian_fn(metric, spec.m, spec.k),
    )
    rng = np.random.default_rng(13)
    for _ in range(30):
        vs = VelocityState(rng.uniform(-1.5, 1.5, spec.m), rng.uniform(-2, 2, spec.k))
        eta, qdot, etadot = lagrangian_dynamics(alg_c, lagr_c, vs)
        eta_r, qdot_r, etadot_r = _metric_dynamics_reference(
            alg_c, metric.mass, metric.g_full, metric.potential, vs
        )
        for got, want in ((eta, eta_r), (qdot, qdot_r), (etadot, etadot_r)):
            assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12


def _restricted_lagrangian_fn(metric, m_dim, k):
    def fn(*args):
        q = args[:m_dim]
        x = args[m_dim:]
        rows = metric.g_full(list(q))  # its (k, k) block, read below, is the metric on the constraint
        quad = 0.0
        for a in range(k):
            for b in range(k):
                coeff = rows[a][b]
                if not hasattr(coeff, "partials") and float(coeff) == 0.0:
                    continue
                quad = quad + coeff * x[a] * x[b]
        return 0.5 * metric.mass * quad - metric.potential.fn(*q)

    return fn


# -- Legendre map -----------------------------------------------------------------


def test_legendre_quadratic():
    lagr = ScalarField(("q1", "q2"), ("x1", "x2"), lambda q1, q2, x1, x2: (x1 * x1 + x2 * x2))
    ps = legendre_map(lagr, VelocityState((0.0, 0.0), (1.0, -3.0)))
    assert ps.eta == (2.0, -6.0) and ps.full


def test_legendre_skater_anisotropic():
    # L0 with m = 1, k^2 = 4 at z = (1, 1), differentiated by hand
    lagr = ScalarField(
        ("x", "y", "phi"), ("z1", "z2"),
        lambda x, y, phi, z1, z2: 0.5 * (z1 * z1 + 4.0 * z2 * z2),
    )
    ps = legendre_map(lagr, VelocityState((0.0, 0.0, 0.0), (1.0, 1.0)))
    assert np.allclose(ps.eta, [1.0, 4.0], atol=1e-15)


def test_legendre_magnetic_shift():
    # with a velocity-linear term the momenta pick up the -A shift
    spec = build("skater_charged")
    metric = spec.metric
    a_par = metric.a_par

    def fn(x, y, phi, z1, z2):
        a = a_par((x, y, phi))
        return 0.5 * (z1 * z1 + z2 * z2) - (a[0] * z1 + a[1] * z2)

    lagr = ScalarField(("x", "y", "phi"), ("z1", "z2"), fn)
    q = (0.7, 0.1, 0.4)
    z = np.array([1.3, -0.2])
    ps = legendre_map(lagr, VelocityState(q, z))
    shift = np.asarray(a_par(q))
    assert np.max(np.abs(np.asarray(ps.eta) - (z - shift))) <= 1e-14


def test_legendre_hamilton_consistency():
    rng = np.random.default_rng(29)
    for name in ("skater_free", "skater_slope", "ball_free"):
        spec = build(name)
        alg = spec.dirac.alg
        lagr = mechanical_lagrangian(spec)
        for _ in range(100):
            vs = VelocityState(rng.uniform(-1.5, 1.5, spec.m), rng.uniform(-2, 2, spec.n_fiber))
            eta, qdot_l, etadot_l = lagrangian_dynamics(alg, lagr, vs)
            qdot_h, etadot_h = hamiltonian_vector_field(alg, spec.hamiltonian, legendre_map(lagr, vs))
            assert np.max(np.abs(qdot_h - qdot_l) / (1 + np.abs(qdot_l))) <= 1e-12
            assert np.max(np.abs(etadot_h - etadot_l) / (1 + np.abs(etadot_l))) <= 1e-12


# -- Euler-Lagrange residual along integrated trajectories --------------------------


def _el_residual(spec, dt):
    """Max finite-difference defect of the constrained variational
    equations along an integrated trajectory."""
    from diracmech.checks import slope_reference_ic

    traj = simulate(spec, slope_reference_ic(), t_end=1.0, dt=dt, stride=1)
    data = traj.reduced_array()
    metric = spec.metric
    alg_c = restrict_to_constraint(spec.dirac.alg, spec.k)
    lagr_c = ScalarField(
        spec.base_names,
        tuple(f"x{i+1}" for i in range(spec.k)),
        _restricted_lagrangian_fn(metric, spec.m, spec.k),
    )
    g_inv = np.array(metric.g_inv_sub([0.0, 0.0, 0.0]))
    defects = []
    for i in range(1, len(data) - 1):
        q = data[i, : spec.m]
        eta = data[i, spec.m :]
        x = g_inv @ eta / metric.mass
        _, qdot, etadot = lagrangian_dynamics(alg_c, lagr_c, VelocityState(q, x))
        d_eta = (data[i + 1, spec.m :] - data[i - 1, spec.m :]) / (2 * dt)
        d_q = (data[i + 1, : spec.m] - data[i - 1, : spec.m]) / (2 * dt)
        defects += [*(d_eta - etadot), *(d_q - qdot)]
    return max_abs(defects)


def test_euler_lagrange_residual_second_order():
    spec = build("skater_slope")
    coarse = _el_residual(spec, 2e-3)
    fine = _el_residual(spec, 1e-3)
    assert 3.5 <= coarse / fine <= 4.5


def test_state_shape_validation():
    alg = restricted_skater()
    h = skater_h0_restricted()
    with pytest.raises(Exception) as info:
        hamiltonian_vector_field(alg, h, PhaseState((0.0, 0.0), (1.0, 1.0)))
    assert "DimensionError" in type(info.value).__name__
    from diracmech.errors import DimensionError

    with pytest.raises(DimensionError):
        lagrangian_dynamics(alg, h, VelocityState((0.0, 0.0, 0.0), (1.0,)))
    with pytest.raises(DimensionError):
        hamiltonian_vector_field(
            alg, h, PhaseState((0.0, 0.0, 0.0), (1.0, 1.0), full=False)
        )


@pytest.mark.parametrize(
    "make",
    [
        lambda: PhaseState(q="12", eta="3"),
        lambda: PhaseState(q=(1.0, 2.0), eta=b"3"),
        lambda: PhaseState(q="", eta=(), full=False),
        lambda: VelocityState(q=(0.0,), x="1"),
        lambda: VelocityState(q=b"0", x=(1.0,)),
        lambda: PhaseState(q=[None], eta=[1.0]),
        lambda: PhaseState(q=5, eta=[1.0]),
        lambda: PhaseState(q=["x"], eta=()),
        lambda: PhaseState(q=1.0, eta=()),
        lambda: VelocityState(q=["a"], x=(1.0,)),
    ],
)
def test_states_reject_strings_as_coordinates(make):
    from diracmech.errors import DimensionError

    with pytest.raises(DimensionError, match="sequence of numbers"):
        make()


def test_states_convert_any_numbers_to_float_tuples():
    s = PhaseState(q=np.array([1, 2]), eta=[np.float64(0.5), "3", True], full=0)
    assert (s.q, s.eta, s.full) == ((1.0, 2.0), (0.5, 3.0, 1.0), False)
    assert all(type(v) is float for v in s.q + s.eta)
    assert VelocityState(q=iter([1]), x=(2,)).x == (2.0,)


@pytest.mark.parametrize(
    "anchor, structure, message",
    [
        (lambda q: [[1.0], [0.0]], None, "anchor of shape (2, 1), expected (2, 2)"),
        (lambda q: [[1.0, 0.0, 5.0], [0.0, 1.0, 5.0]], None, "anchor of shape (2, 3), expected (2, 2)"),
        (lambda q: [[1.0, 0.0], [0.0]], None, "anchor of shape (2, [2, 1]), expected (2, 2)"),
        (lambda q: np.eye(3)[:, :2], None, "anchor of shape (3, 2), expected (2, 2)"),
        (np.eye(2), lambda q: np.zeros((2, 2, 3)), "structure of shape (2, 2, 3), expected (2, 2, 2)"),
        (np.eye(2), lambda q: [np.zeros((2, 2)), np.zeros((2, 1))], "structure of shape (2, 2, [2, 2, 1, 1]), expected (2, 2, 2)"),
    ],
)
def test_map_of_the_wrong_shape_is_rejected(anchor, structure, message):
    from diracmech.errors import DimensionError

    structure = np.zeros((2, 2, 2)) if structure is None else structure
    alg = SkewAlgebroid(m=2, rank=2, anchor=anchor, structure=structure)
    for _ in range(2):  # the trace and the call after it
        with pytest.raises(DimensionError) as info:
            alg.rates([0.1, 0.2], [1.0, 2.0], [0.5, 0.5], [0.1, 0.1])
        assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: SkewAlgebroid(m=2, rank=2, anchor=[[1.0]], structure=np.zeros((2, 2, 2))),
            "constant anchor of shape (1, 1), expected (2, 2)",
        ),
        (
            lambda: product_with_lie_algebra(identity_frame(2), 3, np.zeros((2, 2, 2))),
            "lie constants of shape (2, 2, 2), expected (3, 3, 3)",
        ),
        (
            lambda: restrict_to_constraint(build("skater_free").dirac.alg, 0),
            "constraint rank 0 outside 1..3",
        ),
    ],
)
def test_shape_errors_name_the_shapes(call, message):
    with pytest.raises(DimensionError) as info:
        call()
    assert str(info.value) == message
