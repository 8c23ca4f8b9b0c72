import math

import numpy as np
import pytest

from diracmech.algebroid import PhaseState, restrict_to_constraint
from diracmech.dirac import (
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
from diracmech.errors import (
    DegenerateHamiltonianError,
    DimensionError,
    ValidationError,
)
from diracmech.frame import decompose
from diracmech.integrate import simulate
from diracmech.numcore import ScalarField, grad, seed_duals, partials_of
from diracmech.systems import build, oracle_reduced_field, skater_frame


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


def test_newton_builds_one_hessian_block_per_residual(monkeypatch):
    from diracmech import dirac

    spec = build("ball_magnetic")
    counts = {"grad": 0, "hessian_block": 0}
    for name in counts:
        original = getattr(dirac, name)

        def counted(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(dirac, name, counted)
    sol = solve_consistency(spec.dirac, spec.hamiltonian, (0.2, -0.1), (1.0, 0.3, -0.2))
    assert np.max(np.abs(sol - [0.0, 0.2])) <= 1e-12
    assert counts["hessian_block"] == counts["grad"] >= 2


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
            z = decompose(fr, rs.q, qdot)
            assert abs(z[2]) <= 1e-12 * max(np.linalg.norm(z), 1e-30)


def test_transverse_momentum_integrability_along_flow():
    # along magnetic trajectories, d/dt eta_alpha tracks dA_alpha/dq . qdot
    # with a second-order finite-difference defect
    spec = build("ball_magnetic")
    ic = PhaseState((0.1, -0.2), (1.0, 0.4, -0.3), full=False)

    def residual(dt):
        traj = simulate(spec, ic, t_end=1.0, dt=dt, stride=1)
        data = traj.reduced_array()
        worst = 0.0
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
                worst = max(worst, abs(d_eta[beta] - gradient @ qdot))
        return worst

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
