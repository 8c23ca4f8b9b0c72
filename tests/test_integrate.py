import math
from dataclasses import replace

import numpy as np
import pytest

from diracmech.algebroid import PhaseState
from diracmech.checks import ADMISSIBILITY_TOL, CONSISTENCY_TOL, ENERGY_DRIFT_TOL
from diracmech.dirac import ConsistencySolution, solve_consistency
from diracmech.errors import NumericDomainError, TruncatedTrajectoryError
from diracmech.exprparse import parse_text
from diracmech.integrate import observables, rk4_step, simulate
from diracmech.numcore import ScalarField
from diracmech.systems import analytic_state, build, hamiltonian_with_potential


def reduced(q, eta):
    return PhaseState(q=q, eta=eta, full=False)


# -- rk4_step ------------------------------------------------------------------


def test_rk4_constant_field():
    def f(s):
        return np.zeros(0), np.ones(1)

    out = rk4_step(f, PhaseState((), (0.0,), full=False), 0.1)
    assert out.eta[0] == 0.1


def test_rk4_linear_field_truncated_exponential():
    def f(s):
        return np.zeros(0), np.array(s.eta)

    out = rk4_step(f, PhaseState((), (1.0,), full=False), 0.1)
    h = 0.1
    expected = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    assert abs(out.eta[0] - expected) <= 1e-15


def test_rk4_single_step_tracks_closed_form():
    spec = build("skater_free")
    ic = reduced((0.0, 0.0, 0.0), (1.0, 1.0))

    def f(s):
        from diracmech.dirac import reduced_vector_field

        return reduced_vector_field(spec.dirac, spec.hamiltonian, s, solution=spec.consistency)

    out = rk4_step(f, ic, 1e-3)
    want = analytic_state(spec, ic, 1e-3)
    assert np.max(np.abs(np.array(out.q + out.eta) - np.array(want.q + want.eta))) <= 1e-14


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        rk4_step(lambda s: (np.zeros(0), np.zeros(1)), PhaseState((), (0.0,), full=False), 0.0)


# -- simulate -------------------------------------------------------------------


def test_simulate_sample_count_and_times():
    spec = build("skater_free")
    traj = simulate(spec, reduced((0, 0, 0), (1, 1)), t_end=1e-3, dt=1e-3, stride=1)
    assert len(traj) == 2
    assert traj.times[0] == 0.0 and traj.times[1] == 1e-3
    longer = simulate(spec, reduced((0, 0, 0), (1, 1)), t_end=0.025, dt=1e-3, stride=10)
    assert len(longer) == 3  # samples at steps 0, 10, 20 of 25
    assert np.allclose(np.diff(longer.times), 0.01, atol=1e-18)


def test_simulate_free_skater_circle_closure():
    spec = build("skater_free")
    traj = simulate(spec, reduced((0, 0, 0), (1, 1)), t_end=2 * math.pi, dt=1e-3, stride=10)
    final = traj.states[-1]
    # one full turn of the heading returns the contact point to the start;
    # the last recorded sample sits within one stride of t = 2 pi
    t_last = traj.times[-1]
    ref = analytic_state(spec, reduced((0, 0, 0), (1, 1)), t_last)
    assert np.max(np.abs(np.array(final.q) - np.array(ref.q))) <= 1e-8
    assert abs(final.q[0]) <= abs(2 * math.pi - t_last) + 1e-8


def test_simulate_slope_mean_downhill_drift():
    spec = build("skater_slope")
    from diracmech.checks import slope_reference_ic

    ic = slope_reference_ic()
    # three full rotation periods, so the oscillatory part of y cancels and
    # the mean slope -lambda/(2 m omega0) = -1/2 remains
    traj = simulate(spec, ic, t_end=6 * math.pi, dt=1e-3, stride=10)
    data = traj.reduced_array()
    slope = (data[-1, 1] - data[0, 1]) / (traj.times[-1] - traj.times[0])
    assert abs(slope - (-0.5)) <= 0.01


def test_simulate_is_deterministic():
    spec = build("ball_harmonic")
    ic = reduced((0.2, -0.1), (1.0, 0.3, -0.2))
    a = simulate(spec, ic, t_end=0.5, dt=1e-3, stride=5)
    b = simulate(spec, ic, t_end=0.5, dt=1e-3, stride=5)
    assert np.array_equal(a.reduced_array(), b.reduced_array())
    assert np.array_equal(a.eta_alpha, b.eta_alpha)
    for key in a.observables:
        assert np.array_equal(a.observables[key], b.observables[key])


def test_simulate_truncation_carries_partial_result():
    # a potential with a log wall fails once the skater crosses x = 0
    spec = hamiltonian_with_potential(build("skater_free"), parse_text("0.001*log(x)"))
    ic = reduced((1.0, 0.0, math.pi), (1.0, 0.001))
    with pytest.raises(TruncatedTrajectoryError) as info:
        simulate(spec, ic, t_end=5.0, dt=1e-3, stride=10)
    err = info.value
    assert err.partial is not None and len(err.partial) >= 1
    assert 0.0 < err.failed_time <= 5.0
    assert isinstance(err.__cause__, NumericDomainError)
    assert hasattr(err.__cause__, "stage_index")


def test_simulate_failure_at_a_reached_state_is_stage_zero():
    # the log wall is already crossed at the initial state
    spec = hamiltonian_with_potential(build("skater_free"), parse_text("0.001*log(x)"))
    with pytest.raises(TruncatedTrajectoryError) as info:
        simulate(spec, reduced((-1.0, 0.0, 0.0), (1.0, 0.0)), t_end=1.0, dt=1e-3)
    err = info.value
    assert err.failed_time == 0.0 and len(err.partial) == 0
    assert err.__cause__.stage_index == 0


def test_simulate_validates_inputs():
    spec = build("skater_free")
    with pytest.raises(ValueError):
        simulate(spec, reduced((0, 0, 0), (1, 1)), t_end=-1.0)
    with pytest.raises(ValueError):
        simulate(spec, reduced((0, 0), (1, 1)), t_end=1.0)


# -- generic Newton path -----------------------------------------------------------


def newton_spec(spec):
    return replace(spec, consistency=ConsistencySolution(kind="newton"))


def quartic_skater():
    """skater_charged plus a quartic transverse term: still convex in
    eta_alpha, but only Newton solves its consistency condition."""
    spec = build("skater_charged")
    base = spec.hamiltonian.fn

    def fn(x, y, phi, e1, e2, e3):
        return base(x, y, phi, e1, e2, e3) + 0.25 * e3**4

    return replace(
        newton_spec(spec),
        name="skater_quartic",
        hamiltonian=ScalarField(spec.base_names, spec.fiber_names, fn),
        analytic=None,
        metric=None,
    )


@pytest.mark.parametrize(
    "name, ic",
    [
        ("skater_charged", reduced((0.1, -0.2, 0.3), (1.0, 0.5))),
        ("ball_magnetic", reduced((0.2, -0.1), (1.0, 0.3, -0.2))),
        ("ball_harmonic", reduced((0.2, -0.1), (1.0, 0.3, -0.2))),
    ],
)
def test_forced_newton_matches_closed_form_path(name, ic):
    spec = build(name)
    closed = simulate(spec, ic, t_end=0.5, dt=1e-3, stride=5)
    forced = simulate(newton_spec(spec), ic, t_end=0.5, dt=1e-3, stride=5)
    for got, want in (
        (forced.reduced_array(), closed.reduced_array()),
        (forced.eta_alpha, closed.eta_alpha),
    ):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12


def test_quartic_transverse_term_holds_invariants():
    spec = quartic_skater()
    traj = simulate(spec, reduced((0.1, -0.2, 0.3), (1.0, 0.5)), t_end=1.0, dt=1e-3, stride=10)
    assert len(traj) == 101
    h = traj.observables["H"]
    assert np.max(np.abs(h - h[0])) / max(1.0, abs(h[0])) <= ENERGY_DRIFT_TOL
    assert np.max(traj.observables["consistency_residual_inf"]) <= CONSISTENCY_TOL
    assert np.max(traj.observables["admissibility_residual_inf"]) <= ADMISSIBILITY_TOL


@pytest.mark.parametrize(
    "name",
    ["skater_free", "skater_slope", "skater_charged", "ball_free", "ball_magnetic", "ball_harmonic", "quartic"],
)
def test_recorded_samples_equal_fresh_evaluations(name):
    # a generic solve at a recorded state starts from the previous state's
    # solution, so the quartic run records every step
    spec = quartic_skater() if name == "quartic" else build(name)
    stride = 1 if name == "quartic" else 3
    ic = reduced((0.1, -0.2, 0.3)[: spec.m], (1.0, 0.5, -0.2)[: spec.k])
    traj = simulate(spec, ic, t_end=0.05, dt=1e-3, stride=stride)
    guess = None
    for i, rs in enumerate(traj.states):
        eta_alpha = solve_consistency(
            spec.dirac, spec.hamiltonian, rs.q, rs.eta, guess=guess, solution=spec.consistency
        )
        assert np.array_equal(traj.eta_alpha[i], eta_alpha)
        obs = observables(spec, rs, guess=guess)
        for key, value in obs.items():
            assert traj.observables[key][i] == value
        if spec.consistency.kind == "newton":
            guess = traj.eta_alpha[i]


# -- observables ------------------------------------------------------------------


def test_observables_free_skater_energy():
    spec = build("skater_free")
    obs = observables(spec, reduced((0.3, 0.4, 0.5), (1.0, 1.0)))
    assert obs["H"] == 1.0
    assert obs["consistency_residual_inf"] == 0.0
    assert obs["admissibility_residual_inf"] <= 1e-15


def test_observables_rest_state_zero_energy():
    for name in ("skater_free", "ball_free"):
        spec = build(name)
        obs = observables(spec, reduced((0.1,) * spec.m, (0.0,) * spec.k))
        assert obs["H"] == 0.0


def test_observables_residuals_small_everywhere():
    rng = np.random.default_rng(3)
    for name in ("skater_charged", "ball_magnetic"):
        spec = build(name)
        for _ in range(20):
            rs = reduced(rng.uniform(-1.5, 1.5, spec.m), rng.uniform(-2, 2, spec.k))
            obs = observables(spec, rs)
            assert obs["consistency_residual_inf"] <= 1e-12
            assert obs["admissibility_residual_inf"] <= 1e-12


# -- convergence order --------------------------------------------------------------


def test_fourth_order_on_slope_skater_short_run():
    from diracmech.checks import slope_reference_ic

    spec = build("skater_slope")
    ic = slope_reference_ic()

    def max_err(dt):
        stride = max(1, round(0.05 / dt))
        traj = simulate(spec, ic, t_end=1.0, dt=dt, stride=stride)
        worst = 0.0
        for t, row in zip(traj.times, traj.reduced_array()):
            ref = spec.analytic(np.array(ic.q + ic.eta), float(t))
            worst = max(worst, float(np.max(np.abs(row - ref))))
        return worst

    coarse, fine = max_err(1e-2), max_err(5e-3)
    assert 14.0 <= coarse / fine <= 18.0


def test_energy_drift_tiny_over_long_run():
    spec = build("ball_harmonic")
    traj = simulate(spec, reduced((0.4, -0.2), (1.0, 0.5, 0.3)), t_end=10.0, dt=1e-3, stride=50)
    h = traj.observables["H"]
    assert np.max(np.abs(h - h[0])) / max(1.0, abs(h[0])) <= 1e-8


def test_rk4_step_attaches_stage_index_on_failure():
    calls = {"n": 0}

    def failing(s):
        calls["n"] += 1
        if calls["n"] == 3:
            raise NumericDomainError("boom")
        return np.zeros(0), np.ones(1)

    with pytest.raises(NumericDomainError) as info:
        rk4_step(failing, PhaseState((), (0.0,), full=False), 0.1)
    assert info.value.stage_index == 2


def test_single_step_simulate_matches_rk4_step():
    # with nothing yet to compensate, one simulate step equals one rk4_step
    spec = build("ball_magnetic")
    ic = reduced((0.3, -0.1), (1.0, 0.2, -0.4))

    def f(s):
        from diracmech.dirac import reduced_vector_field

        return reduced_vector_field(spec.dirac, spec.hamiltonian, s, solution=spec.consistency)

    stepped = rk4_step(f, ic, 1e-3)
    traj = simulate(spec, ic, t_end=1e-3, dt=1e-3, stride=1)
    assert traj.states[-1].q == stepped.q
    assert traj.states[-1].eta == stepped.eta
