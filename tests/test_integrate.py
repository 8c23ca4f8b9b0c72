import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracmech.algebroid import PhaseState, SkewAlgebroid
from diracmech.checks import ADMISSIBILITY_TOL, CONSISTENCY_TOL, ENERGY_DRIFT_TOL
from diracmech.dirac import ConsistencySolution, reduced_field, solve_consistency
from diracmech.errors import (
    DimensionError,
    NumericDomainError,
    SingularMatrixError,
    TruncatedTrajectoryError,
)
from diracmech import integrate, numcore, tracing
from diracmech.exprparse import parse_text
from diracmech.integrate import MAX_STEPS, OBSERVABLE_NAMES, observables, rk4_step, simulate
from diracmech.numcore import ScalarField, max_abs
from diracmech.systems import build, hamiltonian_with_potential
from diracmech.tracing import fused_rk4_program, rk4_program, source_of
from test_compiled import SPECS, potentials


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
    want = spec.analytic(np.array(ic.q + ic.eta), 1e-3)
    assert np.max(np.abs(np.array(out.q + out.eta) - want)) <= 1e-14


@pytest.mark.parametrize("dt", [0.0, math.nan, math.inf, "0.1", None, True])
def test_rk4_rejects_bad_step(dt):
    with pytest.raises(ValueError):
        rk4_step(lambda s: (np.zeros(0), np.zeros(1)), PhaseState((), (0.0,), full=False), dt)


@pytest.mark.parametrize("stage", [0, 2])
@pytest.mark.parametrize("lengths", [(1, 1), (2, 0), (3, 1), (2, 2), (0, 0)])
def test_rk4_step_rejects_rates_of_the_wrong_length(stage, lengths):
    calls = []

    def f(s):
        calls.append(s)
        if len(calls) == stage + 1:
            return np.zeros(lengths[0]), np.zeros(lengths[1])
        return np.zeros(2), np.ones(1)

    with pytest.raises(DimensionError) as info:
        rk4_step(f, PhaseState((0.0, 0.0), (1.0,), full=False), 0.1)
    assert str(info.value) == f"rates of lengths {lengths}, expected (2, 1)"
    assert info.value.stage_index == stage
    assert len(calls) == stage + 1


# -- simulate -------------------------------------------------------------------


def test_simulate_sample_count_and_times():
    spec = build("skater_free")
    traj = simulate(spec, reduced((0, 0, 0), (1, 1)), t_end=1e-3, dt=1e-3, stride=1)
    assert len(traj) == 2
    assert traj.times[0] == 0.0 and traj.times[1] == 1e-3
    longer = simulate(spec, reduced((0, 0, 0), (1, 1)), t_end=0.025, dt=1e-3, stride=10)
    assert len(longer) == 4  # samples at steps 0, 10, 20 of 25, and the final state
    assert np.allclose(np.diff(longer.times[:3]), 0.01, atol=1e-18)
    assert longer.times[-1] == 0.025


def test_simulate_records_the_final_state_off_the_stride():
    spec = build("skater_free")
    ic = reduced((0.1, -0.2, 0.3), (1.0, 0.5))
    traj = simulate(spec, ic, t_end=1.0, dt=1e-3, stride=7)
    assert traj.times[-2] == 994 * 1e-3 and traj.times[-1] == 1.0
    every = simulate(spec, ic, t_end=1.0, dt=1e-3, stride=1)
    assert traj.states[-1] == every.states[-1]
    assert len(every) == 1001 and every.times[-1] == 1.0


def test_simulate_lands_on_t_end_with_one_shorter_step():
    spec = build("skater_free")
    ic = reduced((0.0, 0.0, 0.0), (1.0, 1.0))
    traj = simulate(spec, ic, t_end=2 * math.pi, dt=1e-3, stride=10)
    assert traj.times[-2] == 6280 * 1e-3 and traj.times[-1] == 2 * math.pi
    final, want = traj.states[-1], spec.analytic(np.array(ic.q + ic.eta), 2 * math.pi)
    assert np.max(np.abs(np.array(final.q + final.eta) - want)) <= 1e-12
    short = simulate(spec, ic, t_end=1e-4, dt=1e-3, stride=1)
    assert short.times.tolist() == [0.0, 1e-4]
    final, want = short.states[-1], spec.analytic(np.array(ic.q + ic.eta), 1e-4)
    assert np.max(np.abs(np.array(final.q + final.eta) - want)) <= 1e-15


# ceil(t_end / dt) overshoots by one step for the last two cases
@pytest.mark.parametrize(
    "t_end, dt, steps",
    [(1.1, 0.1, 11), (0.3, 0.1, 3), (0.7, 0.1, 7), (0.025, 1e-3, 25), (0.07, 0.01, 7), (2.1, 0.7, 3)],
)
def test_simulate_counts_a_last_step_within_rounding_of_dt_as_whole(t_end, dt, steps):
    traj = simulate(build("skater_free"), reduced((0, 0, 0), (1, 1)), t_end=t_end, dt=dt, stride=1)
    assert traj.times.tolist() == [step * dt for step in range(steps + 1)]


def test_simulate_free_skater_circle_closure():
    spec = build("skater_free")
    traj = simulate(spec, reduced((0, 0, 0), (1, 1)), t_end=2 * math.pi, dt=1e-3, stride=10)
    final = traj.states[-1]
    # one full turn of the heading returns the contact point to the start;
    # the last recorded sample sits within one stride of t = 2 pi
    t_last = traj.times[-1]
    ref = spec.analytic(np.array([0.0, 0.0, 0.0, 1.0, 1.0]), float(t_last))
    assert np.max(np.abs(np.array(final.q) - ref[: spec.m])) <= 1e-8
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


@pytest.mark.parametrize(
    "stride, t_end, failed_time",
    [(1, 0.02, 0.001), (4, 0.02, 0.004), (100, 0.005, 0.005)],
)
def test_where_only_h_fails_a_recorded_or_final_state_fails(stride, t_end, failed_time):
    # -x^2 pulls the skater out past sqrt(max float) within the first step,
    # where x**2 overflows and its partial -2x does not: the stages and the
    # states no sample reads do not evaluate H, the next sample or the final
    # state does, in full
    spec = hamiltonian_with_potential(build("skater_free"), parse_text("-x^2"))
    with pytest.raises(TruncatedTrajectoryError) as info:
        simulate(spec, reduced((1.34078e154, 0.0, 0.0), (1e150, 0.0)), t_end=t_end, dt=1e-3, stride=stride)
    err = info.value
    assert err.failed_time == failed_time and err.__cause__.stage_index == 0
    assert str(err.__cause__) == "power overflow for exponent 2"
    assert len(err.partial) == 1 and err.partial.times.tolist() == [0.0]


def test_simulate_failure_in_a_sample_carries_no_stage(monkeypatch):
    # the third recorded sample's admissibility residual raises: the partial
    # trajectory holds the two samples before it, and nothing of the third
    calls = []

    def singular(self, q, qdot, k):
        calls.append(q)
        if len(calls) == 3:
            raise SingularMatrixError("singular constraint block")
        return 0.0

    monkeypatch.setattr(SkewAlgebroid, "admissibility_residual", singular)
    with pytest.raises(TruncatedTrajectoryError) as info:
        simulate(build("skater_free"), reduced((0.1, -0.2, 0.3), (1.0, 0.5)), t_end=0.1, dt=1e-3)
    err = info.value
    assert err.failed_time == 20 * 1e-3
    assert str(err) == "integration of 'skater_free' failed near t=0.02: singular constraint block"
    assert len(err.partial) == 2 and len(err.partial.times) == 2
    assert [len(col) for col in err.partial.observables.values()] == [2, 2, 2]
    assert isinstance(err.__cause__, SingularMatrixError)
    assert not hasattr(err.__cause__, "stage_index")


def test_simulate_validates_inputs():
    spec = build("skater_free")
    with pytest.raises(ValueError):
        simulate(spec, reduced((0, 0, 0), (1, 1)), t_end=-1.0)
    with pytest.raises(ValueError):
        simulate(spec, reduced((0, 0), (1, 1)), t_end=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_simulate_rejects_non_finite_initial_condition(bad):
    with pytest.raises(ValueError, match=r"initial condition must be finite, got \(0\.0, 0\.0, 1\.0, 0\.0, "):
        simulate(build("ball_free"), reduced((0.0, 0.0), (1.0, 0.0, bad)), t_end=0.01)


@pytest.mark.parametrize("argument", ["t_end", "dt"])
@pytest.mark.parametrize("bad", ["1", None, True, [1.0]])
def test_simulate_rejects_a_time_that_is_not_a_number(argument, bad):
    times = {"t_end": 1.0, "dt": 1e-3, argument: bad}
    with pytest.raises(ValueError) as info:
        simulate(build("skater_free"), reduced((0, 0, 0), (1, 1)), **times)
    assert str(info.value) == f"{argument} must be a real number, got {bad!r}"


def test_simulate_rejects_runs_above_max_steps():
    assert MAX_STEPS == 10**8
    with pytest.raises(ValueError) as info:
        simulate(build("skater_free"), reduced((0, 0, 0), (1, 1)), t_end=1e9, dt=1e-12)
    message = str(info.value)
    assert "t_end=1000000000.0" in message and "dt=1e-12" in message
    assert f"needs {math.ceil(1e9 / 1e-12)} steps" in message


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


# SHA-256 over the bytes of reduced_array, eta_alpha and every observable
# (keys sorted) of four Newton runs, recorded with the nested-dual Hessian
# sweep as Newton's Jacobian.
NEWTON_DIGESTS = {
    "skater_charged": "71bd2d15ff8a2c9aa6c313b62f9f6789f76e36d1dffd785d1dc079e1bb0447d6",
    "ball_magnetic": "7c3103957100bc2c9e9632f048b6fc5044c0d3398720978f912a8e54e20de5c3",
    "ball_harmonic": "afc774d4e2d662fb1777037d15b034f042b4d858e68deaeea709b222d05f7f06",
    "quartic": "15c95e29e83dffa3acac6749d37f0a0324523bdfb61fccd82e6427604503991d",
}


def trajectory_digest(traj):
    h = hashlib.sha256()
    for arr in (traj.reduced_array(), traj.eta_alpha):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    for key in sorted(traj.observables):
        h.update(key.encode())
        h.update(np.ascontiguousarray(traj.observables[key], dtype=float).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(NEWTON_DIGESTS))
def test_newton_trajectories_are_pinned_bit_for_bit(name):
    if name == "quartic":
        spec, t_end, stride = quartic_skater(), 1.0, 10
        ic = reduced((0.1, -0.2, 0.3), (1.0, 0.5))
    else:
        spec, t_end, stride = newton_spec(build(name)), 0.5, 5
        ic = reduced((0.1, -0.2, 0.3), (1.0, 0.5)) if spec.m == 3 else reduced((0.2, -0.1), (1.0, 0.3, -0.2))
    traj = simulate(spec, ic, t_end=t_end, dt=1e-3, stride=stride)
    assert len(traj) == 101
    assert trajectory_digest(traj) == NEWTON_DIGESTS[name]


def test_newton_with_a_traced_two_by_two_block_is_pinned_bit_for_bit():
    # quartic terms in both transverse momenta make the block traced and 2 x 2:
    # the field runs the float Newton loop, and keeps its bits
    spec = build("ball_magnetic")
    base = spec.hamiltonian.fn

    def fn(x, y, e1, e2, e3, e4, e5):
        return base(x, y, e1, e2, e3, e4, e5) + 0.25 * (e4**4 + e5**4)

    spec = replace(newton_spec(spec), hamiltonian=ScalarField(spec.base_names, spec.fiber_names, fn))
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    assert field.__code__.co_filename != "<traced>"
    traj = simulate(spec, reduced((0.2, -0.1), (1.0, 0.3, -0.2)), t_end=0.5, dt=1e-3, stride=5)
    assert len(traj) == 101
    assert trajectory_digest(traj) == "f148dc768dabb6349190ad66f6bb3f22dff7a021f659a00cbf499f8f1965a8c1"


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


@pytest.mark.parametrize("stride", [2.5, 2.0, np.float64(2.0), True, "2", None])
def test_simulate_rejects_a_stride_that_is_not_an_integer(stride):
    spec = build("skater_free")
    with pytest.raises(ValueError) as info:
        simulate(spec, reduced((0, 0, 0), (1, 1)), t_end=0.01, dt=1e-3, stride=stride)
    assert str(info.value) == f"stride must be an integer, got {stride!r}"


def test_simulate_takes_a_numpy_integer_stride():
    spec, ic = build("skater_free"), reduced((0.1, -0.2, 0.3), (1.0, 0.5))
    plain = simulate(spec, ic, t_end=0.01, dt=1e-3, stride=2)
    numpy_int = simulate(spec, ic, t_end=0.01, dt=1e-3, stride=np.int64(2))
    assert len(plain) == 6
    assert trajectory_digest(numpy_int) == trajectory_digest(plain)


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
        y0 = np.array(ic.q + ic.eta)
        return max_abs(
            v for t, row in zip(traj.times, traj.reduced_array()) for v in row - spec.analytic(y0, float(t))
        )

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


# -- the generated step ---------------------------------------------------------


@pytest.mark.parametrize(
    "text, seed, dt, stage, failed_time, partial_len",
    [
        ("0.001*log(x)", 0, 0.02, 1, 0.16, 3),
        ("log(x)", 8, 0.01, 2, 0.07, 3),
        ("log(x)", 21, 0.02, 2, 0.12, 2),
        ("0.001*log(x)", 2, 0.01, 3, 0.09, 3),
    ],
)
def test_simulate_failure_in_a_stage_carries_its_index(text, seed, dt, stage, failed_time, partial_len):
    # the skater heads into a log wall at x = 0 from a seeded distance; where
    # the wall sits within the last step decides which stage crosses it
    spec = hamiltonian_with_potential(build("skater_free"), parse_text(text))
    x0 = float(np.random.default_rng(seed).uniform(0.05, 0.2))
    with pytest.raises(TruncatedTrajectoryError) as info:
        simulate(spec, reduced((x0, 0.0, math.pi), (1.0, 0.001)), t_end=1.0, dt=dt, stride=3)
    err = info.value
    assert err.__cause__.stage_index == stage
    assert err.failed_time == failed_time
    assert str(err) == (
        f"integration of 'skater_free' failed near t={failed_time:g}: log of a non-positive value"
    )
    assert len(err.partial) == partial_len


def neumaier(u, delta):
    """The compensated update as a branch on the larger magnitude."""
    v = u + delta
    return v, (u - v) + delta if abs(u) >= abs(delta) else (delta - v) + u


def generated_update(u, delta):
    """The update of u by delta in one step of the generated run: every
    stage slope is -0.0, so the increment is -0.0 and the carried error is
    the whole of delta."""
    run = rk4_program(1, 0)
    (v,), (err,), () = run(lambda y, lead: (-0.0,), None, None, u, delta, (-0.0,), 1, 1, 1.0, 1.0)
    return v, err


TINY = 5e-324
BIGGEST = 1.7976931348623157e308


@pytest.mark.parametrize(
    "u, delta",
    [
        (0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (1.0, -0.0), (-0.0, -1.0),
        (TINY, TINY), (TINY, -TINY), (2.2250738585072014e-308, -TINY), (1e-310, 3e-310),
        (TINY, 1.0), (-1.0, 3 * TINY),
        (1.0, 2.0**-53), (1.0 + 2.0**-52, 2.0**-53), (2.0**53, 1.0), (2.0**53 + 2.0, -1.0),
        (1.5, 1.5), (1.5, -1.5), (0.1, -0.1), (-0.1, 0.1 + 2.0**-56),
        (BIGGEST, 9.9e291), (BIGGEST, -1e300), (-BIGGEST, 0.5), (1e308, 7e307), (1e308, -1e308),
        (0.1, 0.2), (1e16, 1.0), (1.0, 1e-16), (-3.0, 1e-300),
        (1e-16, 1.0), (2.0**-53, 1.0), (2.0**-60, -3.0), (0.1, 0.7), (-1e-300, 1e300),
    ],
)
def test_twosum_update_equals_the_neumaier_branch(u, delta):
    want = [x.hex() for x in neumaier(u, delta)]
    assert [x.hex() for x in generated_update(u, delta)] == want


def test_overflowing_update_leaves_a_non_finite_error_either_way():
    # where u + delta overflows the branch leaves -inf and TwoSum nan
    for u, delta in ((BIGGEST, 1e292), (-1e308, -1e308)):
        got, want = generated_update(u, delta), neumaier(u, delta)
        assert got[0] == want[0] and math.isinf(got[0])
        assert not math.isfinite(got[1]) and not math.isfinite(want[1])


# SHA-256 (trajectory_digest) of one run per system whose t_end = 0.2505
# leaves a last step of half a dt, at stride 7, from a seeded initial state;
# recorded with the stage loop and the branch form of the compensated update
SHORT_LAST_STEP_DIGESTS = {
    "ball_free": "4768a9a8fc43f8171ddc56c21c14334f1da9d3249f42fc0e6e739ab210e4955c",
    "ball_harmonic": "dc48841b00f6ae777a9ae1c534e5a4bc63e179ed7b26d91f407269efdb46affa",
    "ball_magnetic": "ddc07af8f289ddd97d190a9764e04d38c0ac3dee1ad86150ad449340a43ff445",
    "skater_charged": "d96f274d40f383b80e63943b689f93026556561243276f4e121d6cd2745792a6",
    "skater_free": "77894d1b8443fb36b233c6217815b72e4c8eef9d694b9ec0260a4e6efcc14ed1",
    "skater_slope": "81951759368c7adb7f02ee0984c42b45fef0e6a6dfebc9cff10a8bf1ea859869",
    "quartic": "eb6f3739f544c3a3f50fe6fffb66e69c69b34dc5e1b37f7fefb0341287ebe352",
}


@pytest.mark.parametrize("name", sorted(SHORT_LAST_STEP_DIGESTS))
def test_short_last_step_trajectories_are_pinned_bit_for_bit(name):
    spec = quartic_skater() if name == "quartic" else build(name)
    rng = np.random.default_rng(23)
    ic = reduced(rng.uniform(-0.5, 0.5, spec.m), rng.uniform(0.5, 1.5, spec.k))
    traj = simulate(spec, ic, t_end=0.2505, dt=1e-3, stride=7)
    assert len(traj) == 37 and traj.times[-2:].tolist() == [0.245, 0.2505]
    assert trajectory_digest(traj) == SHORT_LAST_STEP_DIGESTS[name]


@pytest.mark.parametrize(
    "name, guess",
    [
        ("skater_charged", [0.1, 0.2]),
        ("skater_free", []),
        ("ball_magnetic", [0.1]),
        ("newton_skater_charged", [0.1, 0.2]),
        ("newton_ball_harmonic", (0.1, 0.2, 0.3)),
    ],
)
def test_observables_reject_a_guess_of_the_wrong_length(name, guess):
    if name.startswith("newton_"):
        spec = newton_spec(build(name[len("newton_"):]))
    else:
        spec = build(name)
    rs = reduced((0.1, -0.2, 0.3)[: spec.m], (1.0, 0.5, -0.2)[: spec.k])
    nt = spec.n_fiber - spec.k
    with pytest.raises(DimensionError) as info:
        observables(spec, rs, guess=guess)
    assert str(info.value) == f"guess of length {len(guess)}, expected {nt}"
    assert observables(spec, rs, guess=[0.0] * nt) == observables(spec, rs)


@pytest.mark.parametrize(
    "guess, reason",
    [
        (0.5, ""),
        ("a", ""),
        ([[0.1]], ""),
        (["x"], ": could not convert string to float: 'x'"),
        ([None], ": float() argument must be a string or a real number, not 'NoneType'"),
    ],
)
@pytest.mark.parametrize("name", ["skater_charged", "newton_skater_charged"])
def test_observables_reject_a_guess_that_is_not_numbers(name, guess, reason):
    spec = build("skater_charged")
    if name.startswith("newton_"):
        spec = newton_spec(spec)
    rs = reduced((0.1, -0.2, 0.3), (1.0, 0.5))
    with pytest.raises(DimensionError) as info:
        observables(spec, rs, guess=guess)
    assert str(info.value) == f"guess {guess!r} is not a sequence of 1 numbers{reason}"
    assert observables(spec, rs, guess=np.array([0.0])) == observables(spec, rs)


@pytest.mark.parametrize(
    "state, message",
    [
        (PhaseState(q=(0.1, 0.2, 0.3), eta=(1.0, 0.5, 0.0), full=True), "reduced phase state required"),
        (reduced((0.0, 0.0), (1.0, 1.0)), "reduced state (2, 2) on shape (3, 2)"),
    ],
)
def test_observables_rejects_states_of_another_shape(state, message):
    with pytest.raises(DimensionError) as info:
        observables(build("skater_free"), state)
    assert str(info.value) == message


# -- the fused loop ------------------------------------------------------------------

# SHA-256 (trajectory_digest) of one 3,000-step run (t_end = 3, dt = 1e-3,
# stride 10) per catalog system from its golden CSV state, and of the quartic
# skater, whose consistency only Newton solves; recorded with the plain step
# loop, which calls the field in every stage.  A run this long takes the
# field's fused loop from its first step.
LONG_RUN_DIGESTS = {
    "ball_free": "7b7494bb4554768464e82a8116a6119c8359436afb561ed1586aac2c5acb4492",
    "ball_harmonic": "705837ca68ff6eea09b0139fa604cda71fb4d115eae0b9c593b217d23f7d0782",
    "ball_magnetic": "7b3d500b7edd19488bffd174f6f73fd3eb031959b416153a86803d31df2f8d4d",
    "skater_charged": "7bd11a05ff3f8463c552cb0a619d8732d9e0096732d56509d4523017da132f9b",
    "skater_free": "a7b5eb981a7e79c4c18ee6679c368cc7a6bf2d494e5ad13b09a39669127c0076",
    "skater_slope": "afe08a8ac5f7a33d192c7ce81a385a9ddabf2c2d3a3114ee2f7f9e66699c6ad5",
    "quartic": "c64684abfdc99f0c7ce92ef153417286c5c5bc1b4398d7913b7591d34445c4e0",
}
LONG_RUN_IC = {
    "ball_free": ((0.2, -0.1), (1.0, 0.3, -0.2)),
    "ball_harmonic": ((0.2, -0.1), (1.0, 0.3, -0.2)),
    "ball_magnetic": ((0.2, -0.1), (1.0, 0.3, -0.2)),
    "skater_charged": ((0.1, -0.2, 0.3), (1.0, 0.5)),
    "skater_free": ((0.1, -0.2, 0.3), (1.0, 0.5)),
    "skater_slope": ((0.25, -1.0, 0.0), (1.0, 1.0)),
    "quartic": ((0.1, -0.2, 0.3), (1.0, 0.5)),
}


def long_run(name):
    spec = quartic_skater() if name == "quartic" else build(name)
    return simulate(spec, reduced(*LONG_RUN_IC[name]), t_end=3.0, dt=1e-3, stride=10)


@pytest.mark.parametrize("name", sorted(LONG_RUN_DIGESTS))
def test_long_runs_are_pinned_bit_for_bit(name):
    traj = long_run(name)
    assert len(traj) == 301
    assert trajectory_digest(traj) == LONG_RUN_DIGESTS[name]


FUSED_SYSTEMS = (*sorted(LONG_RUN_IC), "newton_ball_harmonic", "newton_ball_magnetic", "newton_skater_charged")


def fused_system(name):
    """A fresh system of FUSED_SYSTEMS, so that no steps were run on its field."""
    if name == "quartic":
        return quartic_skater()
    return newton_spec(build(name[len("newton_") :])) if name.startswith("newton_") else build(name)


def fused_loop(spec):
    """The loop simulate runs on ``spec``'s field once it has fused it."""
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    return spec.hamiltonian._programs["rk4", field]


def plain_and_fused(monkeypatch, make_spec, run):
    """``run(spec)`` on a fresh system through the plain loop, then on
    another through the fused one: the two results, or the two errors."""
    outcomes = []
    for threshold in (math.inf, 1):
        monkeypatch.setattr(integrate, "FUSE_AFTER_STEPS", threshold)
        spec = make_spec()
        try:
            outcomes.append(run(spec))
        except TruncatedTrajectoryError as err:
            outcomes.append(err)
        field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
        assert (("rk4", field) in spec.hamiltonian._programs) == (threshold == 1)
    assert "raise give_up" in source_of(fused_loop(spec))
    return outcomes


@pytest.mark.parametrize("t_end, stride", [(0.2, 1), (0.2, 10), (0.2505, 10)])
@pytest.mark.parametrize("name", FUSED_SYSTEMS)
def test_the_fused_loop_gives_the_plain_loops_bits(monkeypatch, name, t_end, stride):
    ic = reduced(*LONG_RUN_IC[name.removeprefix("newton_")])
    plain, fused = plain_and_fused(
        monkeypatch, lambda: fused_system(name), lambda spec: simulate(spec, ic, t_end=t_end, dt=1e-3, stride=stride)
    )
    assert len(fused) == len(plain) == (200 // stride + 1 if t_end == 0.2 else 27)
    assert fused.times.tolist() == plain.times.tolist()
    assert [s.q + s.eta for s in fused.states] == [s.q + s.eta for s in plain.states]
    assert bits(fused.eta_alpha).tolist() == bits(plain.eta_alpha).tolist()
    for key in OBSERVABLE_NAMES:
        assert bits(fused.observables[key]).tolist() == bits(plain.observables[key]).tolist()


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize(
    "stage, make_spec, ic, dt, stride, failed_time, partial_len",
    [
        # the log wall at x = 0 is crossed in stage 2 (see the stage-index test)
        (2, lambda: hamiltonian_with_potential(build("skater_free"), parse_text("log(x)")),
         (float(np.random.default_rng(8).uniform(0.05, 0.2)), 0.0, math.pi), 0.01, 3, 0.07, 3),
        # a domain error only within 1e-6 of the state reached at step 5, which no stage
        # comes near, and no sample records at stride 3
        (0, lambda: hamiltonian_with_potential(build("skater_free"), parse_text(
            "0*log((x-0.4340191751651761)^2+(y-0.1439190215442247)^2-1e-12)")),
         (0.1, -0.2, 0.3), 0.1, 3, 0.5, 2),
    ],
)
def test_the_fused_loop_fails_where_the_plain_loop_fails(monkeypatch, stage, make_spec, ic, dt, stride, failed_time,
                                                           partial_len):
    eta = (1.0, 0.001) if stage else (1.0, 2.0)
    plain, fused = plain_and_fused(
        monkeypatch, make_spec, lambda spec: simulate(spec, reduced(ic, eta), t_end=1.0, dt=dt, stride=stride)
    )
    for err in (plain, fused):
        assert isinstance(err, TruncatedTrajectoryError)
        assert err.__cause__.stage_index == stage and isinstance(err.__cause__, NumericDomainError)
        assert err.failed_time == failed_time and len(err.partial) == partial_len
        assert [len(col) for col in err.partial.observables.values()] == [partial_len] * 3
    assert str(fused) == str(plain) == f"integration of 'skater_free' failed near t={failed_time:g}: log of a non-positive value"
    assert trajectory_digest(fused.partial) == trajectory_digest(plain.partial)


def test_a_fused_newton_stage_that_gives_up_calls_the_field(monkeypatch):
    # a one-pass Newton loop converges only where its start already solves the
    # condition, so at every stage of the quartic skater the fused lines give up
    monkeypatch.setattr(numcore, "NEWTON_UNROLLED", 0)
    spec = quartic_skater()
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    n, nt = spec.m + spec.k, spec.n_fiber - spec.k
    fused = fused_rk4_program(field, n, nt)
    assert "for _ in " in source_of(fused)
    y = (0.1, -0.2, 0.3, 1.0, 0.5)
    here = field(*y, 0.0)
    runs = []
    for program in (rk4_program(n, nt), fused):
        calls, samples = [], []

        def counted(*xs):
            calls.append(xs[-1])
            return field(*xs)

        out = program(counted, lambda step, y, a: samples.append((step, y, a)), None, *y, *(0.0,) * n, here, 40, 7, 1e-3, 1e-3)
        runs.append((out, samples, calls))
    (plain_out, plain_samples, plain_calls), (fused_out, fused_samples, fused_calls) = runs
    assert fused_out == plain_out and fused_samples == plain_samples and len(fused_samples) == 5
    # the plain loop calls the field at every stage and state; the fused one
    # where its lines give up, here at each stage and unrecorded state, and at
    # the states a sample records
    assert len(plain_calls) == 4 * 40 - 1
    assert fused_calls.count(True) > 3 * 40 and fused_calls.count(0) == 5


# SHA-256 of the text of each system's fused loop: the RK4 loop with the
# lines of the field before its early return written into every stage
FUSED_PROGRAM_DIGESTS = {
    "ball_free": "1cd7eddf16d60312cbd05998e3c85037895330cfe0886111120c3adf1bbb7569",
    "ball_harmonic": "e55f4ed59ec9324e40575a3c36203bc56f52328e5d559a2c1a7d02c339b9b0a6",
    "ball_magnetic": "5037520c8dc43bf99cd44d1587d1eda9a484cc410bbe3df9762a4abb580f73ee",
    "quartic": "3cf0591deb24249f6de4c5252fb6f368f7774f4e985b8e3091e4b664cb96bdae",
    "skater_charged": "b95585d134b74e888674af2aa1ea4654a99c95257b0c64bbb206470ba961de7a",
    "skater_free": "e663e0fa853dbbc1d9f7e8a96b0a20597f54fefcf487857da92805fe396d3442",
    "skater_slope": "b12bd5f16309c06da4934bf5978ef7c200e1c982d5326fdccd88fa5550311f70",
    "newton_ball_harmonic": "14fddbf36fb90c81592e736521f69e31de80a8fefafe1cbbf6f76dc8fb2e5e57",
    "newton_ball_magnetic": "ed736b29a71d66afa30f41176fa3f21dac911b2fec2013c96ae64ab4d6b6cbb2",
    "newton_skater_charged": "97be3a674869f109fcb1474c5c2707ef0face4e020e9af1ce8d51a131986ba25",
}


def test_fused_programs_are_pinned():
    digests = {}
    for name in FUSED_PROGRAM_DIGESTS:
        spec = fused_system(name)
        field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
        text = source_of(fused_rk4_program(field, spec.m + spec.k, spec.n_fiber - spec.k))
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == FUSED_PROGRAM_DIGESTS


def test_a_compiled_field_is_fused_without_tracing_it_again(monkeypatch):
    specs = {name: fused_system(name) for name in FUSED_PROGRAM_DIGESTS}
    fields = {name: reduced_field(spec.dirac, spec.hamiltonian, spec.consistency) for name, spec in specs.items()}

    def no_trace(*args):
        raise AssertionError("a field's lines are traced again")

    monkeypatch.setattr(tracing, "Tracer", no_trace)
    digests = {}
    for name, spec in specs.items():
        n, nt = spec.m + spec.k, spec.n_fiber - spec.k
        fused = fused_rk4_program(fields[name], n, nt)
        assert fused is not rk4_program(n, nt)
        digests[name] = hashlib.sha256(source_of(fused).encode()).hexdigest()
    assert digests == FUSED_PROGRAM_DIGESTS


def test_a_fresh_48_step_run_compiles_no_fused_loop(monkeypatch):
    # as a record op does: a system built afresh with a potential, 48 steps at stride 1
    spec = hamiltonian_with_potential(build("skater_charged"), parse_text("0.3*sin(x)+y^2/(2+cos(x))"))
    n, nt = spec.m + spec.k, spec.n_fiber - spec.k
    rk4_program(n, nt)  # compiled once per state length
    compiled = []

    def counted(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(tracing, "compile", counted, raising=False)
    monkeypatch.setattr(integrate, "FUSE_AFTER_STEPS", 100)
    per_run = []
    for _ in range(4):
        before = len(compiled)
        simulate(spec, reduced((0.1, -0.2, 0.3), (1.0, 0.5)), t_end=0.048, dt=1e-3, stride=1)
        per_run.append(compiled[before:].count("<rk4>"))
    # 48 and 96 steps run on the field: none; 144 pass 100: one, kept for later runs
    assert per_run == [0, 0, 1, 0]
    assert "raise give_up" in source_of(fused_loop(spec))


def test_an_untraceable_field_is_not_fused(monkeypatch):
    from test_reduced_field import branching_skater

    monkeypatch.setattr(integrate, "FUSE_AFTER_STEPS", 1)
    spec = branching_skater()
    simulate(spec, reduced((0.5, 0.1, 0.2), (1.0, 0.5)), t_end=0.01, dt=1e-3)
    assert fused_loop(spec) is rk4_program(spec.m + spec.k, spec.n_fiber - spec.k)


# -- the rewrite of the fused stages -------------------------------------------------


def rewritten(fn, arity, lead, n):
    """The lines ``fused_rk4_program`` writes from ``fn``'s trace, whose
    first ``lead`` outputs lead and first ``n`` are rates, before and after
    its rewrite: each text, then the outputs, the names the stage's check
    sums and the constants after it."""
    lines, outputs, consts = tracing._source(fn, arity, lead)[2]
    kept, outputs_after, consts_after = tracing._rewrite(lines, outputs, consts, n)
    after = tracing._live_lines(kept[:-1], outputs_after)
    return tracing._live_lines(lines, outputs), after, outputs_after, list(kept[-1].reads), consts_after


def test_the_rewrite_folds_constants_and_exact_identities_wherever_they_are_read():
    # x - x is 0.0 for a finite x, which the check adds; (0.0 + 3.0) * 2.0 is done
    # now, and -0.0 + x1, from 0.0 * -1.0, is x1 also for the guess
    before, after, outputs, check, consts = rewritten(lambda x, y: (((x - x) + 3.0) * 2.0, (x - x) * -1.0 + y), 2, 2, 1)
    assert before == ["v0 = x0 - x0", "v2 = c1 * (c0 + v0)", "v4 = (c2 * v0) + x1"] and after == []
    assert repr(consts[outputs[0]]) == "6.0" and outputs[1] == "x1" and check == [outputs[0], "x1", "x0"]
    # -1.0 * x is -x and x ** 1.0 is x, also for guesses only
    before, after, outputs, check, _ = rewritten(lambda x, y: (x**1.0 + -1.0 * y, y), 2, 2, 0)
    assert before == ["v2 = (x0 ** c0) + (c1 * x1)"] and after == ["v2 = x0 + (-x1)"] and check == ["v2", "x1"]


def test_the_rewrite_drops_zeros_from_rates_alone():
    def fn(x, y):
        return 0.0 + x * y, 0.0 * x + y, (y + 0.0) - (-0.0)

    before, after, outputs, check, _ = rewritten(fn, 2, 3, 3)
    assert before == ["v1 = c0 + (x0 * x1)", "v3 = (c0 * x0) + x1", "v5 = (c0 + x1) - c1"]
    # 0.0 + x, x + 0.0 and x - -0.0 are x, and 0.0 * x is 0.0 with x checked
    assert after == ["v0 = x0 * x1"] and outputs == ["v0", "x1", "x1"] and check == ["v0", "x1", "x1", "x0"]
    # a guess sees the sign of a zero: nothing changes
    assert rewritten(fn, 2, 3, 0)[:2] == (before, before)


def test_a_line_that_a_rate_and_a_guess_read_is_left_as_it_is():
    before, after, outputs, check, _ = rewritten(lambda x, y: (0.0 + x * y, 0.0 + x * y), 2, 2, 1)
    assert after == before == ["v1 = c0 + (x0 * x1)"] and outputs == check == ["v1", "v1"]


@pytest.mark.parametrize("name", ["quartic", "newton_ball_harmonic", "newton_ball_magnetic", "newton_skater_charged"])
def test_a_newton_fields_guess_lines_are_left_as_they_are(name):
    spec = fused_system(name)
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    lines, lead, consts = field.lead_lines
    n = spec.m + spec.k
    kept, outputs, _ = tracing._rewrite(lines, lead, consts, n)
    # the Loop's lines, its carried writes and every line they read
    needed, guess_lines = set(lead[n:]), []
    for line in reversed(lines):
        if line.name in needed or line.depth or line.name is None and line.form.split(" = ")[0] in needed:
            needed.update(line.reads)
            guess_lines.append(line)
    assert outputs[n:] == lead[n:] and len(guess_lines) > 8
    assert set(guess_lines) <= set(kept)


def test_the_fused_loop_checks_what_a_product_with_zero_drops():
    # the rate reads x = y * 1e300 only through 0.0 * x, which its stage drops; where
    # x overflows (y > 1.8e8, after 18 steps) the field gives nan, and the stage, which
    # checks x, calls it, so the fused loop carries the same nan as the plain loop
    field = tracing.compile_traced(lambda y: (0.0 + (1e10 + 0.0 * (y * 1e300)),), 1, lead=1)
    fused = fused_rk4_program(field, 1, 0)
    assert "k1_0 = c" in source_of(fused)  # the rate is the constant 1e10
    runs = []
    for program in (rk4_program(1, 0), fused):
        samples = []
        out = program(field, lambda step, y, k: samples.append((step, y, k)), None, 1.0, 0.0, field(1.0), 40, 7, 1e-3, 1e-3)
        runs.append(repr((out, samples)))
    assert runs[0] == runs[1] and "nan" in runs[0]


def test_skater_free_stages_add_no_zero_and_multiply_by_none():
    spec = fused_system("skater_free")
    program = fused_rk4_program(reduced_field(spec.dirac, spec.hamiltonian, spec.consistency), 5, 1)
    zeros = [name for name, value in program.__globals__.items() if type(value) is float and value == 0.0]
    text = source_of(program)
    assert zeros and "= field(" in text
    for zero in zeros:
        assert not re.search(rf"\b{zero} [+*] |[-+*] {zero}\b", text)


def state_component(momentum):
    """A signed zero, a subnormal, an ordinary value or one near 1e154, whose
    square is near the largest float; for a momentum also one near 2^1023."""
    near = [(0.5e154, 1.5e154)] + [(2.0**1022 * 1.5, 2.0**1023 * 1.99)] * momentum
    return st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-2.2e-308, 2.2e-308),
        st.floats(-1.5, 1.5),
        *(st.floats(*span).flatmap(lambda v: st.sampled_from([v, -v])) for span in near),
    )


@st.composite
def drawn_runs(draw):
    name = draw(st.sampled_from(sorted(SPECS)))
    spec = SPECS[name]
    q = tuple(draw(state_component(False)) for _ in range(spec.m))
    eta = tuple(draw(state_component(True)) for _ in range(spec.k))
    # a step near 1e154 takes a state near 1e154 near 2^1023 within a stage
    dt = draw(st.sampled_from([1e-3, 1.0, 2e154]))
    return name, draw(potentials(spec.base_names)), draw(st.booleans()), reduced(q, eta), dt


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(drawn_runs())
# the force -1e154 takes eta_1 to -1e308 in stage 1, where eta_1 + eta_1 overflows
@example(("skater_free", "(x*y)", False, reduced((0.0, 1e154, 0.0), (1.0, 1.0)), 2e154))
def test_the_fused_loop_gives_the_plain_loops_bits_on_drawn_systems_and_states(case):
    # 40 steps at stride 7 through the plain loop, then through the fused one: the
    # same bits, or the same failure at the same time and stage after the same samples
    name, text, newton, ic, dt = case
    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        for threshold in (math.inf, 1):
            patch.setattr(integrate, "FUSE_AFTER_STEPS", threshold)
            spec = hamiltonian_with_potential(SPECS[name], parse_text(text))
            try:
                traj = simulate(newton_spec(spec) if newton else spec, ic, t_end=40 * dt, dt=dt, stride=7)
                outcomes.append((bits(traj.times).tolist(), trajectory_digest(traj)))
            except TruncatedTrajectoryError as err:
                cause, partial = err.__cause__, err.partial
                outcomes.append((type(cause), str(err), err.failed_time, cause.stage_index, len(partial), trajectory_digest(partial)))
            except OverflowError as err:  # a float potential's ** under Newton, in both loops alike
                outcomes.append((type(err), str(err)))
    assert outcomes[0] == outcomes[1]
