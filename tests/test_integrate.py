import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from diracmech.algebroid import PhaseState, SkewAlgebroid
from diracmech.checks import ADMISSIBILITY_TOL, CONSISTENCY_TOL, ENERGY_DRIFT_TOL
from diracmech.dirac import ConsistencySolution, reduced_field, solve_consistency
from diracmech.errors import (
    DimensionError,
    NumericDomainError,
    SingularMatrixError,
    TruncatedTrajectoryError,
)
from diracmech.exprparse import parse_text
from diracmech.integrate import MAX_STEPS, observables, rk4_step, simulate
from diracmech.numcore import ScalarField, max_abs
from diracmech.systems import build, hamiltonian_with_potential
from diracmech.tracing import rk4_program


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
    (v,), (err,), () = run(lambda y: (-0.0,), None, None, u, delta, (-0.0,), 1, 1, 1.0, 1.0)
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
