"""Fixed-step classical Runge-Kutta integration of the reduced dynamics,
with transverse momenta and diagnostic observables stored per sample.

``simulate`` calls the one compiled field, ``dirac.reduced_field``, flat
as ``field(*y, *guess)`` whatever its consistency kind, and takes all of
a run's steps in the one program ``tracing.rk4_program`` writes per state
length: each step three straight-line calls of the field, then the update
with Neumaier's compensation as a branch-free TwoSum; once the field has
run FUSE_AFTER_STEPS steps, in the same loop with the field's lines, but
float operations that only set the sign of a zero rate, in place of those
calls (``tracing.fused_rk4_program``).  The program hands each recorded
state and its evaluation back; ``simulate`` keeps the time grid, the
observables and the failure handling.  ``rk4_step`` runs the
plain loop for one step.  Each state reached is evaluated once: that
evaluation is k1 of the next step and its Newton warm start.  Only the
evaluations a sample records compute H and grad H; the stages and the
other states ask the field for the derivative and eta_alpha alone.  A
sample's admissibility residual runs a program compiled per pivot order
of the anchor, and its state keeps the loop's float tuples.  Every sum
is in a fixed order, so identical inputs give bit-identical output,
whatever BLAS kernel numpy loads.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebroid import PhaseState
from .dirac import reduced_field
from .errors import DimensionError, EngineError, TruncatedTrajectoryError
from .numcore import max_abs, shape_of
from .systems import SystemSpec
from .tracing import fused_rk4_program, rk4_program

__all__ = ["Trajectory", "rk4_step", "simulate", "observables"]

OBSERVABLE_NAMES = ("H", "consistency_residual_inf", "admissibility_residual_inf")

# Longest run simulate accepts; far above any run in the checks (10^4 steps).
MAX_STEPS = 10**8

# Steps run on one compiled field from which simulate runs its fused loop. Its compile
# (1.7-3.6 ms) pays back after 1,350-2,500 steps, and 2,800-3,100 on newton_ball_magnetic
# (1.0-1.8 µs saved a step, CPython 3.11, x86-64); CI's 3,000-step runs still fuse.
FUSE_AFTER_STEPS = 3000


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one integration run."""

    times: np.ndarray
    states: tuple            # reduced PhaseState per sample
    eta_alpha: np.ndarray    # reconstructed transverse momenta per sample
    observables: dict = field(default_factory=dict)

    def reduced_array(self) -> np.ndarray:
        """Samples as an (n, m + k) array, base coordinates first."""
        return np.array([s.q + s.eta for s in self.states])

    def __len__(self) -> int:
        return len(self.states)


def rk4_step(f: Callable, s: PhaseState, dt: float) -> PhaseState:
    """Advance a reduced state by one step of the classical scheme.

    ``f`` maps a reduced PhaseState to (qdot, etadot_a).
    """
    _require_real("dt", dt)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    m, k = len(s.q), len(s.eta)

    def field(*y):  # the state, then the program's flag, not read
        qdot, etadot = f(PhaseState(q=y[:m], eta=y[m : m + k], full=False))
        if len(qdot) != m or len(etadot) != k:
            raise DimensionError(f"rates of lengths {len(qdot), len(etadot)}, expected {m, k}")
        return (*(float(v) for v in qdot), *(float(v) for v in etadot))

    y = (*s.q, *s.eta)
    try:
        k1 = field(*y)
    except EngineError as err:
        err.stage_index = 0
        raise
    y, _, _ = rk4_program(m + k, 0)(field, None, _propagate, *y, *(0.0,) * (m + k), k1, 1, 1, dt, dt)
    return PhaseState(q=y[:m], eta=y[m:], full=False)


def _propagate(step: int, err: EngineError) -> None:
    """``rk4_step``'s stage errors propagate as they are."""


def _observables_of(spec: SystemSpec, q, evaluation) -> tuple:
    """Energy plus the two residual diagnostics from one evaluation of the
    compiled field (see ``dirac.reduced_field`` for its layout)."""
    alg, k = spec.dirac.alg, spec.dirac.k
    at_h = alg.m + alg.rank  # n + nt
    return (
        evaluation[at_h],
        max_abs(evaluation[at_h + 1 + alg.m + k :]),
        alg.admissibility_residual(q, evaluation[: alg.m], k),
    )


def observables(spec: SystemSpec, rs: PhaseState, guess=None) -> dict:
    """Energy plus the two residual diagnostics at one reduced state."""
    if rs.full:
        raise DimensionError("reduced phase state required")
    if len(rs.q) != spec.m or len(rs.eta) != spec.k:
        raise DimensionError(f"reduced state {len(rs.q), len(rs.eta)} on shape {spec.m, spec.k}")
    nt = spec.n_fiber - spec.k
    guess = (0.0,) * nt if guess is None else _float_guess(guess, nt)
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    return dict(zip(OBSERVABLE_NAMES, _observables_of(spec, rs.q, field(*rs.q, *rs.eta, *guess))))


def _float_guess(guess, nt: int) -> tuple:
    """``guess`` as nt floats, or DimensionError naming the length expected."""
    shape = shape_of(guess)
    if shape and shape[0] != nt:
        raise DimensionError(f"guess of length {shape[0]}, expected {nt}")
    message = f"guess {guess!r} is not a sequence of {nt} numbers"
    if len(shape) != 1:
        raise DimensionError(message)
    try:
        return tuple(float(v) for v in guess)
    except (TypeError, ValueError) as err:
        raise DimensionError(f"{message}: {err}") from err


def _require_real(name: str, value) -> None:
    """ValueError unless ``value`` is a real number; a bool is not one."""
    if type(value) is not float and (type(value) is bool or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _time_grid(t_end: float, dt: float, n_steps: int):
    """The number of steps from 0 to ``t_end`` and the length of the last
    one, from ``n_steps = ceil(t_end / dt)``: whole steps of ``dt``, then
    one shorter step that lands on ``t_end``.  A last step within a few
    ulps of ``t_end`` of ``dt`` is a whole step (``dt`` itself), and one
    within a few ulps of zero is none: that much is the rounding of a
    decimal ``t_end`` and ``dt``, not a remainder."""
    tol = 4.0 * math.ulp(t_end)
    last = t_end - (n_steps - 1) * dt
    if last <= tol and n_steps > 1:
        n_steps -= 1
        last = t_end - (n_steps - 1) * dt
    return n_steps, dt if abs(last - dt) <= tol else last


def simulate(
    spec: SystemSpec,
    ic: PhaseState,
    t_end: float,
    dt: float = 1e-3,
    stride: int = 10,
) -> Trajectory:
    """Integrate from ``ic`` to ``t_end`` recording every stride-th step
    and the final state.  The steps are ``dt`` long, except one shorter last
    step that lands on ``t_end`` when ``t_end`` is not a whole number of
    steps; the final state is then recorded at ``t_end``.  Once the steps
    run on the system's field reach FUSE_AFTER_STEPS, they run in its fused
    loop (``tracing.fused_rk4_program``), which gives the same bits.

    A failure mid-run raises TruncatedTrajectoryError carrying the partial
    trajectory, at the time of the state or step whose evaluation failed:
    the next recorded state where only H or partials the field omits fail.
    """
    integral = type(stride) is int or isinstance(stride, numbers.Integral)
    if not integral or type(stride) is bool:
        raise ValueError(f"stride must be an integer, got {stride!r}")
    _require_real("t_end", t_end)
    _require_real("dt", dt)
    if t_end <= 0.0 or dt <= 0.0 or stride < 1:
        raise ValueError("t_end and dt must be positive, stride at least 1")
    if not all(math.isfinite(v) for v in (t_end, dt, t_end / dt)):
        raise ValueError(f"t_end, dt and t_end/dt must be finite (t_end={t_end!r}, dt={dt!r})")
    if ic.full or len(ic.q) != spec.m or len(ic.eta) != spec.k:
        raise ValueError(
            f"initial condition must be reduced with shapes ({spec.m}, {spec.k})"
        )
    if not all(math.isfinite(v) for v in ic.q + ic.eta):
        raise ValueError(f"initial condition must be finite, got {ic.q + ic.eta!r}")
    n_steps = math.ceil(t_end / dt)
    if n_steps > MAX_STEPS:
        raise ValueError(
            f"t_end={t_end!r} with dt={dt!r} needs {n_steps} steps, "
            f"more than MAX_STEPS={MAX_STEPS}"
        )
    n_steps, last = _time_grid(t_end, dt, n_steps)
    m, n = spec.m, spec.m + spec.k
    nt = spec.n_fiber - spec.k
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)

    times = []
    rows = []  # recorded reduced states
    eta_rows = []
    obs_rows = []

    def partial() -> Trajectory:
        columns = list(zip(*obs_rows)) or [()] * len(OBSERVABLE_NAMES)
        return Trajectory(
            times=np.array(times),
            states=tuple(PhaseState.of_floats(y[:m], y[m:], False) for y in rows),
            eta_alpha=np.array(eta_rows) if eta_rows else np.zeros((0, nt)),
            observables={
                name: np.array(col) for name, col in zip(OBSERVABLE_NAMES, columns)
            },
        )

    def time_of(step):
        return t_end if step == n_steps and last != dt else step * dt

    def failed(step, err):
        failed_time = time_of(step)
        raise TruncatedTrajectoryError(
            f"integration of {spec.name!r} failed near t={failed_time:.6g}: {err}",
            partial=partial(),
            failed_time=failed_time,
        ) from err

    def sample(step, y, here):  # all four columns, or none where the observables raise
        try:
            obs_rows.append(_observables_of(spec, y[:m], here))
        except EngineError as err:
            failed(step, err)
        times.append(time_of(step))
        rows.append(y)
        eta_rows.append(here[n : n + nt])

    def evaluated(step, y, guess):  # the first and the last state
        try:
            here = field(*y, *guess)
        except EngineError as err:
            err.stage_index = 0
            failed(step, err)
        sample(step, y, here)
        return here

    # Newton starts the first state from zeros
    y = (*ic.q, *ic.eta)
    here = evaluated(0, y, (0.0,) * nt)
    # the field's fused loop, cached next to it, once its steps, these included, reach FUSE_AFTER_STEPS
    programs = spec.hamiltonian._programs
    programs["steps", field] = steps = programs.get(("steps", field), 0) + n_steps
    if steps >= FUSE_AFTER_STEPS and ("rk4", field) not in programs:
        programs["rk4", field] = fused_rk4_program(field, n, nt)
    run = programs.get(("rk4", field)) or rk4_program(n, nt)
    # either loop starts from no -0.0, so the fused one gives the same bits (see fused_rk4_program)
    y, _, guess = run(field, sample, failed, *(0.0 + v for v in y), *(0.0,) * n, here, n_steps, stride, dt, last)
    evaluated(n_steps, y, guess)
    return partial()
