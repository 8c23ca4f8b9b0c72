"""Fixed-step classical Runge-Kutta integration of the reduced dynamics,
with transverse momenta and diagnostic observables stored per sample.

``simulate`` steps on the system's compiled reduced field
(``dirac.reduced_field``), and runs RK4 and the compensated update on
Python floats; the arrays of the ``Trajectory`` are built once, at the
end.  Each state the integrator lands on is evaluated once.  That one
evaluation is the recorded sample (H comes from it too), the first stage
of the next step, and the Newton warm start for that step's other three
stages.  One trajectory is strictly sequential, and every sum is in a
fixed order: identical inputs give bit-identical output, whatever BLAS
kernel numpy loads.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebroid import PhaseState
from .dirac import reduced_field
from .errors import DimensionError, EngineError, TruncatedTrajectoryError
from .numcore import max_abs
from .systems import SystemSpec

__all__ = ["Trajectory", "rk4_step", "simulate", "observables"]

OBSERVABLE_NAMES = ("H", "consistency_residual_inf", "admissibility_residual_inf")

# Longest run simulate accepts; far above any run in the checks (10^4 steps).
MAX_STEPS = 10**8


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


def _rk4_increment(f: Callable, y: list, dt: float, k1=None) -> list:
    """Four-stage increment (dt/6)(k1 + 2 k2 + 2 k3 + k4) at a flat state
    of floats.

    ``k1`` is f(y) when the caller has already evaluated it.  Failures are
    re-raised with the stage index attached.
    """
    stage = 0
    half = 0.5 * dt
    try:
        if k1 is None:
            k1 = f(y)
        stage = 1
        k2 = f([u + half * v for u, v in zip(y, k1)])
        stage = 2
        k3 = f([u + half * v for u, v in zip(y, k2)])
        stage = 3
        k4 = f([u + dt * v for u, v in zip(y, k3)])
    except EngineError as err:
        err.stage_index = stage
        raise
    sixth = dt / 6.0
    return [sixth * (a + 2.0 * b + 2.0 * c + d) for a, b, c, d in zip(k1, k2, k3, k4)]


def _compensated_add(y: list, comp: list, inc: list):
    """One Neumaier-compensated update of the accumulated state.

    Long fixed-step runs otherwise accumulate a per-step rounding bias
    linear in the step count, which would drown the O(dt^4) truncation
    error of interest.
    """
    new, new_comp = [], []
    for u, c, i in zip(y, comp, inc):
        delta = i + c
        v = u + delta
        new.append(v)
        new_comp.append((u - v) + delta if abs(u) >= abs(delta) else (delta - v) + u)
    return new, new_comp


def rk4_step(f: Callable, s: PhaseState, dt: float) -> PhaseState:
    """Advance a reduced state by one step of the classical scheme.

    ``f`` maps a reduced PhaseState to (qdot, etadot_a).
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    m = len(s.q)

    def on_vec(y):
        qdot, etadot = f(PhaseState(q=y[:m], eta=y[m:], full=False))
        return [*(float(v) for v in qdot), *(float(v) for v in etadot)]

    y = list(s.q + s.eta)
    y = [u + v for u, v in zip(y, _rk4_increment(on_vec, y, dt))]
    return PhaseState(q=y[:m], eta=y[m:], full=False)


def _observables_of(spec: SystemSpec, q, evaluation) -> tuple:
    """Energy plus the two residual diagnostics from one evaluation of the
    compiled field (see ``dirac.reduced_field`` for its layout)."""
    n = spec.m + spec.k
    nt = spec.n_fiber - spec.k
    return (
        evaluation[n + nt],
        max_abs(evaluation[n + nt + 1 + n :]),
        spec.dirac.alg.admissibility_residual(q, evaluation[: spec.m], spec.k),
    )


def observables(spec: SystemSpec, rs: PhaseState, guess=None) -> dict:
    """Energy plus the two residual diagnostics at one reduced state."""
    if rs.full:
        raise DimensionError("reduced phase state required")
    if len(rs.q) != spec.m or len(rs.eta) != spec.k:
        raise DimensionError(
            f"reduced state ({len(rs.q)}, {len(rs.eta)}) on shape ({spec.m}, {spec.k})"
        )
    evaluate = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    evaluation = evaluate([*rs.q, *rs.eta], guess)
    return dict(zip(OBSERVABLE_NAMES, _observables_of(spec, rs.q, evaluation)))


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
    steps; the final state is then recorded at ``t_end``.

    A failure mid-run raises TruncatedTrajectoryError carrying the partial
    trajectory, at the time of the state or step whose evaluation failed.
    """
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
    evaluate = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    guess = None

    def f(y):
        return evaluate(y, guess)[:n]

    times = []
    rows = []  # recorded reduced states
    eta_rows = []
    obs_rows = []

    def partial() -> Trajectory:
        columns = list(zip(*obs_rows)) or [()] * len(OBSERVABLE_NAMES)
        return Trajectory(
            times=np.array(times),
            states=tuple(PhaseState(q=y[:m], eta=y[m:], full=False) for y in rows),
            eta_alpha=np.array(eta_rows) if eta_rows else np.zeros((0, nt)),
            observables={
                name: np.array(col) for name, col in zip(OBSERVABLE_NAMES, columns)
            },
        )

    def time_of(step):
        return t_end if step == n_steps and last != dt else step * dt

    y = [*ic.q, *ic.eta]
    comp = [0.0] * n
    step = 0
    try:
        for step in range(n_steps + 1):
            if step:
                guess = here[n : n + nt]
                h = dt if step < n_steps else last
                inc = _rk4_increment(f, y, h, k1=here[:n])
                y, comp = _compensated_add(y, comp, inc)
            # the sample when recorded, and stage 0 of the next step
            try:
                here = evaluate(y, guess)
            except EngineError as err:
                err.stage_index = 0
                raise
            if step % stride == 0 or step == n_steps:
                times.append(time_of(step))
                rows.append(y)
                eta_rows.append(here[n : n + nt])
                obs_rows.append(_observables_of(spec, y[:m], here))
    except EngineError as err:
        failed_time = time_of(step)
        raise TruncatedTrajectoryError(
            f"integration of {spec.name!r} failed near t={failed_time:.6g}: {err}",
            partial=partial(),
            failed_time=failed_time,
        ) from err
    return partial()
