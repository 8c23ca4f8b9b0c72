"""Fixed-step classical Runge-Kutta integration of the reduced dynamics,
with transverse momenta and diagnostic observables stored per sample.

Each state the integrator lands on is evaluated once
(``dirac.evaluate_reduced``).  That one evaluation is the recorded
sample, the first stage of the next step, and the Newton warm start for
that step's other three stages.  One trajectory is strictly sequential;
identical inputs give bit-identical output.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebroid import PhaseState
from .dirac import evaluate_reduced
from .errors import DimensionError, EngineError, TruncatedTrajectoryError
from .numcore import solve_linear
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


def _rk4_increment(f: Callable, y: np.ndarray, dt: float, k1=None) -> np.ndarray:
    """Four-stage increment (dt/6)(k1 + 2 k2 + 2 k3 + k4) at a flat state.

    ``k1`` is f(y) when the caller has already evaluated it.  Failures are
    re-raised with the stage index attached.
    """
    stage = 0
    try:
        if k1 is None:
            k1 = f(y)
        stage = 1
        k2 = f(y + (0.5 * dt) * k1)
        stage = 2
        k3 = f(y + (0.5 * dt) * k2)
        stage = 3
        k4 = f(y + dt * k3)
    except EngineError as err:
        err.stage_index = stage
        raise
    return (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _compensated_add(y: np.ndarray, comp: np.ndarray, inc: np.ndarray):
    """One Neumaier-compensated update of the accumulated state.

    Long fixed-step runs otherwise accumulate a per-step rounding bias
    linear in the step count, which would drown the O(dt^4) truncation
    error of interest.
    """
    delta = inc + comp
    new = y + delta
    big = np.abs(y) >= np.abs(delta)
    comp = np.where(big, (y - new) + delta, (delta - new) + y)
    return new, comp


def rk4_step(f: Callable, s: PhaseState, dt: float) -> PhaseState:
    """Advance a reduced state by one step of the classical scheme.

    ``f`` maps a reduced PhaseState to (qdot, etadot_a).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    m = len(s.q)

    def on_vec(y):
        qdot, etadot = f(PhaseState(q=y[:m], eta=y[m:], full=False))
        return np.concatenate([np.asarray(qdot, float), np.asarray(etadot, float)])

    y = np.array(s.q + s.eta)
    y = y + _rk4_increment(on_vec, y, dt)
    return PhaseState(q=y[:m], eta=y[m:], full=False)


def _observables_of(spec: SystemSpec, q, eta_a, evaluation) -> dict:
    """Energy plus the two residual diagnostics from one evaluation."""
    eta_alpha, g, qdot, _ = evaluation
    res_cons = g[spec.m + spec.k :]
    return {
        "H": spec.hamiltonian.value((*q, *eta_a, *eta_alpha)),
        "consistency_residual_inf": float(np.max(np.abs(res_cons))) if res_cons.size else 0.0,
        "admissibility_residual_inf": _admissibility_residual(spec, q, qdot),
    }


def observables(spec: SystemSpec, rs: PhaseState, guess=None) -> dict:
    """Energy plus the two residual diagnostics at one reduced state."""
    if rs.full:
        raise DimensionError("reduced phase state required")
    evaluation = evaluate_reduced(
        spec.dirac, spec.hamiltonian, rs.q, rs.eta, guess=guess, solution=spec.consistency
    )
    return _observables_of(spec, rs.q, rs.eta, evaluation)


def _admissibility_residual(spec: SystemSpec, q, qdot) -> float:
    """Largest transverse coefficient of qdot in the frame, or (when the
    anchor is not square) the distance of qdot from the admissible image."""
    rho = spec.dirac.alg.anchor_array(q)
    k = spec.k
    if rho.shape[0] == rho.shape[1]:
        z = solve_linear(rho, qdot)
        trans = z[k:]
        return float(np.max(np.abs(trans))) if trans.size else 0.0
    adm = rho[:, :k]
    z, *_ = np.linalg.lstsq(adm, qdot, rcond=None)
    return float(np.max(np.abs(qdot - adm @ z)))


def simulate(
    spec: SystemSpec,
    ic: PhaseState,
    t_end: float,
    dt: float = 1e-3,
    stride: int = 10,
) -> Trajectory:
    """Integrate from ``ic`` to ``t_end`` recording every stride-th step.

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
    m = spec.m
    guess = None

    def evaluate(y):
        return evaluate_reduced(
            spec.dirac, spec.hamiltonian, y[:m], y[m:], guess=guess, solution=spec.consistency
        )

    def f(y):
        return np.concatenate(evaluate(y)[2:])

    times = []
    states = []
    eta_rows = []
    obs_rows = {name: [] for name in OBSERVABLE_NAMES}

    def record(step_index, y, evaluation):
        rs = PhaseState(q=y[:m], eta=y[m:], full=False)
        times.append(step_index * dt)
        states.append(rs)
        eta_rows.append(evaluation[0])
        obs = _observables_of(spec, rs.q, rs.eta, evaluation)
        for name in OBSERVABLE_NAMES:
            obs_rows[name].append(obs[name])

    def partial() -> Trajectory:
        return Trajectory(
            times=np.array(times),
            states=tuple(states),
            eta_alpha=np.array(eta_rows) if eta_rows else np.zeros((0, spec.n_fiber - spec.k)),
            observables={name: np.array(vals) for name, vals in obs_rows.items()},
        )

    y = np.array(ic.q + ic.eta)
    comp = np.zeros_like(y)
    step = 0
    try:
        for step in range(n_steps + 1):
            if step:
                guess = here[0]
                inc = _rk4_increment(f, y, dt, k1=np.concatenate(here[2:]))
                y, comp = _compensated_add(y, comp, inc)
            recorded = step % stride == 0
            if recorded or step < n_steps:
                # the sample when recorded, and stage 0 of the next step
                try:
                    here = evaluate(y)
                except EngineError as err:
                    err.stage_index = 0
                    raise
            if recorded:
                record(step, y, here)
    except EngineError as err:
        failed_time = step * dt
        raise TruncatedTrajectoryError(
            f"integration of {spec.name!r} failed near t={failed_time:.6g}: {err}",
            partial=partial(),
            failed_time=failed_time,
        ) from err
    return partial()
