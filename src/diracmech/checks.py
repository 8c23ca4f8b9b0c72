"""Named verification suites: oracle equivalence, isotropy, energy and
consistency maintenance, closed-form regressions, structure-function
exactness, derivative correctness, convergence order, and the
Legendre/Hamilton agreement.

Each check is seed-deterministic: its random stream derives from the
run seed and the check name, independent of execution order.
"""

import math
import time
import zlib
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .algebroid import (
    PhaseState,
    VelocityState,
    change_frame,
    hamiltonian_vector_field,
    lagrangian_dynamics,
    legendre_map,
    product_with_lie_algebra,
)
from .dirac import make_element, pairing, pairing_scale, reduced_vector_field
from .errors import CatalogError
from .frame import identity_frame, structure_functions_tangent
from .integrate import simulate
from .numcore import grad, max_abs
from .systems import (
    ball_structure_constants,
    ball_transition_matrix,
    build,
    catalog_names,
    mechanical_lagrangian,
    oracle_reduced_field,
    skater_frame,
    skater_structure_constants,
    so3_constants,
)

__all__ = ["CheckResult", "available_checks", "run_checks"]

GRADIENT_TOL = 1e-6
ORACLE_TOL = 1e-12
ISOTROPY_TOL = 1e-12
ENERGY_DRIFT_TOL = 1e-8
CONSISTENCY_TOL = 1e-10
ADMISSIBILITY_TOL = 1e-11
SKATER_FREE_TOL = 1e-8
SKATER_SLOPE_TOL = 1e-7
STRUCTURE_SKATER_TOL = 1e-14
STRUCTURE_BALL_TOL = 1e-13
CIRCLE_TOL = 1e-6
LINE_TOL = 1e-8
CENTERED_CHARGE_TOL = 1e-9
LEGENDRE_TOL = 1e-12
ORDER_RATIO_RANGE = (14.0, 18.0)

MECHANICAL_SYSTEMS = ("skater_free", "skater_slope", "ball_free")

_ORACLE_CHECK_NAMES = {
    "skater_free": "oracle_mechanical_skater_free",
    "skater_slope": "oracle_mechanical_skater_slope",
    "ball_free": "oracle_mechanical_ball",
    "skater_charged": "oracle_magnetic_skater",
    "ball_magnetic": "oracle_magnetic_ball",
    "ball_harmonic": "oracle_magnetic_ball_harmonic",
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    metric: str
    runtime: float | None = None  # seconds the check took, when timed

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        timing = "" if self.runtime is None else f" runtime={self.runtime:.2f}s"
        return f"CHECK {self.name} {status} {self.metric}{timing}"


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng((int(seed), zlib.crc32(name.encode())))


def _random_reduced(spec, rng, eta_bound=2.0) -> PhaseState:
    q = rng.uniform(-1.5, 1.5, spec.m)
    eta = rng.uniform(-eta_bound, eta_bound, spec.k)
    return PhaseState(q=q, eta=eta, full=False)


def _relative_error(got, want) -> float:
    """The largest |got - want| / (1 + |want|) entry of two arrays; nan if any is nan."""
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


def _max_dev(got, want) -> float:
    """The largest |got - want| entry of two arrays; nan if any is nan."""
    return float(np.max(np.abs(got - want)))


def _bounded(name: str, label: str, errors, tol: float) -> CheckResult:
    """Pass when the largest of ``errors`` is at most ``tol``; by ``max_abs``, a nan fails."""
    worst = max_abs(errors)
    return CheckResult(name, worst <= tol, f"{label}={worst:.3e} tol={tol:g}")


# -- per-system checks ------------------------------------------------------


def check_ad_gradient(spec, seed: int) -> CheckResult:
    """Forward-mode gradients against central finite differences."""
    name = f"ad_gradient_{spec.name}"
    rng = _rng(seed, name)
    h = 1e-6
    field = spec.hamiltonian

    def errors():
        for _ in range(100):
            p = np.concatenate(
                [rng.uniform(-1.5, 1.5, spec.m), rng.uniform(-2.0, 2.0, spec.n_fiber)]
            )
            g = grad(field, p).tolist()  # floats, which max_abs compares fastest
            for j in range(spec.m + spec.n_fiber):
                shifted = p.copy()
                shifted[j] += h
                up = field.value(shifted)
                shifted[j] -= 2 * h
                down = field.value(shifted)
                fd = (up - down) / (2 * h)
                yield abs(g[j] - fd) / (1.0 + abs(fd))

    return _bounded(name, "max_rel_err", errors(), GRADIENT_TOL)


def check_oracle(spec, seed: int) -> CheckResult:
    """Reduced Dirac field against the classical transcription."""
    name = _ORACLE_CHECK_NAMES[spec.name]
    rng = _rng(seed, name)

    def errors():
        for _ in range(100):
            rs = _random_reduced(spec, rng)
            qdot, etadot = reduced_vector_field(
                spec.dirac, spec.hamiltonian, rs, solution=spec.consistency
            )
            qdot_o, etadot_o = oracle_reduced_field(spec, rs)
            yield _relative_error(qdot, qdot_o)
            yield _relative_error(etadot, etadot_o)

    return _bounded(name, "max_err", errors(), ORACLE_TOL)


def check_isotropy(spec, seed: int) -> CheckResult:
    """The pairing vanishes on pairs of structure elements: 1000 random pairs
    from ``make_element``, each pairing against its ``pairing_scale``."""
    name = f"isotropy_{spec.name}"
    widths = (spec.m, spec.n_fiber) + (spec.m, spec.k, spec.dirac.transverse) * 2
    cuts = list(accumulate(widths, initial=0))  # q, eta, then (a, xb, etadot_alpha) twice

    def ratios():
        for row in _isotropy_rows(spec.m, cuts[-1], _rng(seed, name)):
            q, eta, *params = [row[i:j] for i, j in zip(cuts, cuts[1:])]
            s = PhaseState(q=q, eta=eta, full=True)
            e1 = make_element(spec.dirac, s, *params[:3])
            e2 = make_element(spec.dirac, s, *params[3:])
            yield abs(pairing(e1, e2)) / max(pairing_scale(e1, e2), 1e-30)

    return _bounded(name, "max_ratio", ratios(), ISOTROPY_TOL)


def _isotropy_rows(m: int, width: int, rng):
    """1000 rows of ``width`` floats, m in [-1.5, 1.5), the rest in [-2, 2).
    Each block's one ``rng.random`` is mapped as ``lo + span * u``, as
    ``Generator.uniform`` does: the rows are per-call uniforms in order."""
    lo = np.array([-1.5] * m + [-2.0] * (width - m))
    span = np.array([3.0] * m + [4.0] * (width - m))
    for _ in range(20):  # blocks of 50 rows, small so that the draws hold little memory
        yield from (lo + span * rng.random((50, width))).tolist()


def check_energy_and_consistency(spec, seed: int):
    """One trajectory per system serving the drift and residual checks."""
    rng = _rng(seed, f"energy_{spec.name}")
    q = rng.uniform(-1.0, 1.0, spec.m)
    eta = rng.uniform(-1.0, 1.0, spec.k)
    traj = simulate(spec, PhaseState(q=q, eta=eta, full=False), t_end=10.0, dt=1e-3, stride=10)
    h = traj.observables["H"]
    drift = np.abs(h - h[0]) / max(1.0, abs(h[0]))
    res_c = float(np.max(traj.observables["consistency_residual_inf"]))
    res_a = float(np.max(traj.observables["admissibility_residual_inf"]))
    return [
        _bounded(f"energy_{spec.name}", "rel_drift", drift, ENERGY_DRIFT_TOL),
        CheckResult(
            f"consistency_{spec.name}",
            res_c <= CONSISTENCY_TOL and res_a <= ADMISSIBILITY_TOL,
            f"res_consistency={res_c:.3e} res_admissibility={res_a:.3e} "
            f"tols=({CONSISTENCY_TOL:g},{ADMISSIBILITY_TOL:g})",
        ),
    ]


# -- closed-form regressions -------------------------------------------------


def _analytic_errors(spec, ic: PhaseState, t_end: float, dt: float, stride: int):
    """Per sample, the largest |state - closed form| entry of the trajectory from ``ic``."""
    traj = simulate(spec, ic, t_end=t_end, dt=dt, stride=stride)
    y0 = np.array(ic.q + ic.eta)
    samples = zip(traj.times, traj.reduced_array())
    return (_max_dev(row, spec.analytic(y0, float(t))) for t, row in samples)


def check_skater_free_regression(seed: int) -> CheckResult:
    spec = build("skater_free")
    ic = PhaseState(q=(0.0, 0.0, 0.0), eta=(1.0, 1.0), full=False)
    start = time.perf_counter()
    errors = _analytic_errors(spec, ic, t_end=2 * math.pi, dt=1e-3, stride=10)
    result = _bounded("analytic_skater_free", "max_err", errors, SKATER_FREE_TOL)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed <= 2.0
    return replace(result, passed=ok, metric=f"{result.metric} limit=2s", runtime=elapsed)


def slope_reference_ic() -> PhaseState:
    """Initial state traced through the printed slope parameterization with
    family constants (x0, y0, v0, omega0, phi0) = (0, 0, 1, 1, 0)."""
    lam = m = k2 = 1.0
    x0 = y0 = phi0 = 0.0
    v0 = omega0 = 1.0
    eta2 = m * k2 * omega0
    eta1 = -(lam / omega0) * math.sin(phi0) + v0 * m
    x = lam / (4 * m * omega0**2) * math.cos(2 * phi0) + (v0 / omega0) * math.sin(phi0) + x0
    y = lam / (4 * m * omega0**2) * math.sin(2 * phi0) - (v0 / omega0) * math.cos(phi0) + y0
    return PhaseState(q=(x, y, phi0), eta=(eta1, eta2), full=False)


def slope_regression_error(dt: float) -> float:
    spec = build("skater_slope")
    stride = max(1, round(0.01 / dt))
    return max_abs(_analytic_errors(spec, slope_reference_ic(), t_end=10.0, dt=dt, stride=stride))


def check_skater_slope_regression(seed: int) -> CheckResult:
    worst = slope_regression_error(1e-3)
    return _bounded("analytic_skater_slope", "max_err", [worst], SKATER_SLOPE_TOL)


def check_convergence_order(seed: int) -> CheckResult:
    coarse = slope_regression_error(2e-3)
    fine = slope_regression_error(1e-3)
    ratio = coarse / fine if fine else math.inf  # no error to shrink: no fourth order either
    lo, hi = ORDER_RATIO_RANGE
    return CheckResult(
        "convergence_order",
        lo <= ratio <= hi,
        f"ratio={ratio:.2f} range=[{lo:g},{hi:g}]",
    )


# -- structure-function exactness --------------------------------------------


def check_structure_skater(seed: int) -> CheckResult:
    """The frame formula against the constants the skater systems run on."""
    rng = _rng(seed, "structure_skater")
    fr = skater_frame()
    expected = skater_structure_constants()
    phis = (rng.uniform(-math.pi, math.pi) for _ in range(20))
    devs = (_max_dev(structure_functions_tangent(fr, [0.0, 0.0, phi]), expected) for phi in phis)
    return _bounded("structure_skater", "max_dev", devs, STRUCTURE_SKATER_TOL)


def check_structure_ball(seed: int) -> CheckResult:
    """The frame-change rule against the constants the ball systems run on."""
    base = product_with_lie_algebra(identity_frame(2), 3, so3_constants())

    def deviation(k2, radius):
        rows = ball_transition_matrix(k2, radius).tolist()
        rotated = change_frame(base, lambda q: rows)
        return _max_dev(rotated.structure([0.3, -0.7]), ball_structure_constants(k2, radius))

    devs = (deviation(k2, radius) for k2, radius in ((1.0, 1.0), (0.4, 2.0)))
    return _bounded("structure_ball", "max_dev", devs, STRUCTURE_BALL_TOL)


# -- qualitative trajectory shapes -------------------------------------------


def _circumcenter(p1, p2, p3):
    ax, ay = p1
    bx, by = p2
    cx, cy = p3
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    return np.array([ux, uy])


def check_ball_magnetic_circle(seed: int) -> CheckResult:
    spec = build("ball_magnetic")
    p = spec.params
    omega_ref = p["e_c"] * p["B"] * p["R"] ** 2 / (p["m"] * (p["k2"] + p["R"] ** 2))
    period = 2 * math.pi / omega_ref
    traj = simulate(
        spec, PhaseState(q=(0.0, 0.0), eta=(1.0, 0.0, 0.0), full=False),
        t_end=period, dt=1e-3, stride=10,
    )
    xy = traj.reduced_array()[:, :2]
    center = _circumcenter(xy[0], xy[25], xy[50])
    radii = np.linalg.norm(xy - center, axis=1)
    mean_r = float(np.mean(radii))
    radius_var = float(np.max(np.abs(radii - mean_r)) / mean_r)
    theta = np.unwrap(np.arctan2(xy[:, 1] - center[1], xy[:, 0] - center[0]))
    slope = np.polyfit(traj.times, theta, 1)[0]
    omega_err = abs(abs(slope) - omega_ref) / omega_ref
    ok = radius_var <= CIRCLE_TOL and omega_err <= CIRCLE_TOL
    return CheckResult(
        "ball_magnetic_circle",
        ok,
        f"radius_var={radius_var:.3e} omega_err={omega_err:.3e} tol={CIRCLE_TOL:g}",
    )


def check_ball_free_line(seed: int) -> CheckResult:
    spec = build("ball_free")
    traj = simulate(
        spec, PhaseState(q=(0.0, 0.0), eta=(1.0, 0.7, 0.2), full=False),
        t_end=10.0, dt=1e-3, stride=10,
    )
    xy = traj.reduced_array()[:, :2]
    steps = np.diff(xy, axis=0)
    cross = np.abs(steps[:-1, 0] * steps[1:, 1] - steps[:-1, 1] * steps[1:, 0])
    norms = np.linalg.norm(steps[:-1], axis=1) * np.linalg.norm(steps[1:], axis=1)
    return _bounded("ball_free_line", "max_curvature", cross / norms, LINE_TOL)


def check_charged_skater_centered(seed: int) -> CheckResult:
    """With the charge at the blade center the field has no visible effect."""
    ic = PhaseState(q=(0.0, 0.0, 0.0), eta=(1.0, 1.0), full=False)
    free = simulate(build("skater_free"), ic, t_end=10.0, dt=1e-3, stride=10)
    charged = simulate(build("skater_charged", {"d": 0.0}), ic, t_end=10.0, dt=1e-3, stride=10)
    diff = free.reduced_array()[:, :3] - charged.reduced_array()[:, :3]
    return _bounded("charged_skater_centered", "max_diff", diff.flat, CENTERED_CHARGE_TOL)


def check_legendre_hamilton(spec, seed: int) -> CheckResult:
    """Lagrangian-side rates agree with the Hamiltonian vector field after
    the Legendre map, for metric systems."""
    name = f"legendre_hamilton_{spec.name}"
    rng = _rng(seed, name)
    alg = spec.dirac.alg
    lagr = mechanical_lagrangian(spec)

    def errors():
        for _ in range(100):
            vs = VelocityState(
                q=rng.uniform(-1.5, 1.5, spec.m), x=rng.uniform(-2.0, 2.0, spec.n_fiber)
            )
            _, qdot_l, etadot_l = lagrangian_dynamics(alg, lagr, vs)
            ps = legendre_map(lagr, vs)
            qdot_h, etadot_h = hamiltonian_vector_field(alg, spec.hamiltonian, ps)
            yield _relative_error(qdot_h, qdot_l)
            yield _relative_error(etadot_h, etadot_l)

    return _bounded(name, "max_err", errors(), LEGENDRE_TOL)


# -- registry ----------------------------------------------------------------


def available_checks(scope: str = "all"):
    """(name, callable) pairs for the requested scope."""
    registry = []
    names = catalog_names()
    if scope != "all":
        if scope not in names:
            raise CatalogError(f"unknown system {scope!r}; available: {', '.join(names)}")
        names = (scope,)
    for name in names:
        checks = [
            (f"ad_gradient_{name}", check_ad_gradient),
            (_ORACLE_CHECK_NAMES[name], check_oracle),
            (f"isotropy_{name}", check_isotropy),
            (f"energy_{name}", check_energy_and_consistency),
        ]
        if name in MECHANICAL_SYSTEMS:
            checks.append((f"legendre_hamilton_{name}", check_legendre_hamilton))
        for label, check in checks:  # each builds its system when run
            registry.append((label, lambda seed, name=name, check=check: check(build(name), seed)))
    if scope == "all":
        registry.extend(
            [
                ("structure_skater", check_structure_skater),
                ("structure_ball", check_structure_ball),
                ("analytic_skater_free", check_skater_free_regression),
                ("analytic_skater_slope", check_skater_slope_regression),
                ("convergence_order", check_convergence_order),
                ("ball_magnetic_circle", check_ball_magnetic_circle),
                ("ball_free_line", check_ball_free_line),
                ("charged_skater_centered", check_charged_skater_centered),
            ]
        )
    return registry


def run_checks(scope: str = "all", seed: int = 0):
    """Run the selected checks; returns a flat list of CheckResult, each
    with the runtime of the check that produced it (one trajectory serves
    the energy and consistency lines of a system, and both carry its
    runtime)."""
    results = []
    for _, fn in available_checks(scope):
        start = time.perf_counter()
        out = fn(seed)
        elapsed = time.perf_counter() - start
        for result in [out] if isinstance(out, CheckResult) else out:
            if result.runtime is None:
                result = replace(result, runtime=elapsed)
            results.append(result)
    return results
