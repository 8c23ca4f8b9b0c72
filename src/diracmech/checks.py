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
from .numcore import grad
from .systems import (
    ball_structure_constants,
    ball_transition_matrix,
    build,
    catalog_names,
    mechanical_lagrangian,
    oracle_reduced_field,
    skater_frame,
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
MAGNETIC_SYSTEMS = ("skater_charged", "ball_magnetic", "ball_harmonic")

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


# -- per-system checks ------------------------------------------------------


def check_ad_gradient(spec, seed: int) -> CheckResult:
    """Forward-mode gradients against central finite differences."""
    name = f"ad_gradient_{spec.name}"
    rng = _rng(seed, name)
    h = 1e-6
    worst = 0.0
    field = spec.hamiltonian
    for _ in range(100):
        p = np.concatenate(
            [rng.uniform(-1.5, 1.5, spec.m), rng.uniform(-2.0, 2.0, spec.n_fiber)]
        )
        g = grad(field, p)
        for j in range(spec.m + spec.n_fiber):
            shifted = p.copy()
            shifted[j] += h
            up = field.value(shifted)
            shifted[j] -= 2 * h
            down = field.value(shifted)
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(g[j] - fd) / (1.0 + abs(fd)))
    return CheckResult(name, worst <= GRADIENT_TOL, f"max_rel_err={worst:.3e} tol={GRADIENT_TOL:g}")


def check_oracle(spec, seed: int) -> CheckResult:
    """Reduced Dirac field against the classical transcription."""
    name = _ORACLE_CHECK_NAMES[spec.name]
    rng = _rng(seed, name)
    worst = 0.0
    for _ in range(100):
        rs = _random_reduced(spec, rng)
        qdot, etadot = reduced_vector_field(
            spec.dirac, spec.hamiltonian, rs, solution=spec.consistency
        )
        qdot_o, etadot_o = oracle_reduced_field(spec, rs)
        for got, want in ((qdot, qdot_o), (etadot, etadot_o)):
            err = np.max(np.abs(got - want) / (1.0 + np.abs(want)))
            worst = max(worst, float(err))
    return CheckResult(name, worst <= ORACLE_TOL, f"max_err={worst:.3e} tol={ORACLE_TOL:g}")


def check_isotropy(spec, seed: int) -> CheckResult:
    """The pairing vanishes on pairs of structure elements: 1000 random pairs
    from ``make_element``, each pairing against its ``pairing_scale``."""
    name = f"isotropy_{spec.name}"
    widths = (spec.m, spec.n_fiber) + (spec.m, spec.k, spec.dirac.transverse) * 2
    cuts = list(accumulate(widths, initial=0))  # q, eta, then (a, xb, etadot_alpha) twice
    worst = 0.0
    for row in _isotropy_rows(spec.m, cuts[-1], _rng(seed, name)):
        q, eta, *params = [row[i:j] for i, j in zip(cuts, cuts[1:])]
        s = PhaseState(q=q, eta=eta, full=True)
        e1, e2 = make_element(spec.dirac, s, *params[:3]), make_element(spec.dirac, s, *params[3:])
        worst = max(worst, abs(pairing(e1, e2)) / max(pairing_scale(e1, e2), 1e-30))
    return CheckResult(name, worst <= ISOTROPY_TOL, f"max_ratio={worst:.3e} tol={ISOTROPY_TOL:g}")


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
    nrm = float(np.linalg.norm(eta))
    if nrm > 2.0:
        eta *= 2.0 / nrm
    traj = simulate(spec, PhaseState(q=q, eta=eta, full=False), t_end=10.0, dt=1e-3, stride=10)
    h = traj.observables["H"]
    drift = float(np.max(np.abs(h - h[0])) / max(1.0, abs(h[0])))
    res_c = float(np.max(traj.observables["consistency_residual_inf"]))
    res_a = float(np.max(traj.observables["admissibility_residual_inf"]))
    return [
        CheckResult(
            f"energy_{spec.name}",
            drift <= ENERGY_DRIFT_TOL,
            f"rel_drift={drift:.3e} tol={ENERGY_DRIFT_TOL:g}",
        ),
        CheckResult(
            f"consistency_{spec.name}",
            res_c <= CONSISTENCY_TOL and res_a <= ADMISSIBILITY_TOL,
            f"res_consistency={res_c:.3e} res_admissibility={res_a:.3e} "
            f"tols=({CONSISTENCY_TOL:g},{ADMISSIBILITY_TOL:g})",
        ),
    ]


# -- closed-form regressions -------------------------------------------------


def _max_error_vs_analytic(spec, ic: PhaseState, t_end: float, dt: float, stride: int) -> float:
    traj = simulate(spec, ic, t_end=t_end, dt=dt, stride=stride)
    data = traj.reduced_array()
    worst = 0.0
    for t, row in zip(traj.times, data):
        ref = spec.analytic(np.array(ic.q + ic.eta), float(t))
        worst = max(worst, float(np.max(np.abs(row - ref))))
    return worst


def check_skater_free_regression(seed: int) -> CheckResult:
    spec = build("skater_free")
    ic = PhaseState(q=(0.0, 0.0, 0.0), eta=(1.0, 1.0), full=False)
    start = time.perf_counter()
    worst = _max_error_vs_analytic(spec, ic, t_end=2 * math.pi, dt=1e-3, stride=10)
    elapsed = time.perf_counter() - start
    ok = worst <= SKATER_FREE_TOL and elapsed <= 2.0
    return CheckResult(
        "analytic_skater_free",
        ok,
        f"max_err={worst:.3e} tol={SKATER_FREE_TOL:g} limit=2s",
        runtime=elapsed,
    )


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
    return _max_error_vs_analytic(spec, slope_reference_ic(), t_end=10.0, dt=dt, stride=stride)


def check_skater_slope_regression(seed: int) -> CheckResult:
    worst = slope_regression_error(1e-3)
    return CheckResult(
        "analytic_skater_slope",
        worst <= SKATER_SLOPE_TOL,
        f"max_err={worst:.3e} tol={SKATER_SLOPE_TOL:g}",
    )


def check_convergence_order(seed: int) -> CheckResult:
    coarse = slope_regression_error(2e-3)
    fine = slope_regression_error(1e-3)
    ratio = coarse / fine
    lo, hi = ORDER_RATIO_RANGE
    return CheckResult(
        "convergence_order",
        lo <= ratio <= hi,
        f"ratio={ratio:.2f} range=[{lo:g},{hi:g}]",
    )


# -- structure-function exactness --------------------------------------------


def check_structure_skater(seed: int) -> CheckResult:
    rng = _rng(seed, "structure_skater")
    fr = skater_frame()
    expected = np.zeros((3, 3, 3))
    expected[2, 0, 1] = 1.0
    expected[2, 1, 0] = -1.0
    expected[0, 1, 2] = 1.0
    expected[0, 2, 1] = -1.0
    worst = 0.0
    for _ in range(20):
        phi = rng.uniform(-math.pi, math.pi)
        c = structure_functions_tangent(fr, [0.0, 0.0, phi])
        worst = max(worst, float(np.max(np.abs(c - expected))))
    return CheckResult(
        "structure_skater",
        worst <= STRUCTURE_SKATER_TOL,
        f"max_dev={worst:.3e} tol={STRUCTURE_SKATER_TOL:g}",
    )


def check_structure_ball(seed: int) -> CheckResult:
    worst = 0.0
    for k2, radius in ((1.0, 1.0), (0.4, 2.0)):
        base = product_with_lie_algebra(identity_frame(2), 3, so3_constants())
        rows = ball_transition_matrix(k2, radius).tolist()
        rotated = change_frame(base, lambda q, rows=rows: rows)
        got = rotated.structure([0.3, -0.7])
        want = ball_structure_constants(k2, radius)
        worst = max(worst, float(np.max(np.abs(got - want))))
    return CheckResult(
        "structure_ball",
        worst <= STRUCTURE_BALL_TOL,
        f"max_dev={worst:.3e} tol={STRUCTURE_BALL_TOL:g}",
    )


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
    worst = float(np.max(cross / norms))
    return CheckResult(
        "ball_free_line", worst <= LINE_TOL, f"max_curvature={worst:.3e} tol={LINE_TOL:g}"
    )


def check_charged_skater_centered(seed: int) -> CheckResult:
    """With the charge at the blade center the field has no visible effect."""
    ic = PhaseState(q=(0.0, 0.0, 0.0), eta=(1.0, 1.0), full=False)
    free = simulate(build("skater_free"), ic, t_end=10.0, dt=1e-3, stride=10)
    charged = simulate(build("skater_charged", {"d": 0.0}), ic, t_end=10.0, dt=1e-3, stride=10)
    base_free = free.reduced_array()[:, :3]
    base_charged = charged.reduced_array()[:, :3]
    worst = float(np.max(np.abs(base_free - base_charged)))
    return CheckResult(
        "charged_skater_centered",
        worst <= CENTERED_CHARGE_TOL,
        f"max_diff={worst:.3e} tol={CENTERED_CHARGE_TOL:g}",
    )


def check_legendre_hamilton(spec, seed: int) -> CheckResult:
    """Lagrangian-side rates agree with the Hamiltonian vector field after
    the Legendre map, for metric systems."""
    name = f"legendre_hamilton_{spec.name}"
    rng = _rng(seed, name)
    alg = spec.dirac.alg
    lagr = mechanical_lagrangian(spec)
    worst = 0.0
    for _ in range(100):
        vs = VelocityState(
            q=rng.uniform(-1.5, 1.5, spec.m), x=rng.uniform(-2.0, 2.0, spec.n_fiber)
        )
        eta, qdot_l, etadot_l = lagrangian_dynamics(alg, lagr, vs)
        ps = legendre_map(lagr, vs)
        qdot_h, etadot_h = hamiltonian_vector_field(alg, spec.hamiltonian, ps)
        for got, want in ((qdot_h, qdot_l), (etadot_h, etadot_l)):
            err = np.max(np.abs(got - want) / (1.0 + np.abs(want)))
            worst = max(worst, float(err))
    return CheckResult(name, worst <= LEGENDRE_TOL, f"max_err={worst:.3e} tol={LEGENDRE_TOL:g}")


# -- registry ----------------------------------------------------------------


def _system_checks(name: str):
    def ad(seed, name=name):
        return check_ad_gradient(build(name), seed)

    def orc(seed, name=name):
        return check_oracle(build(name), seed)

    def iso(seed, name=name):
        return check_isotropy(build(name), seed)

    def energy(seed, name=name):
        return check_energy_and_consistency(build(name), seed)

    checks = [
        (f"ad_gradient_{name}", ad),
        (_ORACLE_CHECK_NAMES[name], orc),
        (f"isotropy_{name}", iso),
        (f"energy_{name}", energy),
    ]
    if name in MECHANICAL_SYSTEMS:
        checks.append(
            (f"legendre_hamilton_{name}", lambda seed, name=name: check_legendre_hamilton(build(name), seed))
        )
    return checks


def available_checks(scope: str = "all"):
    """(name, callable) pairs for the requested scope."""
    registry = []
    names = catalog_names()
    if scope != "all":
        if scope not in names:
            raise CatalogError(f"unknown system {scope!r}; available: {', '.join(names)}")
        names = (scope,)
    for name in names:
        registry.extend(_system_checks(name))
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
