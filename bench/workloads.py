"""The four benchmark workloads: seeded inputs, set-up, ops and output checks.

An op is the unit a workload times:

* ``catalog``: one ``integrate.simulate`` trajectory at stride 10 from a
  seeded initial condition, cycling through the six catalog systems.
  Covers both closed-form consistency kinds (``zero``, ``affine``) and
  both fiber ranks (3, 5).  The dual-number gradient dominates; there is
  no Newton solve and no expression evaluation, so this is the
  "no change" side for optimisations of those two layers.
* ``newton``: one ``simulate`` trajectory with the consistency solution
  replaced by ``ConsistencySolution(kind="newton")``, on skater_charged,
  ball_magnetic, ball_harmonic and a benchmark-built skater with a
  convex quartic transverse term (Newton then needs several iterations).
  The consistency solve, Hessian blocks and small linear algebra
  dominate; ``catalog`` never reaches them.
* ``record``: one in-process ``cli.cmd_simulate`` call at stride 1 with a
  seeded ``--potential`` expression, writing the CSV to a file.  The
  write-heavy use of the same stepping code: expression evaluation,
  per-sample reconstruction and CSV formatting.
* ``verify``: one random-state check from ``checks.available_checks``
  (gradient, oracle, isotropy, Legendre/Hamilton, structure), run at the
  workload seed.  The only workload that reaches ``algebroid``,
  ``frame``, the two oracles and the isotropy pairing; each op calls
  ``systems.build``, so work moved into set-up costs it.  Trajectory
  checks are left out: they run the same code as ``catalog`` and take
  tens of seconds.

Every op's output is checked; a bad output or an ``EngineError`` makes
the op a failure.  Tolerances come from ``diracmech.checks`` so they
track the pinned values.
"""

import csv
import importlib
import io
import math
import zlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

WORKLOADS = ("catalog", "newton", "record", "verify")

# Dyadic step so that every t_end below is a whole number of steps exactly
# and the final state is recorded whatever the time-grid rounding rule.
DT = 2.0**-10
CATALOG_STEPS = 160
CATALOG_STRIDE = 10
NEWTON_STEPS = 32
NEWTON_STRIDE = 8
RECORD_STEPS = 48
# The quartic skater (the only system where Newton iterates more than
# once) runs from two initial conditions.  Five ops per round also keep
# the median latency inside one op's cluster instead of between two.
NEWTON_SYSTEMS = ("skater_charged", "ball_magnetic", "ball_harmonic", "skater_quartic", "skater_quartic")
NEWTON_MATCH_TOL = 1e-12
QUARTIC_COEFF = 0.5
VERIFY_PREFIXES = ("ad_gradient_", "oracle_", "isotropy_", "legendre_hamilton_", "structure_")

# Potential term templates; each record op uses three, so one round of
# six ops uses every template (and + - * / ^ sin cos exp sqrt) twice.
# Every template is defined and smooth on the whole plane.
_TERMS = (
    "{c}*{v}^2",
    "{c}*sin({v})",
    "{c}*cos({v}-{w})",
    "{c}*exp(-{v}^2)",
    "{c}*sqrt(1+{v}^2)",
    "{c}*{v}*{w}/(2+cos({w}))",
)


@dataclass
class Op:
    """One timed operation and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # failure reason, or None when correct
    steps: int = 0  # RK4 steps the op takes
    rows: int = 0  # CSV rows the op writes


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng((int(seed), zlib.crc32(workload.encode())))


# Base and admissible-momentum dimensions of the systems used here, so
# that inputs can be drawn before the engine is imported.
_SHAPES = {
    "ball_free": (2, 3),
    "ball_harmonic": (2, 3),
    "ball_magnetic": (2, 3),
    "skater_charged": (3, 2),
    "skater_free": (3, 2),
    "skater_slope": (3, 2),
    "skater_quartic": (3, 2),
}
_BASE_NAMES = {2: ("x", "y"), 3: ("x", "y", "phi")}
CATALOG = ("ball_free", "ball_harmonic", "ball_magnetic", "skater_charged", "skater_free", "skater_slope")


def _initial_condition(rng, system):
    """Reduced state with |eta| <= 2; skaters get |eta2| >= 0.5 so the
    closed forms (which divide by the initial rotation) are well posed."""
    m, k = _SHAPES[system]
    q = rng.uniform(-1.0, 1.0, m)
    eta = rng.uniform(-1.0, 1.0, k)
    if system.startswith("skater"):
        eta[1] = math.copysign(rng.uniform(0.5, 1.0), eta[1])
    nrm = float(np.linalg.norm(eta))
    if nrm > 2.0:
        eta *= 2.0 / nrm
    return [float(v) for v in q], [float(v) for v in eta]


def _potential(rng, names, first_term):
    parts = []
    for j in range(3):
        template = _TERMS[(first_term + j) % len(_TERMS)]
        v, w = (names[i] for i in rng.integers(0, len(names), 2))
        c = f"{rng.uniform(0.1, 0.5):.3f}"
        parts.append(("+" if j == 0 or rng.random() < 0.5 else "-") + template.format(c=c, v=v, w=w))
    return "".join(parts).lstrip("+")


def inputs(workload: str, seed: int) -> list:
    """Plain-data op inputs for one round, drawn from the seed alone."""
    rng = _rng(seed, workload)
    if workload == "catalog":
        return [(system, *_initial_condition(rng, system)) for system in CATALOG]
    if workload == "newton":
        return [(system, *_initial_condition(rng, system)) for system in NEWTON_SYSTEMS]
    if workload == "record":
        out = []
        for i, system in enumerate(CATALOG):
            q, eta = _initial_condition(rng, system)
            names = _BASE_NAMES[len(q)]
            out.append((system, q, eta, _potential(rng, names, 3 * i)))
        return out
    if workload == "verify":
        return []
    raise ValueError(f"unknown workload {workload!r}")


# -- set-up: import, build every spec, parse every potential ----------------


def setup(workload: str, op_inputs: list) -> dict:
    """Import the engine and build what the workload uses.  This is what
    ``setup_s`` times; call it after purging ``diracmech`` from
    ``sys.modules`` to time a fresh import."""
    dm = importlib.import_module("diracmech")
    ctx = {
        "dm": dm,
        "checks": importlib.import_module("diracmech.checks"),
        "cli": importlib.import_module("diracmech.cli"),
        "exprparse": importlib.import_module("diracmech.exprparse"),
        "specs": {},
        "parsed": [],
    }
    if workload == "newton":
        names = [s for s in dict.fromkeys(NEWTON_SYSTEMS) if s != "skater_quartic"]
    else:
        names = list(CATALOG)
    for name in names:
        ctx["specs"][name] = dm.build(name)
    if workload == "newton":
        ctx["specs"]["skater_quartic"] = quartic_spec(dm, ctx["specs"]["skater_charged"])
    if workload == "record":
        ctx["parsed"] = [ctx["exprparse"].parse_text(text) for *_, text in op_inputs]
    if workload == "verify":
        ctx["registry"] = [
            (name, fn)
            for name, fn in ctx["checks"].available_checks("all")
            if name.startswith(VERIFY_PREFIXES)
        ]
    return ctx


def quartic_spec(dm, charged):
    """skater_charged plus QUARTIC_COEFF * eta3^4: still strictly convex in
    the transverse momentum, but the consistency condition is cubic, so
    only Newton solves it."""
    base_fn = charged.hamiltonian.fn

    def fn(x, y, phi, e1, e2, e3):
        return base_fn(x, y, phi, e1, e2, e3) + QUARTIC_COEFF * e3**4

    return replace(
        charged,
        name="skater_quartic",
        hamiltonian=dm.ScalarField(charged.base_names, charged.fiber_names, fn),
        consistency=dm.ConsistencySolution(kind="newton"),
        analytic=None,
        metric=None,
    )


# -- ops ---------------------------------------------------------------------


def make_ops(workload: str, op_inputs: list, ctx: dict, seed: int, out_dir: str) -> list:
    """Ops for one round.  Newton references are computed here, outside
    any timed region."""
    if workload == "catalog":
        return [_catalog_op(ctx, *args) for args in op_inputs]
    if workload == "newton":
        return [_newton_op(ctx, *args) for args in op_inputs]
    if workload == "record":
        return [record_op(ctx, *args, out_dir=out_dir) for args in op_inputs]
    if workload == "verify":
        return [_verify_op(name, fn, seed) for name, fn in ctx["registry"]]
    raise ValueError(f"unknown workload {workload!r}")


def _invariants(checks, spec, traj, expected_rows):
    """Row count, energy drift and the two residuals, at the pinned
    acceptance tolerances."""
    if len(traj) != expected_rows:
        return f"{len(traj)} samples, expected {expected_rows}"
    h = traj.observables["H"]
    drift = float(np.max(np.abs(h - h[0])) / max(1.0, abs(h[0])))
    if not drift <= checks.ENERGY_DRIFT_TOL:
        return f"energy drift {drift:.3e} > {checks.ENERGY_DRIFT_TOL:g}"
    res_c = float(np.max(traj.observables["consistency_residual_inf"]))
    if not res_c <= checks.CONSISTENCY_TOL:
        return f"consistency residual {res_c:.3e} > {checks.CONSISTENCY_TOL:g}"
    res_a = float(np.max(traj.observables["admissibility_residual_inf"]))
    if not res_a <= checks.ADMISSIBILITY_TOL:
        return f"admissibility residual {res_a:.3e} > {checks.ADMISSIBILITY_TOL:g}"
    return None


def _catalog_op(ctx, system, q, eta):
    dm, checks = ctx["dm"], ctx["checks"]
    spec = ctx["specs"][system]
    ic = dm.PhaseState(q=q, eta=eta, full=False)
    t_end = CATALOG_STEPS * DT
    closed_form_tol = {
        "skater_free": checks.SKATER_FREE_TOL,
        "skater_slope": checks.SKATER_SLOPE_TOL,
        # a free ball rolls on straight lines; held to the free-skater tolerance
        "ball_free": checks.SKATER_FREE_TOL,
    }.get(system)

    def run():
        return dm.simulate(spec, ic, t_end=t_end, dt=DT, stride=CATALOG_STRIDE)

    def check(traj):
        bad = _invariants(checks, spec, traj, CATALOG_STEPS // CATALOG_STRIDE + 1)
        if bad or closed_form_tol is None:
            return bad
        y0 = np.array(q + eta)
        err = max(
            float(np.max(np.abs(row - spec.analytic(y0, float(t)))))
            for t, row in zip(traj.times, traj.reduced_array())
        )
        if not err <= closed_form_tol:
            return f"closed-form error {err:.3e} > {closed_form_tol:g}"
        return None

    return Op(f"catalog/{system}", run, check, steps=CATALOG_STEPS)


def _newton_op(ctx, system, q, eta):
    dm, checks = ctx["dm"], ctx["checks"]
    spec = ctx["specs"][system]
    ic = dm.PhaseState(q=q, eta=eta, full=False)
    t_end = NEWTON_STEPS * DT
    rows = NEWTON_STEPS // NEWTON_STRIDE + 1
    forced = spec if spec.consistency.kind == "newton" else replace(
        spec, consistency=dm.ConsistencySolution(kind="newton")
    )
    reference = None
    if forced is not spec:
        reference = dm.simulate(spec, ic, t_end=t_end, dt=DT, stride=NEWTON_STRIDE)

    def run():
        return dm.simulate(forced, ic, t_end=t_end, dt=DT, stride=NEWTON_STRIDE)

    def check(traj):
        if reference is None:
            return _invariants(checks, forced, traj, rows)
        if len(traj) != len(reference):
            return f"{len(traj)} samples, expected {len(reference)}"
        for got, want in (
            (traj.reduced_array(), reference.reduced_array()),
            (traj.eta_alpha, reference.eta_alpha),
        ):
            err = float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))
            if not err <= NEWTON_MATCH_TOL:
                return f"Newton path differs from the affine path by {err:.3e}"
        return None

    return Op(f"newton/{system}", run, check, steps=NEWTON_STEPS)


def record_op(ctx, system, q, eta, potential, out_dir):
    """One ``cmd_simulate`` call writing its CSV under ``out_dir``."""
    cli = ctx["cli"]
    spec = ctx["specs"][system]
    path = f"{out_dir}/record.csv"
    cfg = cli.RunConfig(
        system=system,
        ic=q + eta,
        t_end=RECORD_STEPS * DT,
        dt=DT,
        stride=1,
        potential=potential,
        out=path,
    )
    header = (
        ["t", *spec.base_names, *spec.admissible_names, *spec.transverse_names]
        + ["H", "res_consistency", "res_admissibility"]
    )
    rows = RECORD_STEPS + 1

    def run():
        err = io.StringIO()
        code = cli.cmd_simulate(cfg, out=io.StringIO(), err=err)
        return code, err.getvalue()

    def check(result):
        code, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        with open(cfg.out, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        if not table or table[0] != header:
            return "CSV header differs"
        if len(table) - 1 != rows:
            return f"{len(table) - 1} CSV rows, expected {rows}"
        for line in table[1:]:
            if len(line) != len(header):
                return "CSV row of the wrong width"
            for text in line:
                try:
                    value = float(text)
                except ValueError:
                    return f"CSV field {text!r} is not a number"
                if repr(value) != text or not math.isfinite(value):
                    return f"CSV field {text!r} does not round-trip"
        return None

    return Op(f"record/{system}", run, check, steps=RECORD_STEPS, rows=rows)


def _verify_op(name, fn, seed):
    def run():
        return fn(seed)

    def check(result):
        if not result.passed:
            return result.line()
        return None

    return Op(f"verify/{name}", run, check)
