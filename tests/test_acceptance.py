"""End-to-end acceptance suite.

Runs the full verification-check registry once (shared across tests) and
asserts every criterion at its pinned tolerance, printing one PASS/FAIL
line per criterion.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they are produced.  The checks themselves must be
able to fail: a nan error, wherever it comes, fails its check.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from diracmech import checks
from diracmech.checks import run_checks
from diracmech.systems import build

SYSTEMS = ("skater_free", "skater_slope", "skater_charged",
           "ball_free", "ball_magnetic", "ball_harmonic")

CRITERIA = {
    1: ("skater_free_regression", ["analytic_skater_free"]),
    2: ("skater_slope_regression", ["analytic_skater_slope"]),
    3: ("structure_function_exactness", ["structure_skater", "structure_ball"]),
    4: ("oracle_equivalence", [
        "oracle_mechanical_skater_free", "oracle_mechanical_skater_slope",
        "oracle_mechanical_ball", "oracle_magnetic_skater",
        "oracle_magnetic_ball", "oracle_magnetic_ball_harmonic",
    ]),
    5: ("isotropy", [f"isotropy_{s}" for s in SYSTEMS]),
    6: ("energy_conservation", [f"energy_{s}" for s in SYSTEMS]),
    7: ("consistency_maintenance", [f"consistency_{s}" for s in SYSTEMS]),
    8: ("ball_trajectory_shapes", ["ball_magnetic_circle", "ball_free_line"]),
    9: ("charged_skater_centered_equivalence", ["charged_skater_centered"]),
    10: ("ad_gradient_correctness", [f"ad_gradient_{s}" for s in SYSTEMS]),
    11: ("convergence_order", ["convergence_order"]),
    12: ("legendre_hamilton_agreement", [
        "legendre_hamilton_skater_free", "legendre_hamilton_skater_slope",
        "legendre_hamilton_ball_free",
    ]),
}


@pytest.fixture(scope="module")
def suite():
    start = time.perf_counter()
    results = run_checks(scope="all", seed=0)
    elapsed = time.perf_counter() - start
    return elapsed, {r.name: r for r in results}


def _assert_criterion(suite, number):
    _, by_name = suite
    label, names = CRITERIA[number]
    missing = [n for n in names if n not in by_name]
    assert not missing, f"checks not run: {missing}"
    results = [by_name[n] for n in names]
    passed = all(r.passed for r in results)
    detail = "; ".join(f"{r.name}: {r.metric}" for r in results)
    print(f"CRITERION {number:02d} {label} {'PASS' if passed else 'FAIL'} [{detail}]")
    failing = [r.name for r in results if not r.passed]
    assert passed, f"criterion {number} failed via {failing}"


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(suite, number):
    _assert_criterion(suite, number)


def test_total_check_wall_time_under_budget(suite):
    elapsed, _ = suite
    print(f"CRITERION 13 full_check_suite_wall_time "
          f"{'PASS' if elapsed <= 60.0 else 'FAIL'} [elapsed={elapsed:.1f}s limit=60s]")
    assert elapsed <= 60.0


# -- a check fails on a nan error ------------------------------------------------


def _with_nan(values, index: int):
    """A float array copy of ``values`` with its flat entry ``index`` nan."""
    out = np.array(values, dtype=float)
    out.flat[index] = math.nan
    return out


def _poisoned(fn, call: int, poison):
    """``fn``, with its output on call number ``call`` (from 1) passed through ``poison``."""
    calls = 0

    def wrapper(*args, **kwargs):
        nonlocal calls
        calls += 1
        out = fn(*args, **kwargs)
        return poison(out) if calls == call else out

    return wrapper


def _nan_closed_form(name, *args):
    spec = build(name, *args)
    return replace(spec, analytic=_poisoned(spec.analytic, 3, lambda y: _with_nan(y, 1)))


# (check, the name in ``checks`` it reads, how that name is replaced); each
# nan comes after the first error, where a running max(worst, err) drops it
NAN_CASES = {
    "ad_gradient": (
        lambda: checks.check_ad_gradient(build("skater_charged"), 0),
        "grad",
        lambda grad: _poisoned(grad, 2, lambda g: _with_nan(g, 1)),
    ),
    "oracle": (
        lambda: checks.check_oracle(build("ball_magnetic"), 0),
        "oracle_reduced_field",
        lambda oracle: _poisoned(oracle, 2, lambda out: (out[0], _with_nan(out[1], 1))),
    ),
    "isotropy": (
        lambda: checks.check_isotropy(build("skater_free"), 0),
        "compile_traced",  # row 2's pairing nan
        lambda compile_traced: lambda fn, arity: _poisoned(
            compile_traced(fn, arity), 2, lambda out: (math.nan, out[1])
        ),
    ),
    # a nan momentum from legendre_map stops the gradient with an error, so
    # the nan goes into the Lagrangian side of the comparison instead
    "legendre": (
        lambda: checks.check_legendre_hamilton(build("ball_free"), 0),
        "lagrangian_dynamics",
        lambda dynamics: _poisoned(dynamics, 2, lambda out: (*out[:2], _with_nan(out[2], 1))),
    ),
    "structure_skater": (
        lambda: checks.check_structure_skater(0),
        "structure_functions_tangent",
        lambda tangent: _poisoned(tangent, 2, lambda c: _with_nan(c, 5)),
    ),
    "structure_ball": (
        lambda: checks.check_structure_ball(0),
        "ball_structure_constants",
        lambda constants: _poisoned(constants, 2, lambda c: _with_nan(c, 7)),
    ),
    "closed_form": (lambda: checks.check_skater_free_regression(0), "build", lambda _: _nan_closed_form),
}


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_a_nan_error_fails_its_check(monkeypatch, case):
    run, name, replacement = NAN_CASES[case]
    monkeypatch.setattr(checks, name, replacement(getattr(checks, name)))
    result = run()
    assert not result.passed
    assert "=nan " in result.metric


def test_convergence_order_fails_on_a_zero_fine_error(monkeypatch):
    monkeypatch.setattr(checks, "slope_regression_error", lambda dt: 0.0)
    result = checks.check_convergence_order(0)
    assert (result.passed, result.metric) == (False, "ratio=inf range=[14,18]")
