"""The random-state checks: their draws and results pinned, the programs
they run matched bit for bit, and the faults they exist to catch."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from diracmech import checks
from diracmech.algebroid import PhaseState, SkewAlgebroid
from diracmech.checks import check_ad_gradient, check_isotropy, check_legendre_hamilton, check_oracle
from diracmech.dirac import (
    DiracAlgebroid,
    make_element,
    pairing,
    pairing_scale,
    reduced_field,
    reduced_vector_field,
)
from diracmech.numcore import grad
from diracmech.systems import build
from diracmech.tracing import compile_traced

# check_isotropy(build(name), seed).metric for seeds 0 and 1, recorded
# when the check drew each parameter with its own rng.uniform call
ISOTROPY_METRICS = {
    "skater_free": ("max_ratio=1.447e-16 tol=1e-12", "max_ratio=1.880e-16 tol=1e-12"),
    "skater_slope": ("max_ratio=1.516e-16 tol=1e-12", "max_ratio=1.721e-16 tol=1e-12"),
    "skater_charged": ("max_ratio=1.879e-16 tol=1e-12", "max_ratio=1.964e-16 tol=1e-12"),
    "ball_free": ("max_ratio=1.658e-16 tol=1e-12", "max_ratio=1.974e-16 tol=1e-12"),
    "ball_magnetic": ("max_ratio=1.573e-16 tol=1e-12", "max_ratio=2.094e-16 tol=1e-12"),
    "ball_harmonic": ("max_ratio=1.622e-16 tol=1e-12", "max_ratio=1.783e-16 tol=1e-12"),
}


# check_ad_gradient(build(name), seed).metric for seeds 0 and 1, recorded
# when the finite differences ran ScalarField.value on ndarray copies
AD_GRADIENT_METRICS = {
    "skater_free": ("max_rel_err=2.239e-10 tol=1e-06", "max_rel_err=2.370e-10 tol=1e-06"),
    "skater_slope": ("max_rel_err=2.483e-10 tol=1e-06", "max_rel_err=2.703e-10 tol=1e-06"),
    "skater_charged": ("max_rel_err=5.841e-10 tol=1e-06", "max_rel_err=3.734e-10 tol=1e-06"),
    "ball_free": ("max_rel_err=2.056e-10 tol=1e-06", "max_rel_err=2.841e-10 tol=1e-06"),
    "ball_magnetic": ("max_rel_err=3.229e-10 tol=1e-06", "max_rel_err=2.588e-10 tol=1e-06"),
    "ball_harmonic": ("max_rel_err=7.490e-10 tol=1e-06", "max_rel_err=4.328e-10 tol=1e-06"),
}

# check_legendre_hamilton(build(name), seed).metric for seeds 0 and 1,
# recorded when _relative_error compared ndarrays
LEGENDRE_METRICS = {
    "skater_free": ("max_err=0.000e+00 tol=1e-12", "max_err=0.000e+00 tol=1e-12"),
    "skater_slope": ("max_err=0.000e+00 tol=1e-12", "max_err=0.000e+00 tol=1e-12"),
    "ball_free": ("max_err=0.000e+00 tol=1e-12", "max_err=0.000e+00 tol=1e-12"),
}


@pytest.mark.parametrize("name", sorted(ISOTROPY_METRICS))
def test_isotropy_metrics_are_pinned(name):
    spec = build(name)
    for seed, metric in enumerate(ISOTROPY_METRICS[name]):
        result = check_isotropy(spec, seed)
        assert (result.name, result.passed, result.metric) == (f"isotropy_{name}", True, metric)


@pytest.mark.parametrize(
    "check, prefix, name, metrics",
    [(check_ad_gradient, "ad_gradient", *item) for item in sorted(AD_GRADIENT_METRICS.items())]
    + [(check_legendre_hamilton, "legendre_hamilton", *item) for item in sorted(LEGENDRE_METRICS.items())],
)
def test_gradient_and_legendre_metrics_are_pinned(check, prefix, name, metrics):
    spec = build(name)
    for seed, metric in enumerate(metrics):
        result = check(spec, seed)
        assert (result.name, result.passed, result.metric) == (f"{prefix}_{name}", True, metric)


@pytest.mark.parametrize("name", ["skater_free", "ball_magnetic"])  # the two system shapes
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_isotropy_block_draws_are_per_call_uniforms(name, seed):
    """Each row equals the per-call draws in the check's order: q, eta,
    then (a, xb, etadot_alpha) for each of two elements."""
    spec = build(name)
    nt = spec.n_fiber - spec.k
    sizes = [(1.5, spec.m), (2.0, spec.n_fiber)] + [(2.0, spec.m), (2.0, spec.k), (2.0, nt)] * 2
    width = sum(n for _, n in sizes)
    rows = list(checks._isotropy_rows(spec.m, width, np.random.default_rng(seed)))
    rng = np.random.default_rng(seed)
    assert len(rows) == 1000
    for row in rows:
        want = np.concatenate([rng.uniform(-bound, bound, n) for bound, n in sizes])
        assert np.array(row).view(np.uint64).tolist() == want.view(np.uint64).tolist()
    # both streams stand at the same place
    assert rng.random() == np.random.default_rng(seed).random(1000 * width + 1)[-1]


@pytest.mark.parametrize("name", sorted(ISOTROPY_METRICS))
@pytest.mark.parametrize("seed", [0, 1])
def test_isotropy_program_gives_the_public_calls_bit_for_bit(monkeypatch, name, seed):
    """The check compiles one program and runs it on exactly its 1000 rows;
    on each row the program's (pairing, scale) has the bits of
    make_element, then pairing and pairing_scale, on that row."""
    spec = build(name)
    programs, seen = [], []

    def recording(fn, arity):
        program = compile_traced(fn, arity)
        programs.append(program is not fn)  # traced, not the function itself

        def recorded(*row):
            out = program(*row)
            seen.append((row, out))
            return out

        return recorded

    monkeypatch.setattr(checks, "compile_traced", recording)
    assert check_isotropy(spec, seed).metric == ISOTROPY_METRICS[name][seed]
    assert programs == [True]
    assert len(seen) == 1000
    nt = spec.n_fiber - spec.k
    cuts = np.cumsum([0, spec.m, spec.n_fiber] + [spec.m, spec.k, nt] * 2).tolist()
    for row, out in seen:
        q, eta, *params = [row[i:j] for i, j in zip(cuts, cuts[1:])]
        s = PhaseState(q, eta)
        e1 = make_element(spec.dirac, s, *params[:3])
        e2 = make_element(spec.dirac, s, *params[3:])
        want = (pairing(e1, e2), pairing_scale(e1, e2))
        assert struct.pack("<2d", *out) == struct.pack("<2d", *want)


def _bent(spec):
    """``spec`` with c[0][0][1] and c[0][1][0] of its structure each raised
    by 0.5: a symmetric part in the admissible lower pair, which a skew
    structure does not have."""
    alg = spec.dirac.alg

    def structure(q):
        c = alg.structure(q)
        c = [[list(row) for row in plane] for plane in (c.tolist() if isinstance(c, np.ndarray) else c)]
        c[0][0][1] += 0.5
        c[0][1][0] += 0.5
        return c

    bent = SkewAlgebroid(alg.m, alg.rank, alg.anchor, structure)
    return replace(spec, dirac=DiracAlgebroid(bent, spec.k))


@pytest.mark.parametrize(
    "name, metric",
    [("skater_free", "max_ratio=9.325e-01 tol=1e-12"), ("ball_magnetic", "max_ratio=7.458e-01 tol=1e-12")],
)
def test_isotropy_fails_on_a_structure_that_is_not_skew(name, metric):
    result = check_isotropy(_bent(build(name)), 0)
    assert (result.passed, result.metric) == (False, metric)


def _recording_field(monkeypatch, adjust=lambda out: out):
    """Patch the check's ``reduced_field`` to record each call of the
    program it returns, as (args, out), after ``adjust`` of the output."""
    seen = []

    def recording(dirac, h, solution):
        program = reduced_field(dirac, h, solution)

        def recorded(*xs):
            out = adjust(program(*xs))
            seen.append((xs, out))
            return out

        return recorded

    monkeypatch.setattr(checks, "reduced_field", recording)
    return seen


@pytest.mark.parametrize("name", sorted(ISOTROPY_METRICS))
@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_program_gives_the_public_field_bit_for_bit(monkeypatch, name, seed):
    """The oracle check runs the compiled field on its 100 rows, from the
    zero guess; on each row the program's (qdot, etadot) has the bits of
    reduced_vector_field on that row."""
    spec = build(name)
    m, k, nt = spec.m, spec.k, spec.n_fiber - spec.k
    seen = _recording_field(monkeypatch)
    assert check_oracle(spec, seed).passed
    assert len(seen) == 100
    for xs, out in seen:
        assert xs[m + k :] == (0.0,) * nt
        rs = PhaseState(xs[:m], xs[m : m + k], full=False)
        qdot, etadot = reduced_vector_field(spec.dirac, spec.hamiltonian, rs, solution=spec.consistency)
        got = struct.pack(f"<{m + k}d", *out[: m + k])
        assert got == struct.pack(f"<{m + k}d", *qdot.tolist(), *etadot.tolist())


@pytest.mark.parametrize("name", ["skater_charged", "ball_harmonic"])
def test_oracle_fails_on_a_wrong_compiled_field(monkeypatch, name):
    """etadot off by 1e-9 relative in the program the check runs is caught."""
    spec = build(name)
    m, k = spec.m, spec.k

    def off(out):
        return (*out[:m], *(v * (1 + 1e-9) for v in out[m : m + k]), *out[m + k :])

    _recording_field(monkeypatch, off)
    result = check_oracle(spec, 0)
    assert not result.passed
    assert float(result.metric.split()[0].split("=")[1]) > 1e-10


@pytest.mark.parametrize("name", ["skater_charged", "ball_harmonic"])
def test_ad_gradient_fails_on_a_wrong_gradient_program(monkeypatch, name):
    """A gradient program scaled by 1 + 1e-5 is caught: the finite
    differences run H's own function, not code generated from it."""
    spec = build(name)
    h = spec.hamiltonian
    grad(h, [0.1] * h.arity)  # compiles the program
    program = h._compiled

    def scaled(*xs):
        value, g = program(*xs)
        return value, tuple(v * (1 + 1e-5) for v in g)

    monkeypatch.setattr(h, "_compiled", scaled)
    result = check_ad_gradient(spec, 0)
    assert not result.passed
    assert float(result.metric.split()[0].split("=")[1]) > 1e-6
