"""The isotropy check: its random draws and its results, pinned."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from diracmech import checks
from diracmech.algebroid import PhaseState, SkewAlgebroid
from diracmech.checks import check_isotropy
from diracmech.dirac import DiracAlgebroid, make_element, pairing, pairing_scale
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


@pytest.mark.parametrize("name", sorted(ISOTROPY_METRICS))
def test_isotropy_metrics_are_pinned(name):
    spec = build(name)
    for seed, metric in enumerate(ISOTROPY_METRICS[name]):
        result = check_isotropy(spec, seed)
        assert (result.name, result.passed, result.metric) == (f"isotropy_{name}", True, metric)


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
