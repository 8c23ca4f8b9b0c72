"""The isotropy check: its random draws and its results, pinned."""

import numpy as np
import pytest

from diracmech import checks
from diracmech.checks import check_isotropy
from diracmech.systems import build, catalog_names

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


def test_isotropy_pairs_every_draw_with_the_public_calls(monkeypatch):
    calls = {"make_element": 0, "pairing": 0, "pairing_scale": 0}

    def counted(name):
        fn = getattr(checks, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(checks, name, counted(name))
    assert check_isotropy(build(catalog_names()[0]), 0).passed
    assert calls == {"make_element": 2000, "pairing": 1000, "pairing_scale": 1000}
