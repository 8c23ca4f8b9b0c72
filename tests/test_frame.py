import math

import numpy as np
import pytest

from diracmech import numcore
from diracmech.errors import DimensionError
from diracmech.frame import (
    FrameField,
    eval_matrix_with_partials,
    frame_matrix,
    identity_frame,
    structure_functions_tangent,
)
from diracmech.systems import skater_frame


def polar_frame():
    # f1 = d_r, f2 = (1/r) d_theta on r > 0
    def rho(q):
        r = q[0]
        return [[1.0, 0.0], [0.0, 1.0 / r]]

    return FrameField(n=2, rho=rho)


def shear_frame():
    # a deliberately non-orthogonal frame with position-dependent mixing
    def rho(q):
        x, y = q
        return [
            [1.0, numcore.sin(x) * 0.3],
            [0.2 * x * y, 1.0 + 0.1 * numcore.cos(y)],
        ]

    return FrameField(n=2, rho=rho)


# -- frame_matrix -----------------------------------------------------------


def test_skater_frame_at_zero():
    rho = frame_matrix(skater_frame(), (0.0, 0.0, 0.0))
    assert np.allclose(rho, [[1, 0, 0], [0, 0, 1], [0, 1, 0]], atol=1e-15)


def test_skater_frame_at_quarter_turn():
    rho = frame_matrix(skater_frame(), (0.0, 0.0, math.pi / 2))
    assert np.allclose(rho[:, 0], [0, 1, 0], atol=1e-15)
    assert np.allclose(rho[:, 1], [0, 0, 1], atol=1e-15)
    assert np.allclose(rho[:, 2], [-1, 0, 0], atol=1e-15)


def test_identity_frame():
    fr = identity_frame(4)
    assert np.array_equal(frame_matrix(fr, (1.0, 2.0, 3.0, 4.0)), np.eye(4))


# -- structure functions -----------------------------------------------------


def test_skater_structure_constants():
    fr = skater_frame()
    expected = np.zeros((3, 3, 3))
    expected[2, 0, 1] = 1.0
    expected[2, 1, 0] = -1.0
    expected[0, 1, 2] = 1.0
    expected[0, 2, 1] = -1.0
    for phi in (0.0, 0.4, -2.2, math.pi / 2):
        c = structure_functions_tangent(fr, (0.5, -0.1, phi))
        assert np.max(np.abs(c - expected)) <= 1e-14


def test_constant_frame_has_zero_structure():
    fr = FrameField(n=3, rho=lambda q: [[1.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    c = structure_functions_tangent(fr, (0.3, 0.4, 0.5))
    assert np.array_equal(c, np.zeros((3, 3, 3)))


def test_polar_structure_value():
    # [f2, f1] = (1/r) f2, so c^2_{12} = 1/r = 0.5 at r = 2
    c = structure_functions_tangent(polar_frame(), (2.0, 0.0))
    assert abs(c[1, 0, 1] - 0.5) <= 1e-14
    assert abs(c[0, 0, 1]) <= 1e-15


def test_structure_antisymmetry_is_exact():
    for fr, q in ((polar_frame(), (1.7, 0.3)), (shear_frame(), (0.8, -0.6))):
        c = structure_functions_tangent(fr, q)
        assert np.array_equal(c, -c.swapaxes(1, 2))


def _numeric_commutator(fr, q, j, k, eps=1e-4):
    """[f_k, f_j] by central differencing along short frame flows."""

    def section(point, idx):
        return frame_matrix(fr, point)[:, idx]

    q = np.asarray(q, dtype=float)
    fk = section(q, k)
    fj = section(q, j)
    d_fj_along_fk = (section(q + eps * fk, j) - section(q - eps * fk, j)) / (2 * eps)
    d_fk_along_fj = (section(q + eps * fj, k) - section(q - eps * fj, k)) / (2 * eps)
    return d_fj_along_fk - d_fk_along_fj


@pytest.mark.parametrize("maker", [skater_frame, polar_frame, shear_frame])
def test_structure_matches_numeric_commutator(maker):
    fr = maker()
    rng = np.random.default_rng(17)
    for _ in range(20):
        q = rng.uniform(0.5, 2.0, fr.n)
        rho = frame_matrix(fr, q)
        c = structure_functions_tangent(fr, q)
        for j in range(fr.n):
            for k in range(fr.n):
                assembled = rho @ c[:, j, k]
                numeric = _numeric_commutator(fr, q, j, k)
                assert np.max(np.abs(assembled - numeric)) <= 1e-5


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: frame_matrix(skater_frame(), (0.0, 0.0)), "point of length 2 on a chart of dimension 3"),
        (
            lambda: frame_matrix(FrameField(n=1, rho=lambda q: []), (0.0,)),
            "frame map needs a 2-d layout, got shape (0,)",
        ),
        (
            lambda: frame_matrix(FrameField(n=1, rho=lambda q: [1.0]), (0.0,)),
            "frame map needs a 2-d layout, got a non-sequence row",
        ),
        (
            lambda: eval_matrix_with_partials(lambda q: [[1.0, 0.0]], [0.0], (2, 2)),
            "matrix map returned 1x2, expected (2, 2)",
        ),
    ],
)
def test_shape_errors_name_the_shapes(call, message):
    with pytest.raises(DimensionError) as info:
        call()
    assert str(info.value) == message
