import math

import numpy as np
import pytest

from diracmech.errors import (
    DimensionError,
    NonConvergenceError,
    NumericDomainError,
    SingularMatrixError,
)
from diracmech.numcore import (
    DualScalar,
    ScalarField,
    grad,
    hessian_block,
    mat_inverse,
    newton_solve,
    solve_linear,
)
from diracmech.systems import build, skater_frame
from diracmech.frame import frame_matrix


def field(n, fn):
    return ScalarField(tuple(f"p{i}" for i in range(n)), (), fn)


# -- grad ---------------------------------------------------------------


def test_grad_polynomial():
    f = field(2, lambda q, eta: q * q * eta)
    assert np.allclose(grad(f, (1.0, 3.0)), [6.0, 1.0], atol=1e-15)


def test_grad_constant_field_is_zero():
    f = field(3, lambda a, b, c: 5.0)
    assert np.array_equal(grad(f, (0.3, -2.0, 7.0)), np.zeros(3))


def test_grad_skater_free_restricted_hamiltonian():
    # H = (eta1^2 + eta2^2/k2) / (2 m) with m = k2 = 1, differentiated by hand
    f = ScalarField(
        ("x", "y", "phi"),
        ("eta1", "eta2"),
        lambda x, y, phi, e1, e2: 0.5 * (e1 * e1 + e2 * e2),
    )
    assert np.allclose(grad(f, (0, 0, 0, 2, 3)), [0, 0, 0, 2, 3], atol=1e-15)


def test_grad_arity_mismatch():
    f = field(2, lambda a, b: a + b)
    with pytest.raises(DimensionError):
        grad(f, (1.0,))


def test_grad_domain_error():
    from diracmech.numcore import log

    f = field(1, lambda x: log(x))
    with pytest.raises(NumericDomainError):
        grad(f, (-1.0,))


def test_grad_matches_finite_differences_on_catalog_hamiltonians():
    rng = np.random.default_rng(11)
    h = 1e-6
    for name in ("skater_free", "skater_slope", "skater_charged",
                 "ball_free", "ball_magnetic", "ball_harmonic"):
        spec = build(name)
        f = spec.hamiltonian
        for _ in range(100):
            p = np.concatenate(
                [rng.uniform(-1.5, 1.5, spec.m), rng.uniform(-2, 2, spec.n_fiber)]
            )
            g = grad(f, p)
            for j in range(f.arity):
                up, down = p.copy(), p.copy()
                up[j] += h
                down[j] -= h
                fd = (f.value(up) - f.value(down)) / (2 * h)
                assert abs(g[j] - fd) <= 1e-6 * (1 + abs(fd))


# -- hessian -------------------------------------------------------------


def test_hessian_quadratic_form_identity():
    f = field(2, lambda u, v: 0.5 * (u * u + v * v))
    h = hessian_block(f, (0.7, -0.2), (0, 1))
    assert np.allclose(h, np.eye(2), atol=1e-15)


def test_hessian_product_off_diagonal():
    f = field(2, lambda u, v: u * v)
    h = hessian_block(f, (2.0, 5.0), (0, 1))
    assert np.allclose(h, [[0, 1], [1, 0]], atol=1e-15)


def test_hessian_ball_free_transverse_block():
    # quadratic coefficients of the free ball energy: 1/(k2 (k2 + R^2)) = 1/2
    spec = build("ball_free")
    p = (0.1, -0.3, 0.5, 0.2, -0.8, 0.05, 0.9)
    h = hessian_block(spec.hamiltonian, p, (5, 6))
    assert np.allclose(h, 0.5 * np.eye(2), atol=1e-15)


def test_hessian_symmetry_on_random_polynomials():
    rng = np.random.default_rng(5)
    for _ in range(20):
        coeffs = rng.uniform(-2, 2, (4, 4))

        def fn(a, b, c, d, coeffs=coeffs):
            vs = (a, b, c, d)
            out = 0.0
            for i in range(4):
                for j in range(4):
                    out = out + coeffs[i][j] * vs[i] * vs[j] * vs[(i + j) % 4]
            return out

        f = field(4, fn)
        h = hessian_block(f, rng.uniform(-1, 1, 4), (0, 1, 2, 3))
        assert np.max(np.abs(h - h.T)) <= 1e-12


def test_hessian_bad_index():
    f = field(2, lambda a, b: a * b)
    with pytest.raises(DimensionError):
        hessian_block(f, (0.0, 0.0), (0, 5))


# -- matrices ------------------------------------------------------------


def test_mat_inverse_identity():
    assert np.allclose(mat_inverse(np.eye(4)), np.eye(4), atol=1e-15)


def test_mat_inverse_skater_frame_is_transpose():
    # orthonormal columns at phi = 0, inverted by hand
    rho = frame_matrix(skater_frame(), (0.0, 0.0, 0.0))
    assert np.allclose(mat_inverse(rho), rho.T, atol=1e-15)


def test_mat_inverse_diag():
    inv = mat_inverse(np.array([[2.0, 0.0], [0.0, 4.0]]))
    assert np.allclose(inv, np.diag([0.5, 0.25]), atol=1e-16)


def test_mat_inverse_involution_on_well_conditioned():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.uniform(-1, 1, (5, 5)) + 5.0 * np.eye(5)
        assert np.linalg.cond(a) <= 1e3
        twice = mat_inverse(mat_inverse(np.array(a)))
        assert np.max(np.abs(twice - a)) <= 1e-10


def test_mat_inverse_singular():
    with pytest.raises(SingularMatrixError):
        mat_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        mat_inverse(np.zeros((3, 3)))


def test_solve_linear_simple():
    assert np.allclose(solve_linear(np.eye(3), [1.0, 2.0, 3.0]), [1, 2, 3])
    assert np.allclose(solve_linear(np.array([[2.0, 0.0], [0.0, 2.0]]), [2.0, 4.0]), [1, 2])


def test_solve_linear_residual():
    rng = np.random.default_rng(8)
    a = rng.uniform(-1, 1, (5, 5)) + 4.0 * np.eye(5)
    b = rng.uniform(-1, 1, 5)
    x = solve_linear(np.array(a), b)
    res = np.max(np.abs(a @ x - b))
    bound = 1e-12 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
    assert res <= bound


def test_solve_linear_dimension_error():
    with pytest.raises(DimensionError):
        solve_linear(np.eye(3), [1.0, 2.0])


# -- newton --------------------------------------------------------------


def test_newton_sqrt():
    def f(x):
        return np.array([x[0] ** 2 - 4.0]), np.array([[2.0 * x[0]]])

    x = newton_solve(f, [3.0], tol=1e-12)
    assert abs(x[0] - 2.0) <= 1e-12


def test_newton_affine_single_iteration():
    calls = []

    def f(x):
        calls.append(x.copy())
        return np.array([3.0 * x[0] - 6.0, x[1] + 1.0]), np.array([[3.0, 0.0], [0.0, 1.0]])

    x = newton_solve(f, [10.0, 10.0])
    assert np.allclose(x, [2.0, -1.0], atol=1e-12)
    # one correction step: the residual map runs at x0 and at the solution
    assert len(calls) == 2


def test_newton_magnetic_skater_consistency():
    # dH/deta3 = 0 selects eta3 = B e_c x cos(phi) for the charged skater
    spec = build("skater_charged")
    x, phi = 2.0, 0.5
    p_fixed = [x, 0.0, phi, 0.3, -0.7]

    def residual(e3):
        p = p_fixed + list(e3)
        g = grad(spec.hamiltonian, p)
        return g[5:], hessian_block(spec.hamiltonian, p, [5])

    sol = newton_solve(residual, [0.0])
    assert abs(sol[0] - 2.0 * math.cos(phi)) <= 1e-12


def test_newton_nonconvergence():
    # classic two-cycle 0 -> 1 -> 0 of x^3 - 2x + 2
    def f(x):
        return np.array([x[0] ** 3 - 2.0 * x[0] + 2.0]), np.array([[3.0 * x[0] ** 2 - 2.0]])

    with pytest.raises(NonConvergenceError) as info:
        newton_solve(f, [0.0], tol=1e-12, max_iter=10)
    assert info.value.residual is not None


def test_newton_singular_jacobian():
    def f(x):
        return np.array([x[0] - 1.0]), np.array([[0.0]])

    with pytest.raises(SingularMatrixError):
        newton_solve(f, [5.0])


# -- dual arithmetic edge cases -------------------------------------------


def test_dual_power_rules():
    x = DualScalar(-2.0, (1.0,))
    cubed = x**3
    assert cubed.value == -8.0 and cubed.partials[0] == 12.0
    with pytest.raises(NumericDomainError):
        x**0.5
    with pytest.raises(NumericDomainError):
        DualScalar(0.0, (1.0,)) ** -1


def test_dual_variable_exponent():
    # d/dx x^x = x^x (log x + 1)
    x = DualScalar(2.0, (1.0,))
    out = x**x
    assert abs(out.value - 4.0) <= 1e-14
    assert abs(out.partials[0] - 4.0 * (math.log(2.0) + 1.0)) <= 1e-13


def test_dual_division_by_zero():
    x = DualScalar(1.0, (1.0,))
    with pytest.raises(NumericDomainError):
        x / DualScalar(0.0, (0.0,))
    with pytest.raises(NumericDomainError):
        1.0 / DualScalar(0.0, (1.0,))
