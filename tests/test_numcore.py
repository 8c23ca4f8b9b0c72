import math
import re
import sys

import numpy as np
import pytest

from diracmech.errors import (
    DimensionError,
    NonConvergenceError,
    NumericDomainError,
    SingularMatrixError,
)
from diracmech import numcore, tracing
from diracmech.numcore import (
    DualScalar,
    ScalarField,
    gauss_solve,
    grad,
    hessian_block,
    mat_inverse,
    newton_iterate,
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
                fd = (float(f(*up.tolist())) - float(f(*down.tolist()))) / (2 * h)
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


@pytest.mark.parametrize("y", [0.0, 1e-9])
def test_hessian_of_a_power_whose_exponent_is_stationary(y):
    # at y = 0 the first partials of y*y vanish and its second does not:
    # d2/dy2 2 ** (y*y) = 2 ln 2 there, and 1e-9 away it is the same double
    f = field(2, lambda x, y: 2.0 ** (y * y))
    h = hessian_block(f, (0.0, y), (0, 1))
    assert h.tolist() == [[0.0, 0.0], [0.0, 2.0 * math.log(2.0)]]


def test_a_negative_base_with_a_stationary_varying_exponent_has_no_hessian():
    # x ** (y*y) at y = 0 is 1 for every x, but its second partial in y is
    # 2 ln x, which the reals lack for x < 0; the gradient is still zero
    f = field(2, lambda x, y: x ** (y * y))
    assert grad(f, (-2.0, 0.0)).tolist() == [0.0, 0.0]
    with pytest.raises(NumericDomainError, match="log of a non-positive value"):
        hessian_block(f, (-2.0, 0.0), (0, 1))
    assert hessian_block(f, (2.0, 0.0), (0, 1)).tolist() == [[0.0, 0.0], [0.0, 2.0 * math.log(2.0)]]


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


@pytest.mark.parametrize(
    "idx, message",
    [
        ((0, 0), "index subset [0, 0] must hold distinct integers"),
        ((1, 0, 1), "index subset [1, 0, 1] must hold distinct integers"),
        ((1.0,), "index subset [1.0] must hold distinct integers"),
        ((0, 0.5), "index subset [0, 0.5] must hold distinct integers"),
    ],
)
@pytest.mark.parametrize("block", [hessian_block, numcore.grad_and_hessian_rows])
def test_hessian_rejects_a_repeated_or_non_integer_index(block, idx, message):
    # x*x*y at (1, 2) has the block [[4, 4], [4, 4]] over (0, 0): a
    # repeated index must not give a wrong one
    f = field(2, lambda x, y: x * x * y)
    with pytest.raises(DimensionError) as info:
        block(f, [1.0, 2.0], idx)
    assert str(info.value) == message


@pytest.mark.parametrize("fn", ["sin", "cos", "tan"])
@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_trigonometric_function_of_an_infinity_is_a_domain_error(fn, x):
    with pytest.raises(NumericDomainError) as info:
        getattr(numcore, fn)(x)
    assert str(info.value) == f"{fn} of {x!r}"


def test_grad_at_an_infinite_heading_is_a_domain_error():
    h = build("skater_charged").hamiltonian
    with pytest.raises(NumericDomainError, match=r"^(sin|cos) of inf$"):
        grad(h, [0.0, 0.0, math.inf, 1.0, 1.0, 0.0])


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


def test_gauss_solve_on_rows_swaps_to_the_pivot_and_leaves_its_input():
    a = [[0.0, 2.0], [4.0, 0.0]]
    assert gauss_solve(a, [2.0, 8.0]) == [2.0, 1.0]
    assert a == [[0.0, 2.0], [4.0, 0.0]]
    assert gauss_solve(((3,),), (6,)) == [2.0]


@pytest.mark.parametrize(
    "a, pivot",
    [
        ([[1e-20, 1.0], [-1e-20, 1.0]], "1.000e-20"),  # a tie goes to the first row
        ([[-1e-20, 1.0], [1e-20, 1.0]], "-1.000e-20"),
        ([[1e-20, 1.0], [-2e-20, 1.0]], "-2.000e-20"),  # else the largest magnitude
    ],
)
def test_gauss_solve_pivots_on_the_first_row_of_largest_magnitude(a, pivot):
    with pytest.raises(SingularMatrixError) as info:
        gauss_solve(a, [1.0, 1.0])
    assert str(info.value) == f"pivot {pivot} below 1.000e-13 in column 0"


def test_gauss_solve_messages():
    cases = [
        (lambda: gauss_solve([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0]), SingularMatrixError, "zero matrix"),
        (
            lambda: gauss_solve([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0, 3.0]),
            DimensionError,
            "right-hand side of length (3,) for 2 equations",
        ),
        (
            lambda: gauss_solve([[1.0, 0.0], [1.0]], [1.0, 2.0]),
            DimensionError,
            "square matrix required, got rows of lengths [2, 1]",
        ),
        (
            lambda: gauss_solve(np.eye(2), [[1.0], [2.0]]),
            DimensionError,
            "right-hand side of length (2, 1) for 2 equations",
        ),
        (
            lambda: gauss_solve(np.eye(2), [[1.0], [2.0, 3.0]]),
            DimensionError,
            "right-hand side of length (2, [1, 2]) for 2 equations",
        ),
        (
            lambda: mat_inverse([[1.0, 2.0], [3.0]]),
            DimensionError,
            "square matrix required, got rows of lengths [2, 1]",
        ),
        (
            lambda: solve_linear([[1.0, 2.0], [3.0]], [1.0, 2.0]),
            DimensionError,
            "square matrix required, got rows of lengths [2, 1]",
        ),
        (lambda: mat_inverse([1.0, 2.0]), DimensionError, "square matrix required, got shape (2,)"),
    ]
    for solve, error, message in cases:
        with pytest.raises(error) as info:
            solve()
        assert str(info.value) == message


def test_a_float_solve_appends_its_decisions_in_order():
    # each magnitude above the largest so far? (else: is it nan?), zero matrix?,
    # then per column: each pivot test, the singular test, each zero skip
    path = []
    assert gauss_solve([[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0], path) == gauss_solve([[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0])
    assert path == [True, True, True, True, False, True, False, True, False]
    path = []
    gauss_solve([[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 3.0]], [1.0, 2.0, 3.0], path)
    largest = [True, *[False] * 14, True]
    assert path == [*largest, False, False, False, False, False, True, False, False, False, False]


def traced_solve(taken):
    """A 2 x 2 solve of x0, x1, compiled along the decisions ``taken``; on
    floats the solve itself."""

    def solve(x0, x1):
        path = iter(taken) if tracing.is_traced((x0, x1)) else None
        return gauss_solve([[x0, 1.0], [x1, 2.0]], [1.0, x0], path)

    return solve, tracing.compile_traced(solve, 2)


@pytest.mark.parametrize(
    "point",
    [(0.5, 0.75), (4.0, 1.0), (0.5, 0.0), (0.5, 1.0), (1e-300, 0.0), (math.nan, 1.0), (0.5, math.inf)],
)
def test_a_solve_traced_along_a_path_has_its_bits_or_gives_up(point):
    # traced at |x0| < |x1|: the second row pivots, and no entry under it is zero
    taken = []
    gauss_solve([[0.5, 1.0], [0.75, 2.0]], [1.0, 0.5], taken)
    solve, program = traced_solve(taken)
    assert program is not solve and "raise give_up" in tracing.source_of(program)
    try:
        want = solve(*point)
    except SingularMatrixError as err:  # x1 = 2 x0: the second pivot is zero
        with pytest.raises(SingularMatrixError, match=re.escape(str(err))):
            program(*point)
    else:
        got = program(*point)
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


def test_a_larger_traced_solve_without_a_path_is_untraceable():
    def solve(x0, x1):
        return gauss_solve([[x0, 1.0], [x1, 2.0]], [1.0, x0])

    assert tracing.compile_traced(solve, 2) is solve


def test_mat_inverse_columns_are_gauss_solves():
    rng = np.random.default_rng(4)
    a = rng.uniform(-1, 1, (4, 4)) + 2.0 * np.eye(4)
    inv = mat_inverse(a)
    for j in range(4):
        column = gauss_solve(a, [float(i == j) for i in range(4)])
        assert inv[:, j].tolist() == column


# gauss_solve(a, b) and mat_inverse(a) row by row as float.hex, recorded
# before the elimination was streamlined: row swaps in one and in several
# columns, a pivot far below its row's scale, and near-singular systems.
SOLVE_TABLE = [
    (
        [[2.0]],
        [3.0],
        ['0x1.8000000000000p+0'],
        ['0x1.0000000000000p-1'],
    ),
    (
        [[1e-3, 1.0], [1.0, 1.0]],
        [1.0, 2.0],
        ['0x1.00419a0290042p+0', '0x1.ff7ccbfadff7dp-1'],
        ['-0x1.00419a0290042p+0', '0x1.00419a0290042p+0', '0x1.00419a0290042p+0', '-0x1.06680a4010668p-10'],
    ),
    (
        [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [4.0, -3.0, 8.0]],
        [1.0, -1.0, 0.5],
        ['-0x1.8800000000000p+3', '-0x1.a000000000000p+2', '0x1.e000000000000p+1'],
        ['-0x1.2000000000000p+2', '0x1.c000000000000p+2', '-0x1.8000000000000p+0', '-0x1.0000000000000p+1', '0x1.0000000000000p+2', '-0x1.0000000000000p+0', '0x1.8000000000000p+0', '-0x1.0000000000000p+1', '0x1.0000000000000p-1'],
    ),
    (
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]],
        [0.1, 0.2, 0.3],
        ['-0x1.1111111111116p-5', '0x1.1111111111116p-4', '-0x1.4000000000004p-55'],
        ['-0x1.555555555554bp-1', '-0x1.555555555555bp+0', '0x1.0000000000002p+0', '-0x1.555555555556ap-1', '0x1.d55555555555cp+1', '-0x1.0000000000003p+1', '0x1.0000000000005p+0', '-0x1.0000000000003p+1', '0x1.0000000000003p+0'],
    ),
    (
        [[1.0, 1.0], [1.0, 1.0 + 1e-12]],
        [2.0, 2.0 + 1e-12],
        ['0x1.0000000000000p+0', '0x1.0000000000000p+0'],
        ['0x1.d19eb155f28a4p+39', '-0x1.d19eb155f08a4p+39', '-0x1.d19eb155f08a4p+39', '0x1.d19eb155f08a4p+39'],
    ),
    (
        [[3.0, -0.1, -0.2, 0.7], [0.1, 7.0, -0.3, 0.0], [0.3, -0.2, 10.0, 1.0], [-2.0, 4.0, 1.0, 0.5]],
        [7.85, -19.3, 71.4, 0.25],
        ['0x1.f96e9759b4bfbp-2', '-0x1.40beb46a0df11p+1', '0x1.81d6bfa73bc89p+2', '0x1.4ed47c1816b14p+3'],
        ['0x1.26d2d96a78e6cp-3', '0x1.43590c498c895p-3', '0x1.1c5c6fc69c33bp-5', '-0x1.157780ef6214ep-2', '-0x1.704820218bd64p-8', '0x1.2564546437ab5p-3', '0x1.1669f8718d3c5p-8', '-0x1.49de1f3ab598dp-11', '-0x1.548748949b53fp-4', '0x1.fbb57f965c7dcp-5', '0x1.c569f246b2ab4p-4', '-0x1.ae167ef08be11p-4', '0x1.92f92d91b8794p-1', '-0x1.46e64c71ae5d1p-1', '-0x1.dd500138f38d5p-4', '0x1.21952d0dea1cep+0'],
    ),
    (
        [[1e-20, 1.0], [1.0, 1e-20]],
        [1.0, 1.0],
        ['0x1.0000000000000p+0', '0x1.0000000000000p+0'],
        ['-0x1.79ca10c924223p-67', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '-0x1.79ca10c924223p-67'],
    ),
]


@pytest.mark.parametrize("a, b, x, inv", SOLVE_TABLE)
def test_solves_repeat_the_recorded_bits(a, b, x, inv):
    assert [v.hex() for v in gauss_solve(a, b)] == x
    assert [float(v).hex() for v in mat_inverse(a).ravel()] == inv


def test_solve_in_place_consumes_its_rows_and_columns():
    a, columns = [[0.0, 2.0], [4.0, 0.0]], [[2.0, 8.0], [1.0, 0.0]]
    numcore.solve_in_place(a, columns)
    assert columns == [[2.0, 1.0], [0.0, 0.5]]
    assert a[0] == [4.0, 0.0]  # the pivot row was swapped up


# -- newton --------------------------------------------------------------


def test_newton_iterate_on_lists():
    seen = []

    def f(x):
        seen.append(x)
        return [x[0] * x[0] - 4.0, 3.0 * x[1] - 6.0], [[2.0 * x[0], 0.0], [0.0, 3.0]]

    x = newton_iterate(f, (3, 10))
    assert type(x) is list and abs(x[0] - 2.0) <= 1e-12 and x[1] == 2.0
    assert all(type(v) is list for v in seen)
    assert seen[0] == [3.0, 10.0]


def test_newton_iterate_reads_a_one_shot_start_as_its_list():
    def f(x):
        return [x[0] * x[0] - 4.0], [[2.0 * x[0]]]

    assert newton_iterate(f, (v for v in [3.0])) == newton_iterate(f, [3.0])
    assert abs(newton_iterate(f, iter([3.0]))[0] - 2.0) <= 1e-12


def test_newton_iterate_returns_a_start_that_solves_without_a_step():
    def f(x):
        return [x[0] - 1.0], [[0.0]]  # a singular Jacobian is never solved here

    assert newton_iterate(f, [1.0], max_iter=0) == [1.0]


def test_newton_iterate_stops_at_max_iter():
    calls = []

    def f(x):
        calls.append(x)
        return [x[0] * x[0] + 1.0], [[2.0 * x[0] + 1.0]]

    with pytest.raises(NonConvergenceError) as info:
        newton_iterate(f, [0.0], max_iter=3)
    assert len(calls) == 4
    assert info.value.residual == calls[-1][0] ** 2 + 1.0


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tol": math.nan}, "tol must be positive and finite, got nan"),
        ({"tol": math.inf}, "tol must be positive and finite, got inf"),
        ({"tol": 0.0}, "tol must be positive and finite, got 0.0"),
        ({"tol": -1e-12}, "tol must be positive and finite, got -1e-12"),
        ({"max_iter": -1}, "max_iter must be non-negative, got -1"),
        ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
        ({"max_iter": True}, "max_iter must be an integer, got True"),
        ({"max_iter": 1.0}, "max_iter must be an integer, got 1.0"),
    ],
)
def test_newton_rejects_bad_arguments_before_evaluating(kwargs, message):
    calls = []

    def f(x):
        calls.append(x)
        return x, np.eye(1)

    with pytest.raises(ValueError) as info:
        newton_solve(f, [1.0], **kwargs)
    assert str(info.value) == message
    assert calls == []


@pytest.mark.parametrize(
    "res, jac, message",
    [
        ([1.0, 2.0], np.zeros((1, 2)), "square matrix required, got shape (1, 2)"),
        ([1.0, 2.0], [[1.0, 0.0]], "square matrix required, got rows of lengths [2]"),
        ([1.0], np.eye(2), "right-hand side of length (1,) for 2 equations"),
        ([1.0, 2.0, 3.0], np.eye(2), "right-hand side of length (3,) for 2 equations"),
        ([[1.0], [2.0]], np.eye(2), "right-hand side of length (2, 1) for 2 equations"),
    ],
)
def test_newton_solve_checks_the_shapes_its_map_returns(res, jac, message):
    with pytest.raises(DimensionError) as info:
        newton_solve(lambda x: (res, jac), [0.0, 0.0])
    assert str(info.value) == message


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


@pytest.mark.parametrize("base", [0.0, -0.0])
@pytest.mark.parametrize("exponent", [-0.5, -1.5, -math.inf])
def test_zero_base_with_negative_non_integer_exponent_is_a_domain_error(base, exponent):
    with pytest.raises(NumericDomainError, match="^zero base with negative exponent$"):
        numcore.power(base, exponent)
    # a traced base records the test as a guard, and its program raises the same
    program = tracing.compile_traced(lambda x: numcore.power(x, exponent), 1)
    assert "== 0.0: raise give_up" in tracing._source(program.__globals__["reference"], 1)[0]
    assert program(4.0) == 4.0**exponent
    with pytest.raises(NumericDomainError, match="^zero base with negative exponent$"):
        program(base)


@pytest.mark.parametrize("exponent, shown", [(1.5, "1.5"), (2, "2"), (2.0, "2")])
def test_power_overflow_is_a_domain_error(exponent, shown):
    # a non-integer exponent overflows into the same error as an integer one
    message = f"^power overflow for exponent {shown}$"
    for base in (1e300, DualScalar(1e300, (1.0,))):
        with pytest.raises(NumericDomainError, match=message) as info:
            numcore.power(base, exponent)
        assert isinstance(info.value.__cause__, OverflowError)


def test_dual_variable_exponent():
    # d/dx x^x = x^x (log x + 1)
    x = DualScalar(2.0, (1.0,))
    out = x**x
    assert abs(out.value - 4.0) <= 1e-14
    assert abs(out.partials[0] - 4.0 * (math.log(2.0) + 1.0)) <= 1e-13


def test_dual_unary_plus_and_repr():
    x = DualScalar(1.0, (2.0,))
    assert +x is x
    assert repr(x) == "DualScalar(1.0, (2.0,))"


def test_a_piecewise_field_branches_on_dual_comparisons():
    # x <= 0 and e >= 0 cannot be traced, so grad takes the dual sweep
    f = ScalarField(("x",), ("e",), lambda x, e: (x * x if x <= 0.0 else x) + (e * e if e >= 0.0 else -e))
    assert grad(f, (-1.5, 2.0)).tolist() == [-3.0, 4.0]
    assert grad(f, (1.5, -2.0)).tolist() == [1.0, -1.0]
    assert f._compiled.__code__.co_filename != "<traced>"


def test_dual_division_by_zero():
    x = DualScalar(1.0, (1.0,))
    with pytest.raises(NumericDomainError):
        x / DualScalar(0.0, (0.0,))
    with pytest.raises(NumericDomainError):
        1.0 / DualScalar(0.0, (1.0,))


# -- newton at tracing scalars -------------------------------------------


def square_root(a, x0, max_iter=numcore.NEWTON_MAX_ITER):
    """Newton on x^2 = a from x0: a traced 1 x 1 Jacobian."""
    return newton_iterate(lambda x: ([x[0] * x[0] - a], [[2.0 * x[0]]]), [x0], max_iter=max_iter)


def loop_steps(a, x0):
    """The steps the float loop of ``square_root`` takes."""
    calls = []
    newton_iterate(lambda x: calls.append(x) or ([x[0] * x[0] - a], [[2.0 * x[0]]]), [x0])
    return len(calls) - 1


def hexes(values):
    return [v.hex() for v in values]


def gave_up(program, *args):
    """Whether ``program`` ran the function it was traced from at ``args``."""
    from test_compiled import fallback_calls

    return bool(fallback_calls(program, lambda: program(*args)))


def test_traced_newton_is_the_loop_recorded_once():
    program = tracing.compile_traced(square_root, 2)
    source, consts, _ = tracing._source(square_root, 2)
    assert program.__code__.co_filename == "<traced>"
    tests = [line.strip() for line in source.splitlines() if "fabs(" in line]
    assert len(tests) == 1 and tests[0].startswith("if fabs(") and tests[0].endswith(": break")
    passes = re.findall(r"^ +for _ in (c\d+):$", source, re.M)
    assert len(passes) == 1 and consts[passes[0]] == (None,) * (numcore.NEWTON_UNROLLED + 1)
    assert "range(" not in source and source.count("else: raise give_up") == 1
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, x0 = rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)
        assert hexes(program(a, x0)) == hexes(square_root(a, x0))
        assert gave_up(program, a, x0) == (loop_steps(a, x0) > numcore.NEWTON_UNROLLED)


def test_traced_newton_gives_up_where_the_loop_needs_more_steps_or_fails():
    program = tracing.compile_traced(square_root, 2)
    assert loop_steps(2.0, 1e6) > numcore.NEWTON_UNROLLED
    assert hexes(program(2.0, 1e6)) == hexes(square_root(2.0, 1e6))
    assert gave_up(program, 2.0, 1e6)
    with pytest.raises(SingularMatrixError) as traced:  # the zero pivot is a guard
        program(2.0, 0.0)
    with pytest.raises(SingularMatrixError) as loop:
        square_root(2.0, 0.0)
    assert str(traced.value) == str(loop.value) == "zero matrix"

    def two_cycle(c, x0):  # 0 -> 1 -> 0 for c = 2: the cubic of test_newton_nonconvergence
        def residual(x):
            return [x[0] * x[0] * x[0] - 2.0 * x[0] + c], [[3.0 * x[0] * x[0] - 2.0]]

        return newton_iterate(residual, [x0])

    program = tracing.compile_traced(two_cycle, 2)
    assert program.__code__.co_filename == "<traced>"
    with pytest.raises(NonConvergenceError) as traced:
        program(2.0, 0.0)
    with pytest.raises(NonConvergenceError) as loop:
        two_cycle(2.0, 0.0)
    assert str(traced.value) == str(loop.value)


def test_traced_newton_takes_no_more_steps_than_max_iter():
    program = tracing.compile_traced(lambda a, x0: square_root(a, x0, max_iter=2), 2)
    assert loop_steps(4.0, 3.0) > 2 >= loop_steps(4.0, 2.0)
    with pytest.raises(NonConvergenceError):
        program(4.0, 3.0)
    assert list(program(4.0, 2.0)) == [2.0]


def test_traced_newton_solves_a_constant_jacobian_while_tracing():
    def affine(b0, b1, x0, x1):
        jac = [[3.0, 1.0], [1.0, 2.0]]
        return newton_iterate(
            lambda x: (dot_rows(jac, x, (b0, b1)), [list(row) for row in jac]), [x0, x1]
        )

    program = tracing.compile_traced(affine, 4)
    assert program.__code__.co_filename == "<traced>"
    rng = np.random.default_rng(5)
    for _ in range(50):
        args = rng.uniform(-2.0, 2.0, 4).tolist()
        assert hexes(program(*args)) == hexes(affine(*args))
        assert not gave_up(program, *args)


def test_traced_newton_leaves_every_jacobian_its_map_returned_as_it_was():
    rows = [[1.0, 1.0], [1.0, 2.0]]  # eliminated in place, this would read singular
    returned = []

    def affine(b0, b1, x0, x1):
        def residual(x):
            returned.append([list(row) for row in rows])
            return dot_rows(rows, x, (b0, b1)), returned[-1]

        return newton_iterate(residual, [x0, x1])

    program = tracing.compile_traced(affine, 4)
    assert program.__code__.co_filename == "<traced>"
    assert returned and all(jac == rows for jac in returned)
    assert hexes(program(1.0, 2.0, 0.5, 0.5)) == hexes(affine(1.0, 2.0, 0.5, 0.5))


def dot_rows(rows, x, b):
    return [row[0] * x[0] + row[1] * x[1] - bi for row, bi in zip(rows, b)]


def test_a_traced_jacobian_larger_than_one_cannot_be_traced():
    def coupled(a, x0, x1):
        return newton_iterate(
            lambda x: ([x[0] * x[1] - a, x[0] - x[1]], [[x[1], x[0]], [1.0, -1.0]]), [x0, x1]
        )

    assert tracing.compile_traced(coupled, 3) is coupled


def test_traced_unary_plus_is_generated_code():
    program = tracing.compile_traced(lambda x: +x, 1)
    assert program.__code__.co_filename == "<traced>"
    assert program(3.0) == 3.0


def test_compile_traced_returns_a_function_it_cannot_trace_itself():
    saved = []
    tracing.compile_traced(lambda x: saved.append(x) or x, 1)

    def float_to_traced_power(x):  # power reads the float of its exponent
        return 2.0**x

    def mixes_traces(x):
        return x + saved[0]

    def returns_a_string(x):
        return [x, "a"]

    def nested_newton(a):  # the residual map runs a Newton solve from a traced start
        def residual(x):
            return [x[0] * x[0] - square_root(a, x[0])[0]], [[2.0 * x[0]]]

        return newton_iterate(residual, [a])

    for fn in (float_to_traced_power, mixes_traces, returns_a_string, nested_newton):
        assert tracing.compile_traced(fn, 1) is fn
    assert abs(nested_newton(16.0)[0] - 2.0) <= 1e-12


def test_unrolled_newton_leaves_a_comparing_function_untraceable():
    def compares(a, x0):
        return square_root(a, x0) if a > 0.0 else [0.0]

    assert tracing.compile_traced(compares, 2) is compares


# -- the exits of the unrolled Newton ---------------------------------------


def executed(program, args, marker):
    """How often ``program``'s generated code ran a line holding ``marker``
    in one call at ``args``, counted from line events on its own frame."""
    lines = tracing.source_of(program).splitlines()
    count = [0]

    def local(frame, event, arg):
        if event == "line" and marker in lines[frame.f_lineno - 1]:
            count[0] += 1
        return local

    def scope(frame, event, arg):
        return local if frame.f_code is program.__code__ else None

    old = sys.gettrace()
    sys.settrace(scope)
    try:
        program(*args)
    finally:
        sys.settrace(old)
    return count[0]


def sweeps(program, args):
    """Residual sweeps one call ran: each is followed by one convergence test."""
    return executed(program, args, "fabs(")


def starts_by_steps(a):
    """For each number of steps the float loop of ``square_root`` takes
    from a start in [sqrt(a), 1e6], the first such start."""
    root, starts = math.sqrt(a), {}
    near = [root + 2.0**-e for e in range(40, 0, -1)]
    for x0 in [root, *near, *np.geomspace(2.0, 1e6, 200).tolist()]:
        starts.setdefault(loop_steps(a, x0), x0)
    return starts


@pytest.mark.parametrize("max_iter", [numcore.NEWTON_MAX_ITER, 3])
def test_every_exit_of_the_unrolled_newton_is_the_loop(max_iter):
    k = numcore.NEWTON_UNROLLED
    program = tracing.compile_traced(lambda a, x0: square_root(a, x0, max_iter=max_iter), 2)
    starts = starts_by_steps(2.0)
    assert set(range(k + 3)) <= set(starts)  # every exit, and beyond K
    for steps, x0 in sorted(starts.items()):
        if steps > max_iter:  # the loop gives up: so does the program, with its error
            with pytest.raises(NonConvergenceError) as traced:
                program(2.0, x0)
            with pytest.raises(NonConvergenceError) as loop:
                square_root(2.0, x0, max_iter=max_iter)
            assert str(traced.value) == str(loop.value)
            continue
        assert hexes(program(2.0, x0)) == hexes(square_root(2.0, x0, max_iter=max_iter))
        assert gave_up(program, 2.0, x0) == (steps > k)
        if steps <= k:
            assert sweeps(program, (2.0, x0)) == steps + 1


def test_a_constant_jacobian_leaves_at_the_start_or_after_one_step():
    jac = [[3.0, 1.0], [1.0, 2.0]]

    def affine(b0, b1, x0, x1, calls=None):
        def residual(x):
            if calls is not None:
                calls.append(x)
            return dot_rows(jac, x, (b0, b1)), [list(row) for row in jac]

        return newton_iterate(residual, [x0, x1])

    program = tracing.compile_traced(affine, 4)
    for args in ([5.0, 5.0, 1.0, 2.0], [1.0, -2.0, 0.25, 0.5]):
        calls = []
        assert hexes(program(*args)) == hexes(affine(*args, calls))
        assert not gave_up(program, *args)
        assert sweeps(program, args) == len(calls) == (1 if args[0] == 5.0 else 2)


def test_a_tail_reading_the_last_residual_reads_the_exit_pass():
    def leaky(a, x0):  # reads the last sweep's residual: in the program, the exit pass's
        seen = []

        def residual(x):
            seen.append(x[0] * x[0] - a)
            return [seen[-1]], [[2.0 * x[0]]]

        return newton_iterate(residual, [x0])[0] + seen[-1]

    program = tracing.compile_traced(leaky, 2)
    assert program.__code__.co_filename == "<traced>"
    for steps, x0 in sorted(starts_by_steps(2.0).items()):
        assert hexes([program(2.0, x0)]) == hexes([leaky(2.0, x0)])
        assert gave_up(program, 2.0, x0) == (steps > numcore.NEWTON_UNROLLED)


def test_no_line_or_guard_of_the_exit_block_is_shared_after_it():
    def solve(a, x0):  # the tail steps again from the exit iterate, as the loop does after its test
        root = square_root(a, x0)[0]
        return root, numcore.divide(root * root - a, 2.0 * root)

    source, _, _ = tracing._source(solve, 2)
    pivot = re.search(r"if v\d+ == 0\.0: raise give_up", source).group(0)  # the step's, in the loop
    step = re.search(r"= (v\d+ / v\d+)$", source, re.M).group(1)
    assert source.count(pivot) == 2
    assert len(re.findall(rf"= {step}$", source, re.M)) == 2
    program = tracing.compile_traced(solve, 2)
    for a, x0 in [(4.0, 2.0), (2.0, 1.5), (2.0, 3.0)]:  # leaves at the start, then after steps
        assert hexes(program(a, x0)) == hexes(solve(a, x0))
        assert not gave_up(program, a, x0)
    assert sweeps(program, (4.0, 2.0)) == 1
    with pytest.raises(NumericDomainError, match="^division by zero$"):
        program(0.0, 0.0)


def test_values_from_before_a_loop_read_once_after_it_keep_their_numbers():
    # ``scale`` is computed before the loop, and the residual map's ``cos(a) - a``
    # is hoisted before it (it reads nothing the loop defines); each is read
    # once, by an assignment after the loop
    def solve(a, x0):
        scale, seen = numcore.sin(a) * x0, []

        def residual(x):
            seen.append(numcore.cos(a) - a)
            return [x[0] * x[0] - a], [[2.0 * x[0]]]

        return newton_iterate(residual, [x0])[0] * scale + seen[-1]

    tape = tracing._Tape()
    solve(tracing.Tracer(tape, "x0"), tracing.Tracer(tape, "x1"))
    body = [i for i, line in enumerate(tape.lines) if line.depth]
    readers = {}
    for i, line in enumerate(tape.lines):
        for name in line.reads:
            readers.setdefault(name, []).append(i)
    across = [
        line.name
        for line in tape.lines[: body[0]]
        if line.name
        and len(readers.get(line.name, ())) == 1
        and readers[line.name][0] > body[-1]
        and tape.lines[readers[line.name][0]].name
    ]
    assert len(across) == 2
    program = tracing.compile_traced(solve, 2)
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.uniform(0.5, 4.0)
        x0 = math.sqrt(a) * rng.uniform(0.8, 1.25)
        assert hexes([program(a, x0)]) == hexes([solve(a, x0)])
        assert not gave_up(program, a, x0)


def test_exits_with_different_plain_numbers_cannot_be_traced():
    def changing(a, x0):  # a plain Jacobian at the start, a traced one after
        calls = []

        def residual(x):
            calls.append(x)
            return [x[0] * x[0] - a], [[2.0 * x[0] if len(calls) > 1 else 2.0]]

        return newton_iterate(residual, [x0])

    assert tracing.compile_traced(changing, 2) is changing


def test_a_finiteness_guard_adds_no_plain_finite_number():
    def f(x):
        tracing.require_finite([x, 2.0, math.inf, x * 3.0, -0.0])
        return x

    source, consts, _ = tracing._source(f, 1)
    guard = re.search(r"if not isfinite\((.*)\): raise give_up", source).group(1).split(" + ")
    assert [consts.get(name, name) for name in guard] == ["x0", math.inf, "v0"]


def test_the_liveness_pass_keeps_every_exit():
    line = tracing._Line
    lines = [
        line("{} * {}", "v0", ("x0", "x1"), False, 0),
        line("v1_0 = {}", None, ("x0",), True, 0),  # the carried iterate, set before the loop
        line("for _ in c2:", None, (), True, 0),
        line("{} * {}", "v2", ("v1_0", "v0"), False, 1),
        line("{} - {}", "v3", ("x0", "v2"), False, 1),  # dead on every path: dropped
        line("if fabs({}) <= c0: break", None, ("v2",), True, 1),
        line("{} - {}", "v5", ("v1_0", "v2"), False, 1),  # read across the back edge
        line("v1_0 = {}", None, ("v5",), True, 1),
        line("else: raise give_up", None, (), True, 0),
        line("{} * {}", "v8", ("v1_0", "c1"), False, 0),
    ]
    def text(ln):  # the line as written from its record
        return (f"{ln.name} = " if ln.name else "") + ln.form.format(*ln.reads)

    kept = ["    " * ln.depth + text(ln) for ln in lines[:4] + lines[5:]]
    assert tracing._live_lines(lines, ["v8"]) == kept


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda f: DualScalar(1.0, (1.0,)) / 0.0, NumericDomainError, "division by zero"),
        (lambda f: f(1.0, 2.0), DimensionError, "field of arity 3 called with 2 arguments"),
        (lambda f: hessian_block(f, [0.0] * 2, [1]), DimensionError, "point of length 2 for field of arity 3"),
    ],
)
def test_public_operations_raise_typed_errors(call, error, message):
    with pytest.raises(error) as info:
        call(field(3, lambda a, b, c: a * b * c))
    assert str(info.value) == message
