"""The compiled path of ``numcore.grad``, and the program of the
nested-dual sweep that a Newton field program records inline, against
the dual sweeps: equal numbers where they run, the dual sweep's errors
where they give up, and generated source that reads only its own
names."""

import ast
import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmech import numcore, tracing
from diracmech.algebroid import PhaseState
from diracmech.checks import ADMISSIBILITY_TOL, CONSISTENCY_TOL, ORACLE_TOL
from diracmech.dirac import (
    ConsistencySolution,
    complete_state,
    consistency_residual,
    evaluate_reduced,
    reduced_field,
    reduced_vector_field,
)
from diracmech.exprparse import parse_text
from diracmech.numcore import ScalarField, grad, hessian_block, max_abs, seed_duals
from diracmech.systems import (
    build,
    catalog_names,
    hamiltonian_with_potential,
    mechanical_lagrangian,
    oracle_reduced_field,
)

SPECS = {name: build(name) for name in catalog_names()}


def random_points(spec, count, seed):
    rng = np.random.default_rng(seed)
    return [
        np.concatenate([rng.uniform(-1.5, 1.5, spec.m), rng.uniform(-2.0, 2.0, spec.n_fiber)])
        for _ in range(count)
    ]


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def is_generated(program):
    """Whether ``program`` is code ``tracing.compile_traced`` generated."""
    return program.__code__.co_filename == "<traced>"


def assert_compiled_matches_dual(f, points):
    """The compiled value equals ``f`` at floats bit for bit, and the compiled
    gradient equals the dual sweep's under ``==``, differing in bits only
    as signed zeros."""
    grad(f, points[0])
    compiled = f._compiled
    assert compiled, "the field was not traced"
    for p in points:
        p = [float(v) for v in p]
        out = compiled(*p)
        assert out is not None, f"compiled code gave up at {p}"
        value, partials = out
        dual = f(*seed_duals(p))
        assert bits(value) == bits(float(f(*p))) == bits(dual.value)
        got = np.array(partials, dtype=float)
        want = np.array(dual.partials, dtype=float)
        assert np.array_equal(got, want)
        differ = bits(got) != bits(want)
        assert not np.any(got[differ]), "a nonzero partial differs in bits"


def quartic_skater():
    spec = SPECS["skater_charged"]
    base = spec.hamiltonian.fn

    def fn(x, y, phi, e1, e2, e3):
        return base(x, y, phi, e1, e2, e3) + 0.25 * e3**4

    return replace(spec, hamiltonian=ScalarField(spec.base_names, spec.fiber_names, fn))


@pytest.mark.parametrize("name", [*catalog_names(), "skater_quartic"])
def test_compiled_hamiltonian_matches_dual_sweep(name):
    spec = quartic_skater() if name == "skater_quartic" else SPECS[name]
    assert_compiled_matches_dual(spec.hamiltonian, random_points(spec, 200, seed=3))


@pytest.mark.parametrize("name", ["skater_free", "skater_slope", "ball_free"])
def test_compiled_mechanical_lagrangian_matches_dual_sweep(name):
    spec = SPECS[name]
    assert_compiled_matches_dual(mechanical_lagrangian(spec), random_points(spec, 200, seed=4))


# Domain-safe terms of the potential grammar: every wrapper keeps its
# argument inside the domain of log, sqrt, division and powers.
WRAPPERS = [
    "sin({})", "cos({})", "-{}", "abs({})", "exp(sin({}))", "sqrt(2+sin({}))",
    "log(2+cos({}))", "tan(0.5*sin({}))", "{0}/(2+cos({0}))", "1/(1+({})^2)",
    "sin({})^3", "(1+abs({}))^1.5", "(2+cos({}))^-2",
]


def potentials(names):
    leaf = st.one_of(st.sampled_from(names), st.sampled_from(["0.5", "2", "3.25"]))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
            st.tuples(st.sampled_from(WRAPPERS), inner).map(lambda t: t[0].format(t[1])),
        )

    return st.recursive(leaf, extend, max_leaves=10)


@st.composite
def system_and_potential(draw):
    name = draw(st.sampled_from(catalog_names()))
    return name, draw(potentials(SPECS[name].base_names))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(system_and_potential())
def test_compiled_parsed_potential_matches_dual_sweep(case):
    name, text = case
    spec = hamiltonian_with_potential(SPECS[name], parse_text(text))
    assert_compiled_matches_dual(spec.hamiltonian, random_points(spec, 20, seed=5))


def relative_error(got, want):
    return float(np.max(np.abs(np.asarray(got) - want) / (1.0 + np.abs(want))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(system_and_potential())
def test_reduced_field_with_a_parsed_potential_matches_the_oracle(case):
    """One Dirac structure serves H plus any potential: under the declared
    consistency and under forced Newton, the reduced field matches the
    classical oracle, the completed state meets the consistency condition
    and the velocity lies in the constraint."""
    name, text = case
    spec = hamiltonian_with_potential(SPECS[name], parse_text(text))
    dirac, h = spec.dirac, spec.hamiltonian
    rng = np.random.default_rng(8)
    for _ in range(2):
        rs = PhaseState(rng.uniform(-1.5, 1.5, spec.m), rng.uniform(-2.0, 2.0, spec.k), full=False)
        qdot_o, etadot_o = oracle_reduced_field(spec, rs)
        for solution in (spec.consistency, ConsistencySolution(kind="newton")):
            qdot, etadot = reduced_vector_field(dirac, h, rs, solution=solution)
            assert relative_error(qdot, qdot_o) <= ORACLE_TOL
            assert relative_error(etadot, etadot_o) <= ORACLE_TOL
            full, _ = complete_state(dirac, h, rs, solution=solution)
            assert max_abs(consistency_residual(dirac, h, full)) <= CONSISTENCY_TOL
            assert dirac.alg.admissibility_residual(rs.q, qdot, spec.k) <= ADMISSIBILITY_TOL


# Every rule with partials on both operands, on one variable and on two.
POTENTIALS = [
    "0.3*sin(x)+y^2/(2+cos(x))",
    "exp(-x*x)*sqrt(1+y*y)-1/(3+x^2)",
    "(1+abs(x))^1.5-x/(2+sin(x*y))+log(2+cos(y))*tan(0.3*x)",
    "(2+cos(x))^-2*(x*y-2.5)-3/(4+x*y)",
    "(2+cos(x))^y",
]


@pytest.mark.parametrize("name", ["skater_charged", "ball_magnetic"])
@pytest.mark.parametrize("text", POTENTIALS)
def test_compiled_potential_matches_dual_sweep(name, text):
    spec = hamiltonian_with_potential(SPECS[name], parse_text(text))
    assert_compiled_matches_dual(spec.hamiltonian, random_points(spec, 200, seed=6))


@pytest.mark.parametrize("text", ["x^0", "(2+cos(x))^y", "1.5^(x+y)"])
def test_zero_and_variable_exponents_generate_the_gradient_and_the_field(text):
    spec = hamiltonian_with_potential(SPECS["ball_free"], parse_text(text))
    h, n = spec.hamiltonian, spec.m + spec.k
    field = reduced_field(spec.dirac, h, spec.consistency)
    for p in random_points(spec, 20, seed=8):
        q, eta = p[: spec.m].tolist(), p[spec.m : n].tolist()
        eta_alpha, g, qdot, etadot = evaluate_reduced(spec.dirac, h, q, eta, solution=spec.consistency)
        dual = h(*seed_duals([*q, *eta, *eta_alpha.tolist()]))
        assert g.tolist() == list(dual.partials)
        assert dual.value == h(*q, *eta, *eta_alpha.tolist())
        want = [*qdot, *etadot, *eta_alpha, dual.value, *g]
        assert list(field(*q, *eta, *[0.0] * len(eta_alpha))) == want
    assert is_generated(h._compiled) and is_generated(field)


def test_second_grad_does_not_trace_again():
    calls = []

    def fn(x, y):
        calls.append(x)
        return x * numcore.sin(y)

    f = ScalarField(("x", "y"), (), fn)
    first = grad(f, (0.5, 0.25))
    second = grad(f, (0.75, -1.0))
    # the one call is the trace: a dual whose value is a tracing scalar
    assert len(calls) == 1 and isinstance(calls[0].value, tracing.Tracer)
    assert np.array_equal(first, [math.sin(0.25), 0.5 * math.cos(0.25)])
    assert np.array_equal(second, [math.sin(-1.0), 0.75 * math.cos(-1.0)])


# -- fallback to the dual sweep ----------------------------------------------


def dual_only(f):
    """The same field behind a comparison of its first argument, which a
    trace cannot answer, so grad always takes the dual sweep."""

    def fn(*args):
        if args[0] < 0.0 or True:
            return f.fn(*args)

    return ScalarField(f.base_names, f.fiber_names, fn)


def two(fn):
    return ScalarField(("x", "y"), (), fn)


GUARDS = {
    "log-negative": (two(lambda x, y: numcore.log(x) * y), (-1.0, 2.0)),
    "log-zero": (two(lambda x, y: numcore.log(x) * y), (0.0, 2.0)),
    "sqrt-negative": (two(lambda x, y: numcore.sqrt(x) + y), (-0.5, 1.0)),
    "sqrt-derivative-at-zero": (two(lambda x, y: numcore.sqrt(x) + y), (0.0, 1.0)),
    "divide-by-zero": (two(lambda x, y: y / x), (0.0, 1.0)),
    "constant-over-zero": (two(lambda x, y: 2.0 / (x - y)), (1.0, 1.0)),
    "parsed-divide-by-zero": (
        hamiltonian_with_potential(SPECS["ball_free"], parse_text("1/(x-y)")).hamiltonian,
        (0.5, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0),
    ),
    "zero-base-negative-exponent": (two(lambda x, y: x**-2 * y), (0.0, 1.0)),
    "negative-base-non-integer-exponent": (two(lambda x, y: x**0.5 * y), (-1.0, 1.0)),
    "zero-base-non-integer-exponent": (two(lambda x, y: x**1.5 * y), (0.0, 1.0)),
    "power-overflow": (two(lambda x, y: x**3 + y), (1e200, 1.0)),
    "exp-overflow": (two(lambda x, y: numcore.exp(x) * y), (1000.0, 1.0)),
    "sin-of-infinity": (two(lambda x, y: numcore.sin(x * y)), (1e308, 10.0)),
    "non-finite-result": (two(lambda x, y: x * 1e308 * y), (10.0, 10.0)),
    "absorbed-infinity": (two(lambda x, y: 1.0 / (x * x * y)), (1e200, 1.0)),
}


@pytest.mark.parametrize("case", list(GUARDS))
def test_guard_raises_the_dual_sweeps_error(case):
    f, p = GUARDS[case]
    with pytest.raises(Exception) as want:
        grad(dual_only(f), p)
    with pytest.raises(Exception) as got:
        grad(f, p)
    assert f._compiled, "the field was not traced"
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_value_dependent_branch_falls_back_to_the_dual_sweep():
    def fn(x, y):
        if x > 0:
            return x * y
        return -x * y * y

    f = two(fn)
    for p in [(2.0, 3.0), (-2.0, 3.0)]:
        dual = fn(*seed_duals(p))
        assert np.array_equal(grad(f, p), dual.partials)
    assert not is_generated(f._compiled)


def test_non_finite_derivative_message_shows_plain_floats():
    f = SPECS["ball_free"].hamiltonian
    with pytest.raises(numcore.NumericDomainError) as info:
        grad(f, np.array([0.0, 0.0, 1.0, 0.0, np.nan, 0.0, 0.0]))
    assert str(info.value) == "non-finite derivative at (0.0, 0.0, 1.0, 0.0, nan, 0.0, 0.0)"


def test_generated_source_reads_only_generated_names():
    text = "0.3*sin(x)+y^2/(2+cos(x))-tan(0.1*x)*exp(-y)+log(3+x)*sqrt(4+y)+abs(x)^1.5+1/y"
    spec = hamiltonian_with_potential(SPECS["skater_slope"], parse_text(text))
    f = ScalarField(
        spec.base_names,
        spec.fiber_names,
        lambda *a: spec.hamiltonian.fn(*a) + a[0] / math.inf - a[1] * -0.0 + math.nan * 0.0 * a[2],
    )
    source, consts, _ = tracing._source(lambda *xs: numcore.dual_sweep(f, xs), f.arity)
    generated = re.compile(r"[xvdc]\d+")
    names = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    assert names
    assert all(generated.fullmatch(n) or n in tracing._HELPERS or n == "reference" for n in names), names
    assert {repr(v) for v in consts.values()} >= {"inf", "-0.0", "nan"}
    assert "inf" not in source and "nan" not in source


# -- compiled Hessian blocks ----------------------------------------------------


def transverse(spec):
    start = spec.m + spec.k
    return tuple(range(start, start + spec.dirac.transverse))


def hessian_program(f, idx):
    """The program of the nested-dual sweep of ``f`` over ``idx``, as a
    Newton field program records the sweep inline."""
    return tracing.compile_traced(lambda *xs: numcore._hessian_sweep(f, xs, idx), f.arity)


def assert_compiled_hessian_matches_dual(f, idx, points):
    """The block of the sweep's program over ``idx`` equals
    ``hessian_block``'s, the sweep run on floats, under ``==``, differing
    in bits only as signed zeros."""
    compiled = hessian_program(f, idx)
    s = len(idx)
    for p in points:
        p = [float(v) for v in p]
        out = compiled(*p)
        assert out is not None, f"compiled code gave up at {p}"
        got = np.array(out[1], dtype=float).reshape(s, s)  # after the first partials
        want = hessian_block(f, p, idx)
        assert np.array_equal(got, want)
        differ = bits(got) != bits(want)
        assert not np.any(got[differ]), "a nonzero entry differs in bits"


@pytest.mark.parametrize("name", [*catalog_names(), "skater_quartic"])
def test_compiled_transverse_hessian_matches_dual_sweep(name):
    spec = quartic_skater() if name == "skater_quartic" else SPECS[name]
    assert transverse(spec)
    assert_compiled_hessian_matches_dual(spec.hamiltonian, transverse(spec), random_points(spec, 200, seed=7))


# SHA-256 over the bytes of hessian_block over the transverse momenta at
# random_points(spec, 200, seed=12), recorded when the program returned the
# block alone
TRANSVERSE_BLOCK_DIGESTS = {
    "ball_free": "e676e9b0f9108270c99197bbe423525ba972912053885b08decd3fb4c44fe612",
    "ball_harmonic": "e676e9b0f9108270c99197bbe423525ba972912053885b08decd3fb4c44fe612",
    "ball_magnetic": "e676e9b0f9108270c99197bbe423525ba972912053885b08decd3fb4c44fe612",
    "skater_charged": "e4d8a08d6fb2ee488fc41301bff7a9074c1920cc87210c50d9d15e77f8b1203f",
    "skater_free": "e4d8a08d6fb2ee488fc41301bff7a9074c1920cc87210c50d9d15e77f8b1203f",
    "skater_slope": "e4d8a08d6fb2ee488fc41301bff7a9074c1920cc87210c50d9d15e77f8b1203f",
    "skater_quartic": "a6142e33713bc58e5da5fe7cd7177853af2cf2da2b5fb12f8534c89ee7c4d090",
}


@pytest.mark.parametrize("name", [*catalog_names(), "skater_quartic"])
def test_transverse_program_returns_the_newton_residual_and_block(name):
    spec = quartic_skater() if name == "skater_quartic" else SPECS[name]
    h, idx = spec.hamiltonian, transverse(spec)
    s = len(idx)
    program = hessian_program(h, idx)
    assert is_generated(program)
    digest = hashlib.sha256()
    for p in random_points(spec, 200, seed=12):
        p = [float(v) for v in p]
        residual = list(numcore.value_and_grad(h, p)[1][idx[0] :])
        rows = hessian_block(h, p, idx).tolist()
        for first, block in (program(*p), numcore._hessian_sweep(h, p, idx)):
            assert list(first) == residual
            assert [list(block[r * s : (r + 1) * s]) for r in range(s)] == rows
        assert numcore.grad_and_hessian_rows(h, p, idx) == (tuple(residual), rows)
        digest.update(hessian_block(h, p, idx).tobytes())
    assert digest.hexdigest() == TRANSVERSE_BLOCK_DIGESTS[name]


def test_newton_residual_must_be_finite_where_the_block_is():
    f, p = GUARDS["non-finite-result"]
    assert hessian_block(f, p, (0, 1)).tolist() == [[0.0, 1e308], [1e308, 0.0]]
    with pytest.raises(numcore.NumericDomainError) as info:
        numcore.grad_and_hessian_rows(f, p, (0, 1))
    assert str(info.value) == "non-finite derivative at (10.0, 10.0)"


def test_non_finite_residual_is_reported_ahead_of_the_block():
    # both the first partials and the block overflow: the residual's
    # message comes first, as when the gradient was taken before the block
    f = ScalarField(["x"], ["y"], lambda x, y: 1e300 * y**4 + x)
    p = (0.0, 1e10)
    with pytest.raises(numcore.NumericDomainError) as info:
        numcore.grad_and_hessian_rows(f, p, (1,))
    assert str(info.value) == "non-finite derivative at (0.0, 10000000000.0)"
    with pytest.raises(numcore.NumericDomainError) as info:
        hessian_block(f, p, (1,))
    assert str(info.value) == "non-finite second derivative at (0.0, 10000000000.0)"


def test_an_infinite_block_under_finite_first_partials_is_reported():
    # at e = 6.68e-8 the first partial of exp(1e10 e) is 1.3e300 and the second overflows
    f = ScalarField(["x"], ["e"], lambda x, e: x + numcore.exp(1e10 * e))
    with pytest.raises(numcore.NumericDomainError) as info:
        numcore.grad_and_hessian_rows(f, (0.0, 6.68e-8), (1,))
    assert str(info.value) == "non-finite second derivative at (0.0, 6.68e-08)"


def test_newton_residual_comes_from_the_transverse_sweep():
    # the exponent of (1 + e3^2) ** (1.5 + x / 4) varies with x alone.  The
    # full gradient sweeps x too, so power takes the partials of exp(b log a);
    # the transverse sweep holds x fixed and takes b a**(b - 1).  The Newton
    # residual is the transverse sweep's, the sweep of its Jacobian, one ulp
    # from the gradient's slice here.
    spec = SPECS["skater_free"]
    h = ScalarField(
        spec.base_names, spec.fiber_names,
        lambda x, y, phi, e1, e2, e3: 0.5 * (e1 * e1 + e2 * e2) + (1.0 + e3 * e3) ** (1.5 + 0.25 * x),
    )
    p = (0.5, 0.0, 0.0, 1.0, 1.0, 0.25)
    (residual,), rows = numcore.grad_and_hessian_rows(h, p, (5,))
    assert residual.hex() == "0x1.b01098c4cc543p-1"
    assert numcore._hessian_sweep(h, p, (5,)) == ((residual,), (rows[0][0],))
    assert numcore.value_and_grad(h, p)[1][5].hex() == "0x1.b01098c4cc542p-1"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(system_and_potential())
def test_compiled_parsed_potential_hessian_matches_dual_sweep(case):
    name, text = case
    spec = hamiltonian_with_potential(SPECS[name], parse_text(text))
    f = spec.hamiltonian
    assert_compiled_hessian_matches_dual(f, tuple(range(f.arity)), random_points(spec, 20, seed=8))


@pytest.mark.parametrize("name", ["skater_charged", "ball_magnetic"])
@pytest.mark.parametrize("text", POTENTIALS)
def test_compiled_potential_hessian_matches_dual_sweep(name, text):
    spec = hamiltonian_with_potential(SPECS[name], parse_text(text))
    f = spec.hamiltonian
    assert_compiled_hessian_matches_dual(f, tuple(range(f.arity)), random_points(spec, 200, seed=9))


# x is not differentiated: every rule between a plain number and a dual,
# with the plain number on either side
MIXED = {
    "add-sub": lambda x, y: (x - y * y) + (y * y - x) * y + (2.0 - x) * (x + y) * y,
    "mul": lambda x, y: x * y * y - y * x * y,
    "div": lambda x, y: x / (1.5 + y * y) + y * y / (2.0 + x * x) - (x * y) / (x - 3.0),
    "rdiv": lambda x, y: (x + 0.5) / y + 1.0 / (x * y + 4.0),
    "abs-power": lambda x, y: abs(x) * y**3 + abs(x * y) ** 1.5 + (x * x + 1.0) ** y,
    "elementary": lambda x, y: numcore.sin(x) * numcore.exp(y) + numcore.log(2.0 + numcore.cos(x * y)),
}


@pytest.mark.parametrize("case", list(MIXED))
def test_compiled_hessian_with_plain_number_operands_matches_dual_sweep(case):
    rng = np.random.default_rng(10)
    points = [(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0)) for _ in range(200)]
    assert_compiled_hessian_matches_dual(two(MIXED[case]), (1,), points)


def outcome(run):
    """The bits of the flat outputs ``run()`` returns, or its error."""
    try:
        return "outputs", bits([v for out in run() for v in out]).tolist()
    except Exception as err:
        return type(err), str(err)


@pytest.mark.parametrize("case", list(GUARDS))
def test_hessian_guard_gives_the_dual_sweeps_outcome(case):
    f, p = GUARDS[case]
    idx = tuple(range(f.arity))
    program = hessian_program(f, idx)
    assert outcome(lambda: program(*p)) == outcome(lambda: numcore._hessian_sweep(f, p, idx))
    # x * 1e308 * y is bilinear: its Hessian is finite where its value is not
    block = outcome(lambda: hessian_block(f, p, idx))
    assert (block[0] == "outputs") == (case == "non-finite-result")


def test_hessian_value_dependent_branch_falls_back_to_the_dual_sweep():
    def fn(x, y):
        if x > 0:
            return x * y * y
        return -x * x * y

    f = two(fn)
    assert not is_generated(hessian_program(f, (0, 1)))
    for p, want in [((2.0, 3.0), [[0.0, 6.0], [6.0, 4.0]]), ((-2.0, 3.0), [[-6.0, 4.0], [4.0, 0.0]])]:
        assert hessian_block(f, p, (0, 1)).tolist() == want


def test_generated_hessian_source_reads_only_generated_names():
    text = "0.3*sin(x)+y^2/(2+cos(x))-tan(0.1*x)*exp(-y)+log(3+x)*sqrt(4+y)+abs(x)^1.5+1/y"
    spec = hamiltonian_with_potential(SPECS["skater_slope"], parse_text(text))
    f = ScalarField(
        spec.base_names,
        spec.fiber_names,
        lambda *a: spec.hamiltonian.fn(*a) + a[0] / math.inf - a[1] * -0.0 + math.nan * 0.0 * a[2] * a[5],
    )
    source, consts, _ = tracing._source(lambda *xs: numcore._hessian_sweep(f, xs, (0, 1, 5)), f.arity)
    generated = re.compile(r"[xvdc]\d+")
    names = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    assert names
    assert all(generated.fullmatch(n) or n in tracing._HELPERS or n == "reference" for n in names), names
    assert {repr(v) for v in consts.values()} >= {"inf", "-0.0", "nan"}
    assert "inf" not in source and "nan" not in source


# -- the generated code runs on its own ------------------------------------------------


def counted_program(sweep, f, *extra):
    """``compile_traced`` of ``sweep`` on ``f``, with the float calls of its
    reference (the points where the code gave up) listed."""
    calls = []

    def fn(*xs):
        if not tracing.is_traced(xs):
            calls.append(xs)
        return sweep(f, xs, *extra)

    return tracing.compile_traced(fn, f.arity), calls


def fallback_calls(program, run):
    """The float calls ``program``, generated code, makes of the function
    it was traced from (the points where its code gave up) while ``run()``
    runs."""
    assert is_generated(program)
    namespace, calls = program.__globals__, []
    reference = namespace["reference"]
    namespace["reference"] = lambda *xs: calls.append(xs) or reference(*xs)
    try:
        run()
    finally:
        namespace["reference"] = reference
    return calls


def assert_never_gives_up(f, points, idx=None):
    """The program ``grad`` compiles for ``f`` (or that of the nested-dual
    sweep over ``idx``) is generated code and returns its own outputs at
    every point."""
    if idx is None:
        grad(f, points[0])
        program = f._compiled
    else:
        program = hessian_program(f, idx)
    floats = [[float(v) for v in p] for p in points]
    assert fallback_calls(program, lambda: [program(*p) for p in floats]) == []


@pytest.mark.parametrize("name", [*catalog_names(), "skater_quartic"])
def test_catalog_programs_are_generated_and_never_give_up(name):
    spec = quartic_skater() if name == "skater_quartic" else SPECS[name]
    h, idx = spec.hamiltonian, transverse(spec)
    points = [[float(v) for v in p] for p in random_points(spec, 200, seed=3)]
    for sweep, extra in ((numcore.dual_sweep, ()), (numcore._hessian_sweep, (idx,))):
        program, calls = counted_program(sweep, h, *extra)
        assert is_generated(program)
        for p in points:
            program(*p)
        assert calls == []
    grad(h, points[0])
    assert is_generated(h._compiled)


# The inputs of the matches-dual-sweep tests above, where the generated
# code must run on its own: a program that fell back everywhere would
# compare the dual sweep with itself there.


@pytest.mark.parametrize("name", ["skater_free", "skater_slope", "ball_free"])
def test_mechanical_lagrangian_program_never_gives_up(name):
    spec = SPECS[name]
    assert_never_gives_up(mechanical_lagrangian(spec), random_points(spec, 200, seed=4))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(system_and_potential())
def test_parsed_potential_programs_never_give_up(case):
    name, text = case
    f = hamiltonian_with_potential(SPECS[name], parse_text(text)).hamiltonian
    spec = SPECS[name]
    assert_never_gives_up(f, random_points(spec, 20, seed=5))
    assert_never_gives_up(f, random_points(spec, 20, seed=8), tuple(range(f.arity)))


@pytest.mark.parametrize("name", ["skater_charged", "ball_magnetic"])
@pytest.mark.parametrize("text", POTENTIALS)
def test_potential_programs_never_give_up(name, text):
    f = hamiltonian_with_potential(SPECS[name], parse_text(text)).hamiltonian
    spec = SPECS[name]
    assert_never_gives_up(f, random_points(spec, 200, seed=6))
    assert_never_gives_up(f, random_points(spec, 200, seed=9), tuple(range(f.arity)))


@pytest.mark.parametrize("case", list(MIXED))
def test_mixed_hessian_program_never_gives_up(case):
    rng = np.random.default_rng(10)
    points = [(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0)) for _ in range(200)]
    assert_never_gives_up(two(MIXED[case]), points, (1,))


@pytest.mark.parametrize("case", list(GUARDS))
def test_guarded_fields_are_generated_code(case):
    f, p = GUARDS[case]
    assert is_generated(hessian_program(f, tuple(range(f.arity))))
    with pytest.raises(Exception):
        grad(f, p)
    assert is_generated(f._compiled)


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_contractions_are_generated_code(name):
    spec = SPECS[name]
    alg = spec.dirac.alg
    alg.rates([0.1] * alg.m, [0.2] * alg.rank, [0.3] * spec.k, [0.4] * alg.m, spec.k)
    assert is_generated(alg._cache[("rates", spec.k)])


def test_commutative_operations_are_recorded_once():
    # the lines the trace records, before the program writes single-use values inline
    h = SPECS["skater_charged"].hamiltonian
    tape = tracing._Tape()
    numcore.dual_sweep(h, [tracing.Tracer(tape, f"x{j}") for j in range(h.arity)])
    pairs = [
        (line.reads[0], line.form.split()[1], line.reads[1])
        for line in tape.lines
        if line.name and line.form in ("{} + {}", "{} * {}")
    ]
    assert pairs
    assert not {(a, op, b) for a, op, b in pairs} & {(b, op, a) for a, op, b in pairs if a != b}
    assert sum(line.name is not None for line in tape.lines) == 48
