import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmech.errors import BindingError, ExprError, NumericDomainError
from diracmech.exprparse import (
    FUNCTIONS,
    Binary,
    Call,
    Constant,
    Unary,
    Variable,
    eval_expr,
    free_variables,
    parse,
    parse_text,
    to_source,
    tokenize,
)
from diracmech.numcore import DualScalar


def duals(**named):
    names = list(named)
    return {
        n: DualScalar(float(named[n]), tuple(1.0 if i == j else 0.0 for j in range(len(names))))
        for i, n in enumerate(names)
    }


# -- tokenize -------------------------------------------------------------


def test_tokenize_product():
    kinds = [(t.kind, t.text) for t in tokenize("2*x")]
    assert kinds == [("number", "2"), ("operator", "*"), ("identifier", "x")]


def test_tokenize_call_and_exponent_literal():
    kinds = [(t.kind, t.text) for t in tokenize("sin(x)+1e-3")]
    assert kinds == [
        ("identifier", "sin"),
        ("left-paren", "("),
        ("identifier", "x"),
        ("right-paren", ")"),
        ("operator", "+"),
        ("number", "1e-3"),
    ]


def test_tokenize_illegal_character_offset():
    with pytest.raises(ExprError) as info:
        tokenize("x @ y")
    assert info.value.offset == 2


def test_tokenize_positions_reconstruct_source():
    src = "  sin( x1 ) ^ 2.5e2 - _a ,"
    toks = tokenize(src)
    positions = [t.position for t in toks]
    assert positions == sorted(positions) and len(set(positions)) == len(positions)
    rebuilt = list(src)
    for t in toks:
        assert src[t.position : t.position + len(t.text)] == t.text
        for i in range(t.position, t.position + len(t.text)):
            rebuilt[i] = " "
    assert "".join(rebuilt).strip() == ""


# -- parse ----------------------------------------------------------------


def test_parse_precedence():
    assert parse_text("1+2*3") == Binary(
        "+", Constant(1.0), Binary("*", Constant(2.0), Constant(3.0))
    )


def test_parse_unary_binds_looser_than_power():
    assert parse_text("-x^2") == Unary("-", Binary("^", Variable("x"), Constant(2.0)))


def test_power_right_associative():
    assert eval_expr(parse_text("2^3^2"), {}) == 512.0


def test_parse_errors():
    with pytest.raises(ExprError):
        parse_text("(1+2")
    with pytest.raises(ExprError):
        parse_text("1+*2")
    with pytest.raises(ExprError):
        parse_text("nosuch(3)")
    with pytest.raises(ExprError):
        parse_text("1 2")
    with pytest.raises(ExprError):
        parse([])


def test_parse_error_offset_points_at_token():
    with pytest.raises(ExprError) as info:
        parse_text("1 + bad(2)")
    assert info.value.offset == 4


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(" * 600 + "x" + ")" * 600, 100),
        ("+".join(["x"] * 3000), 201),
        ("-" * 3000 + "x", 2899),
        ("x^" * 3000 + "x", 5799),
        ("sin(" * 600 + "x" + ")" * 600, 403),
    ],
    ids=["parentheses", "sum", "negation", "power", "calls"],
)
def test_parse_rejects_nesting_deeper_than_the_bound(text, offset):
    with pytest.raises(ExprError) as info:
        parse_text(text)
    assert info.value.offset == offset
    assert "nested deeper than 100 levels" in str(info.value)


@pytest.mark.parametrize(
    "text",
    [
        "(" * 100 + "x" + ")" * 100,
        "+".join(["x"] * 101),
        "-" * 100 + "x",
        "x^" * 100 + "1",
        "sin(" * 100 + "x" + ")" * 100,
    ],
    ids=["parentheses", "sum", "negation", "power", "calls"],
)
def test_nesting_at_the_bound_parses_evaluates_and_prints(text):
    tree = parse_text(text)
    assert parse_text(to_source(tree)) == tree
    assert free_variables(tree) == {"x"}
    eval_expr(tree, duals(x=0.5))


# -- eval -----------------------------------------------------------------


def test_eval_polynomial_with_partials():
    out = eval_expr(parse_text("x^2+y"), duals(x=3.0, y=1.0))
    assert out.value == 10.0
    assert out.partials == (6.0, 1.0)


def test_eval_sin_at_zero():
    out = eval_expr(parse_text("sin(x)"), duals(x=0.0))
    assert out.value == 0.0 and out.partials == (1.0,)


def test_eval_harmonic_potential_matches_builtin_form():
    # the parsed text reproduces (m Omega^2 / 2)(x^2 + y^2) at m = Omega = 1
    tree = parse_text("0.5*(x^2+y^2)")
    rng = np.random.default_rng(2)
    for _ in range(25):
        x, y = rng.uniform(-3, 3, 2)
        m = omega = 1.0
        want = 0.5 * m * (omega * omega) * (x**2 + y**2)
        assert eval_expr(tree, {"x": x, "y": y}) == want


def test_eval_unbound_variable():
    with pytest.raises(BindingError):
        eval_expr(parse_text("x+y"), {"x": 1.0})


def test_eval_domain_errors():
    with pytest.raises(NumericDomainError):
        eval_expr(parse_text("sqrt(0-x)"), {"x": 2.0})
    with pytest.raises(NumericDomainError):
        eval_expr(parse_text("log(x)"), {"x": 0.0})
    with pytest.raises(NumericDomainError):
        eval_expr(parse_text("1/x"), {"x": 0.0})
    with pytest.raises(NumericDomainError):
        eval_expr(parse_text("(0-2)^0.5"), {})


# -- free variables ---------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x+y*x", {"x", "y"}),
        ("3.14", set()),
        ("sin(phi)*eta1", {"phi", "eta1"}),
    ],
)
def test_free_variables(text, expected):
    assert free_variables(parse_text(text)) == expected


# -- properties ---------------------------------------------------------------


def random_ast(rng, depth=0):
    choice = rng.integers(0, 10)
    if depth >= 4 or choice < 3:
        if choice % 2:
            return Constant(float(round(rng.uniform(0, 10), 3)))
        return Variable(rng.choice(["x", "y", "phi", "eta1", "t_0"]))
    if choice < 5:
        return Unary("-", random_ast(rng, depth + 1))
    if choice < 8:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return Binary(op, random_ast(rng, depth + 1), random_ast(rng, depth + 1))
    name = rng.choice(["sin", "cos", "tan", "exp", "log", "sqrt", "abs"])
    return Call(name, (random_ast(rng, depth + 1),))


def test_roundtrip_parse_of_printed_ast():
    rng = np.random.default_rng(42)
    for _ in range(200):
        ast = random_ast(rng)
        assert parse_text(to_source(ast)) == ast


# Trees of the README grammar: a number is a finite float without a sign
# (a sign is a unary minus), an identifier is [A-Za-z_][A-Za-z0-9_]*, and
# calls take one argument.
GRAMMAR_TREES = st.recursive(
    st.one_of(
        st.floats(min_value=0.0, allow_infinity=False).map(lambda v: Constant(abs(v))),
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True).map(Variable),
    ),
    lambda inner: st.one_of(
        inner.map(lambda child: Unary("-", child)),
        st.builds(Binary, st.sampled_from("+-*/^"), inner, inner),
        st.builds(lambda name, arg: Call(name, (arg,)), st.sampled_from(sorted(FUNCTIONS)), inner),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(GRAMMAR_TREES)
def test_roundtrip_parse_of_printed_grammar_tree(tree):
    assert parse_text(to_source(tree)) == tree


FD_CASES = {
    "sin": (lambda: np.random.default_rng(1).uniform(-3, 3, 50)),
    "cos": (lambda: np.random.default_rng(2).uniform(-3, 3, 50)),
    "tan": (lambda: np.random.default_rng(3).uniform(-1.2, 1.2, 50)),
    "exp": (lambda: np.random.default_rng(4).uniform(-2, 2, 50)),
    "log": (lambda: np.random.default_rng(5).uniform(0.2, 5, 50)),
    "sqrt": (lambda: np.random.default_rng(6).uniform(0.2, 5, 50)),
    "abs": (lambda: np.random.default_rng(7).uniform(0.2, 5, 50)),
}


@pytest.mark.parametrize("name", sorted(FD_CASES))
def test_function_derivatives_match_finite_differences(name):
    tree = parse_text(f"{name}(x)")
    h = 1e-6
    for x in FD_CASES[name]():
        out = eval_expr(tree, duals(x=x))
        fd = (
            eval_expr(tree, {"x": x + h}) - eval_expr(tree, {"x": x - h})
        ) / (2 * h)
        assert abs(out.partials[0] - fd) <= 1e-6 * (1 + abs(fd))


def test_power_derivative_matches_finite_differences():
    tree = parse_text("x^2.5")
    h = 1e-6
    for x in np.random.default_rng(8).uniform(0.3, 4, 50):
        out = eval_expr(tree, duals(x=x))
        fd = (eval_expr(tree, {"x": x + h}) - eval_expr(tree, {"x": x - h})) / (2 * h)
        assert abs(out.partials[0] - fd) <= 1e-6 * (1 + abs(fd))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: parse_text("(x y"), "expected right-paren, found 'y' (offset 3)"),
        (lambda: parse_text("sin(x, y)"), "sin takes one argument, got 2 (offset 0)"),
        (lambda: parse([]), "empty expression (offset 0)"),
        # without a length, the input ends where its last token does
        (lambda: parse(tokenize("x +")), "unexpected end of input (offset 3)"),
    ],
)
def test_parse_errors_name_the_offset(call, message):
    with pytest.raises(ExprError) as info:
        call()
    assert str(info.value) == message
