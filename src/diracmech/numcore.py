"""Numerical substrate: forward-mode dual scalars, fields compiled to
straight-line value-and-gradient and Hessian-block code, small dense
linear algebra on float lists with explicit pivot control, and a plain
Newton iteration.

Dual scalars carry a full partials vector (one slot per active variable)
and nest, so Hessian blocks come from running duals through duals.

``grad`` traces a field once with a tracing scalar and compiles the
recorded operations into one Python function returning the value and
the gradient.  ``hessian_block`` compiles one function per index set the
same way, tracing the nested-dual sweep with the tracing scalar as its
innermost number, so the generated code repeats the nested rules.  The
generated code applies DualScalar's rules operation for operation,
leaving out only partials that are structurally zero and products with
1.0, so it returns the dual sweep's numbers; one backward liveness pass
drops the assignments nothing reads.  Where a dual operation would
raise, the generated code gives up and the caller runs the dual sweep,
which raises the engine's error; fields that cannot be traced (they
compare or convert their arguments) always take the dual sweep.
``compile_traced`` compiles any function of such operations the same
way, the dual sweep of a field included (``value_and_grad`` on tracing
scalars), which is how ``dirac.reduced_field`` builds one program per
system.

The linear algebra and every sum in ``dot`` run on Python floats in a
fixed order, so no result depends on the BLAS kernel numpy loads.
"""

import math
import numbers
import operator
import re
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionError,
    NonConvergenceError,
    NumericDomainError,
    SingularMatrixError,
)

__all__ = [
    "DualScalar",
    "ScalarField",
    "seed_duals",
    "value_and_grad",
    "grad",
    "hessian_rows",
    "hessian_block",
    "compile_traced",
    "dot",
    "max_abs",
    "gauss_solve",
    "mat_inverse",
    "solve_linear",
    "newton_iterate",
    "newton_solve",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "divide",
    "power",
    "value_of",
    "partials_of",
]

SINGULARITY_RELATIVE_THRESHOLD = 1e-13
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


def _scalar(x):
    """Innermost float of a possibly nested dual."""
    while isinstance(x, DualScalar):
        x = x.value
    return x


_DOMAIN_TESTS = {"==": operator.eq, "<": operator.lt, "<=": operator.le}


def _fails(x, test: str) -> bool:
    """Whether the innermost value of ``x`` satisfies ``test`` against 0.0,
    the domain test on which a dual rule raises.

    A traced value has no number to test: the test becomes a guard of the
    program being recorded, which gives up where it holds, and the trace
    goes on down the branch that does not raise.
    """
    x = _scalar(x)
    if isinstance(x, _Tracer):
        x.tape.guard(f"{x.value} {test} 0.0")
        return False
    return _DOMAIN_TESTS[test](x, 0.0)


def _sign(x):
    """1.0 where the innermost value of ``x`` is >= 0.0, else -1.0 (a traced
    sign for a traced value)."""
    x = _scalar(x)
    if isinstance(x, _Tracer):
        return _Tracer(x.tape, x.tape.let("v", f"1.0 if {x.value} >= 0.0 else -1.0"), {})
    return 1.0 if x >= 0.0 else -1.0


def value_of(x):
    return x.value if isinstance(x, DualScalar) else x


def partials_of(x, n):
    if isinstance(x, DualScalar):
        return x.partials
    return (0.0,) * n


class DualScalar:
    """A value together with its partials w.r.t. the active variables.

    Entries of ``partials`` (and ``value``) may themselves be DualScalar,
    which is how second derivatives are obtained.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = tuple(partials)

    def __repr__(self):
        return f"DualScalar({self.value!r}, {self.partials!r})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(
                self.value + other.value,
                tuple(a + b for a, b in zip(self.partials, other.partials)),
            )
        return DualScalar(self.value + other, self.partials)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(
                self.value - other.value,
                tuple(a - b for a, b in zip(self.partials, other.partials)),
            )
        return DualScalar(self.value - other, self.partials)

    def __rsub__(self, other):
        return DualScalar(other - self.value, tuple(-a for a in self.partials))

    def __mul__(self, other):
        if isinstance(other, DualScalar):
            sv, ov = self.value, other.value
            return DualScalar(
                sv * ov,
                tuple(a * ov + sv * b for a, b in zip(self.partials, other.partials)),
            )
        return DualScalar(self.value * other, tuple(a * other for a in self.partials))

    def __rmul__(self, other):
        return DualScalar(other * self.value, tuple(other * a for a in self.partials))

    def __truediv__(self, other):
        if isinstance(other, DualScalar):
            ov = other.value
            if _fails(ov, "=="):
                raise NumericDomainError("division by zero")
            q = self.value / ov
            return DualScalar(
                q,
                tuple((a - q * b) / ov for a, b in zip(self.partials, other.partials)),
            )
        if _fails(other, "=="):
            raise NumericDomainError("division by zero")
        return DualScalar(self.value / other, tuple(a / other for a in self.partials))

    def __rtruediv__(self, other):
        if _fails(self.value, "=="):
            raise NumericDomainError("division by zero")
        q = other / self.value
        f = q / self.value
        return DualScalar(q, tuple(-f * a for a in self.partials))

    def __neg__(self):
        return DualScalar(-self.value, tuple(-a for a in self.partials))

    def __pos__(self):
        return self

    def __abs__(self):
        s = _sign(self.value)
        return DualScalar(abs(self.value), tuple(s * a for a in self.partials))

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)

    # value comparisons, used by pivot searches and domain guards
    def __lt__(self, other):
        return _scalar(self.value) < _scalar(value_of(other))

    def __le__(self, other):
        return _scalar(self.value) <= _scalar(value_of(other))

    def __gt__(self, other):
        return _scalar(self.value) > _scalar(value_of(other))

    def __ge__(self, other):
        return _scalar(self.value) >= _scalar(value_of(other))


# -- elementary functions (dispatch on dual vs plain number) --------------


def sin(x):
    if isinstance(x, DualScalar):
        c = cos(x.value)
        return DualScalar(sin(x.value), tuple(c * a for a in x.partials))
    if isinstance(x, _Tracer):
        return x._sin()
    return math.sin(x)


def cos(x):
    if isinstance(x, DualScalar):
        s = -sin(x.value)
        return DualScalar(cos(x.value), tuple(s * a for a in x.partials))
    if isinstance(x, _Tracer):
        return x._cos()
    return math.cos(x)


def tan(x):
    if isinstance(x, DualScalar):
        c = cos(x.value)
        f = 1.0 / (c * c)
        return DualScalar(tan(x.value), tuple(f * a for a in x.partials))
    if isinstance(x, _Tracer):
        return x._tan()
    return math.tan(x)


def exp(x):
    if isinstance(x, DualScalar):
        e = exp(x.value)
        return DualScalar(e, tuple(e * a for a in x.partials))
    if isinstance(x, _Tracer):
        return x._exp()
    try:
        return math.exp(x)
    except OverflowError as err:
        raise NumericDomainError(f"exp overflow at {x!r}") from err


def log(x):
    if isinstance(x, _Tracer):
        return x._log()
    if _fails(x, "<="):
        raise NumericDomainError("log of a non-positive value")
    if isinstance(x, DualScalar):
        return DualScalar(log(x.value), tuple(a / x.value for a in x.partials))
    return math.log(x)


def sqrt(x):
    if isinstance(x, _Tracer):
        return x._sqrt()
    if _fails(x, "<"):
        raise NumericDomainError("sqrt of a negative value")
    if isinstance(x, DualScalar):
        if _fails(x.value, "=="):
            raise NumericDomainError("sqrt derivative at zero")
        r = sqrt(x.value)
        f = 0.5 / r
        return DualScalar(r, tuple(f * a for a in x.partials))
    return math.sqrt(x)


def divide(num, den):
    """num / den; a zero divisor, plain or dual, raises NumericDomainError."""
    if isinstance(den, _Tracer):
        return num / den  # the traced division guards its divisor itself
    if _fails(den, "=="):
        raise NumericDomainError("division by zero")
    return num / den


def power(base, exponent):
    """Power with real-domain semantics shared by ``**`` and the parser.

    Integer exponents work for any base; non-integer exponents require a
    positive base (negative base would leave the reals), and a varying
    exponent additionally routes through exp/log.
    """
    exp_is_dual = isinstance(exponent, DualScalar)
    if exp_is_dual and any(_scalar(p) != 0.0 for p in exponent.partials):
        return exp(exponent * log(base))
    # float() of a traced exponent raises: the dual rule above branches on
    # the exponent's partials, so such fields stay on the dual sweep
    e = _scalar(value_of(exponent))
    if isinstance(base, _Tracer):
        return base._power(float(e))
    if float(e).is_integer():
        n = int(e)
        return _pow_int(base, n)
    if _fails(base, "<"):
        raise NumericDomainError("negative base with non-integer exponent")
    if isinstance(base, DualScalar):
        if _fails(base, "=="):
            raise NumericDomainError("zero base with non-integer exponent")
        v = base.value ** e
        f = e * base.value ** (e - 1.0)
        return DualScalar(v, tuple(f * a for a in base.partials))
    return base ** e


def _pow_int(base, n):
    try:
        if isinstance(base, DualScalar):
            if n == 0:
                return DualScalar(1.0, tuple(0.0 * a for a in base.partials))
            if n < 0 and _fails(base.value, "=="):
                raise NumericDomainError("zero base with negative exponent")
            v = base.value ** n
            f = n * base.value ** (n - 1)
            return DualScalar(v, tuple(f * a for a in base.partials))
        if base == 0 and n < 0:
            raise NumericDomainError("zero base with negative exponent")
        return base ** n
    except OverflowError as err:
        raise NumericDomainError(f"power overflow for exponent {n}") from err


_SEED_CACHE: dict = {}


def _unit_seeds(n):
    seeds = _SEED_CACHE.get(n)
    if seeds is None:
        seeds = tuple(
            tuple(1.0 if i == j else 0.0 for i in range(n)) for j in range(n)
        )
        _SEED_CACHE[n] = seeds
    return seeds


def seed_duals(p):
    """Wrap a point as duals, variable j carrying the j-th unit partial."""
    seeds = _unit_seeds(len(p))
    return [DualScalar(float(v), seeds[j]) for j, v in enumerate(p)]


# -- tracing and compiling fields -------------------------------------------

# The partial of a variable with respect to itself.  Multiplying by 1.0 is
# exact, so products with it are folded away.
_ONE = "1.0"

# Names the generated code may read besides its own x*, v*, d* and c*.
_HELPERS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "fabs": math.fabs,
}


class _Untraceable(TypeError):
    """The traced function asked for a value the trace does not have."""


def _times(u: str, a: str) -> str:
    if a == _ONE:
        return u
    if u == _ONE:
        return a
    return f"{u} * {a}"


class _Tape:
    """The straight-line program a trace records.

    Every value and every partial is one assignment to a fresh local
    (``v*`` and ``d*``), the arguments are ``x*``, and constants are read
    as ``c*`` from the namespace the program runs in, so no source text
    comes from the traced function.  A guard returns None where the dual
    sweep would raise.
    """

    def __init__(self):
        self.lines = []
        self.consts = {}
        self._const_names = {}
        self._names = {}  # expression -> the name it was first assigned to
        self._guards = set()

    def const(self, c) -> str:
        key = (type(c), repr(c))  # keeps 0.0 and -0.0 apart, and finds nan again
        name = self._const_names.get(key)
        if name is None:
            name = self._const_names[key] = f"c{len(self.consts)}"
            self.consts[name] = c
        return name

    def let(self, prefix: str, expr: str) -> str:
        if expr == _ONE or expr.isidentifier():
            return expr
        name = self._names.get(expr)
        if name is None:  # an expression already assigned has the same value
            name = self._names[expr] = f"{prefix}{len(self.lines)}"
            self.lines.append(f"{name} = {expr}")
        return name

    def is_const(self, name: str, text: str) -> bool:
        """Whether ``name`` is the float constant written ``text``."""
        return self._const_names.get((float, text)) == name

    def guard(self, condition: str):
        if condition not in self._guards:  # a test already passed passes again
            self._guards.add(condition)
            self.lines.append(f"if {condition}: return None")


class _Tracer:
    """A scalar being traced: the names its value and its nonzero partials
    have in the program being recorded.

    It has DualScalar's operator surface and emits DualScalar's rules.  A
    tracer without partials stands for a plain number (a variable the
    sweep does not differentiate): it is an operand as a constant is, and
    divided by a tracer with partials it takes that tracer's reflected
    rule, as a plain number over a dual does.  Comparing it or converting
    it to a number raises _Untraceable.
    """

    __slots__ = ("tape", "value", "partials")

    def __init__(self, tape: _Tape, value: str, partials: dict):
        self.tape = tape
        self.value = value
        self.partials = partials  # variable index -> name; structural zeros absent

    def _derived(self, value_expr: str, partials: dict) -> "_Tracer":
        return _Tracer(self.tape, self.tape.let("v", value_expr), partials)

    def _scaled(self, factor: str) -> dict:
        return {j: self.tape.let("d", _times(factor, a)) for j, a in self.partials.items()}

    def _factor(self, expr: str):
        """The name of a derivative factor, recorded only when there are
        partials to scale: a plain number's rule computes no factor."""
        return self.tape.let("v", expr) if self.partials else None

    def _negated(self) -> dict:
        return {j: self.tape.let("d", f"-{a}") for j, a in self.partials.items()}

    def _divided(self, divisor: str) -> dict:
        return {j: self.tape.let("d", f"{a} / {divisor}") for j, a in self.partials.items()}

    def _operand(self, other):
        """The other operand as a tracer with partials or a constant's name,
        else None."""
        if isinstance(other, _Tracer):
            if other.tape is not self.tape:
                raise _Untraceable("scalar from another trace")
            return other if other.partials else other.value
        if isinstance(other, numbers.Real):
            return self.tape.const(float(other))
        return None

    def _combine(self, other: "_Tracer", both, left, right) -> dict:
        out = {}
        for j in sorted(self.partials.keys() | other.partials.keys()):
            a, b = self.partials.get(j), other.partials.get(j)
            if a is not None and b is not None:
                out[j] = self.tape.let("d", both(a, b))
            else:
                out[j] = self.tape.let("d", left(a) if b is None else right(b))
        return out

    # -- arithmetic: DualScalar's rules, operation for operation ------------

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, str):
            if self.tape.is_const(o, "-0.0"):  # x + -0.0 is x, exactly
                return self
            return self._derived(f"{self.value} + {o}", self.partials)
        parts = self._combine(o, lambda a, b: f"{a} + {b}", lambda a: a, lambda b: b)
        return self._derived(f"{self.value} + {o.value}", parts)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, str):
            if self.tape.is_const(o, "0.0"):  # x - 0.0 is x, exactly
                return self
            return self._derived(f"{self.value} - {o}", self.partials)
        parts = self._combine(o, lambda a, b: f"{a} - {b}", lambda a: a, lambda b: f"-{b}")
        return self._derived(f"{self.value} - {o.value}", parts)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._derived(f"{o} - {self.value}", self._negated())

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, str):
            if self.tape.is_const(o, "1.0"):  # x * 1.0 is x, exactly
                return self
            return self._derived(f"{self.value} * {o}", self._scaled(o))
        sv, ov = self.value, o.value
        parts = self._combine(
            o,
            lambda a, b: f"{_times(a, ov)} + {_times(sv, b)}",
            lambda a: _times(a, ov),
            lambda b: _times(sv, b),
        )
        return self._derived(f"{sv} * {ov}", parts)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        tape = self.tape
        if isinstance(o, str):
            if self.tape.is_const(o, "1.0"):  # x / 1.0 is x, exactly
                return self
            return self._derived(f"{self.value} / {o}", self._divided(o))
        if not self.partials:  # a plain number over a dual: the dual's rule
            return o.__rtruediv__(self)
        ov = o.value
        tape.guard(f"{ov} == 0.0")
        q = tape.let("v", f"{self.value} / {ov}")
        parts = self._combine(
            o,
            lambda a, b: f"({a} - {_times(q, b)}) / {ov}",
            lambda a: f"{a} / {ov}",
            lambda b: f"-{_times(q, b)} / {ov}",
        )
        return _Tracer(tape, q, parts)

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        tape, sv = self.tape, self.value
        tape.guard(f"{sv} == 0.0")
        q = tape.let("v", f"{o} / {sv}")
        f = self._factor(f"{q} / {sv}")
        return _Tracer(tape, q, self._scaled(f"-{f}"))

    def __neg__(self):
        return self._derived(f"-{self.value}", self._negated())

    def __pos__(self):
        return self

    def __abs__(self):
        sign = _sign(self).value if self.partials else None
        return self._derived(f"fabs({self.value})", self._scaled(sign))

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)

    def _untraceable(self, *args):
        raise _Untraceable("a traced scalar has no value to compare or convert")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = __bool__ = __float__ = _untraceable

    # -- elementary functions (private names, so that numpy's object loops
    # do not find them and substitute math's results for numpy's) -----------

    def _sin(self):
        c = self._factor(f"cos({self.value})")
        return self._derived(f"sin({self.value})", self._scaled(c))

    def _cos(self):
        s = self._factor(f"-sin({self.value})")
        return self._derived(f"cos({self.value})", self._scaled(s))

    def _tan(self):
        c = self._factor(f"cos({self.value})")
        f = self._factor(f"1.0 / ({c} * {c})")
        return self._derived(f"tan({self.value})", self._scaled(f))

    def _exp(self):
        e = self.tape.let("v", f"exp({self.value})")
        return _Tracer(self.tape, e, self._scaled(e))

    def _log(self):
        sv = self.value
        self.tape.guard(f"{sv} <= 0.0")
        return self._derived(f"log({sv})", self._divided(sv))

    def _sqrt(self):
        self.tape.guard(f"{self.value} <= 0.0")
        r = self.tape.let("v", f"sqrt({self.value})")
        return _Tracer(self.tape, r, self._scaled(self._factor(f"0.5 / {r}")))

    def _power(self, e: float):
        """base ** e for a constant exponent, as ``power`` and ``_pow_int``
        do it for a dual base."""
        tape, sv = self.tape, self.value
        if e.is_integer():
            n = int(e)
            if n == 0:
                return _Tracer(tape, _ONE, self._scaled("0.0"))
            if n < 0:
                tape.guard(f"{sv} == 0.0")
            cn, cm = tape.const(n), tape.const(n - 1)
        else:
            tape.guard(f"{sv} <= 0.0")
            cn, cm = tape.const(e), tape.const(e - 1.0)
        v = tape.let("v", f"{sv} ** {cn}")
        f = self._factor(f"{cn} * {sv} ** {cm}")
        return _Tracer(tape, v, self._scaled(f))


def _run_traced(f: "ScalarField", args):
    """``f.fn`` at traced arguments, or None when it cannot be traced."""
    try:
        return f.fn(*args)
    except Exception:  # the dual sweep runs this field and raises what is wrong
        return None


# Names a tape line assigns, and expressions that may raise.  A line that
# may raise is kept even when nothing reads its value, so that the code
# gives up wherever the sweep it repeats raises.
_ASSIGNED = re.compile(r"\b[vd]\d+\b")
_MAY_RAISE = re.compile(r"/|\*\*|\b(?:sin|cos|tan|exp|log|sqrt)\(")


def _live_lines(lines, result: str) -> list:
    """``lines`` without the assignments nothing reads: one backward
    liveness pass.  Guards and lines that may raise always stay."""
    needed = set(_ASSIGNED.findall(result))
    kept = []
    for line in reversed(lines):
        if line.startswith("if "):
            expr = line
        else:
            name, expr = line.split(" = ", 1)
            if name not in needed and not _MAY_RAISE.search(expr):
                continue
        kept.append(line)
        needed.update(_ASSIGNED.findall(expr))
    kept.reverse()
    return kept


def _program(tape: _Tape, arity: int, result: str):
    """The source of ``traced(x0, x1, ...)`` returning ``result``, and the
    constants it reads."""
    header = f"def traced({', '.join(f'x{j}' for j in range(arity))}):"
    body = _live_lines(tape.lines, result)
    return "\n    ".join([header, *body, f"return {result}"]), tape.consts


def _traced_source(f: "ScalarField"):
    """Trace ``f.fn`` once: the source of ``traced(x0, x1, ...) -> (value,
    partials)`` and the constants it reads, or None when ``f.fn`` cannot be
    traced."""
    tape = _Tape()
    n = f.arity
    out = _run_traced(f, [_Tracer(tape, f"x{j}", {j: _ONE}) for j in range(n)])
    if not isinstance(out, _Tracer) or out.tape is not tape:
        return None
    partials = "".join(f"{out.partials.get(j, '0.0')}, " for j in range(n))
    return _program(tape, n, f"{out.value}, ({partials})")


def _traced_hessian_source(f: "ScalarField", idx):
    """Trace ``hessian_block``'s nested-dual sweep of ``f.fn`` over ``idx``
    once, with a tracer as the innermost scalar: the source of
    ``traced(x0, x1, ...)`` returning the block's entries row by row, and
    the constants it reads, or None when ``f.fn`` cannot be traced."""
    tape = _Tape()
    s = len(idx)
    seeds = _unit_seeds(s)
    args = [_Tracer(tape, f"x{j}", {}) for j in range(f.arity)]
    for col, j in enumerate(idx):
        args[j] = DualScalar(_Tracer(tape, f"x{j}", {col: _ONE}), seeds[col])
    out = _run_traced(f, args)
    if not isinstance(out, DualScalar):
        return None
    # column c holds the partials of the outer partial c; a plain number
    # there has none, as ``partials_of`` reads it
    cols = []
    for outer in out.partials:
        if isinstance(outer, _Tracer) and outer.tape is tape:
            cols.append(outer.partials)
        elif isinstance(outer, numbers.Real):
            cols.append({})
        else:
            return None
    entries = "".join(f"{cols[c].get(r, '0.0')}, " for r in range(s) for c in range(s))
    return _program(tape, f.arity, f"({entries})")


def _compile(traced):
    """The compiled ``traced`` function of a traced source, or None."""
    if traced is None:
        return None
    source, consts = traced
    namespace = {**_HELPERS, **consts}
    exec(compile(source, "<traced field>", "exec"), namespace)
    return namespace["traced"]


def _output_name(tape: _Tape, v) -> str:
    if isinstance(v, _Tracer) and v.tape is tape and not v.partials:
        return v.value
    if isinstance(v, numbers.Real):
        return tape.const(float(v))
    raise _Untraceable("an output is not a traced or plain number")


def compile_traced(fn: Callable, arity: int):
    """Trace ``fn`` once and compile it to straight-line float code.

    ``fn`` is called with ``arity`` tracing scalars that stand for plain
    numbers and must return a sequence of scalars computed from them with
    the operations of this module (``value_and_grad`` included).  The
    result is ``traced(x0, ..., x{arity-1})`` returning those scalars as a
    tuple of floats, or None where a recorded guard gives up (a rule would
    raise there).  Returns None when ``fn`` cannot be traced.
    """
    tape = _Tape()
    try:
        outs = fn(*[_Tracer(tape, f"x{j}", {}) for j in range(arity)])
        names = [_output_name(tape, v) for v in outs]
    except Exception:  # the caller's float path raises what is wrong
        return None
    return _compile(_program(tape, arity, "(" + "".join(f"{v}, " for v in names) + ")"))


class ScalarField:
    """A scalar function of named base and fiber variables.

    ``fn`` takes one positional argument per variable (base variables
    first) and must accept DualScalar as well as float inputs.  It must be
    a pure function of its arguments: ``grad`` traces it once and reuses
    the compiled result, and ``hessian_block`` does the same once per
    index set, with nested duals as the fallback.  Value-dependent
    branches (comparisons, ``float`` or ``bool`` of an argument) are
    allowed, but such a field runs on the dual sweep.  Programs that
    other modules compile around the field (``dirac.reduced_field``) are
    cached on it too, in ``_programs``.
    """

    __slots__ = ("base_names", "fiber_names", "fn", "_compiled", "_hessians", "_programs")

    def __init__(self, base_names: Sequence[str], fiber_names: Sequence[str], fn: Callable):
        self.base_names = tuple(base_names)
        self.fiber_names = tuple(fiber_names)
        self.fn = fn
        self._compiled = None  # filled by the first grad; False when untraceable
        self._hessians = {}  # tuple(idx) -> compiled block, or False when untraceable
        self._programs = {}  # key chosen by the compiling module -> its program

    @property
    def names(self):
        return self.base_names + self.fiber_names

    @property
    def arity(self) -> int:
        return len(self.base_names) + len(self.fiber_names)

    def __call__(self, *args):
        if len(args) != self.arity:
            raise DimensionError(
                f"field of arity {self.arity} called with {len(args)} arguments"
            )
        return self.fn(*args)

    def value(self, p) -> float:
        out = self(*[float(v) for v in p])
        return float(value_of(out))


def _traced_value_and_grad(f: ScalarField, p, tape: _Tape):
    """The dual sweep of ``f`` recorded on ``tape`` at a point of tracing
    scalars and plain numbers, every variable seeded: its value and
    partials as tracing scalars that stand for plain numbers (plain 0.0
    for a structural zero, 1.0 for a variable's partial in itself)."""
    args = []
    for j, v in enumerate(p):
        if isinstance(v, _Tracer):
            if v.tape is not tape or v.partials:
                raise _Untraceable("a point from another trace")
            args.append(_Tracer(tape, v.value, {j: _ONE}))
        else:
            args.append(_Tracer(tape, tape.const(float(v)), {j: _ONE}))
    out = f.fn(*args)
    if isinstance(out, numbers.Real):
        return float(out), (0.0,) * len(p)
    if not isinstance(out, _Tracer) or out.tape is not tape:
        raise _Untraceable("the field returned no traced number")

    def plain(name):
        if name is None:
            return 0.0
        return 1.0 if name == _ONE else _Tracer(tape, name, {})

    return plain(out.value), tuple(plain(out.partials.get(j)) for j in range(len(p)))


def value_and_grad(f: ScalarField, p):
    """Value and gradient (a tuple) of ``f`` at ``p``.

    The first call traces ``f`` and compiles it; later calls run the
    compiled code.  Untraceable fields, and points where the compiled code
    gives up, take one dual-number sweep for all partials.  Inside
    ``compile_traced`` a point holding tracing scalars records the sweep
    instead, so the caller's program contains it.
    """
    n = f.arity
    if len(p) != n:
        raise DimensionError(f"point of length {len(p)} for field of arity {n}")
    try:
        args = [float(v) for v in p]
    except _Untraceable:  # a tracing scalar has no float
        tape = next(v.tape for v in p if isinstance(v, _Tracer))
        return _traced_value_and_grad(f, p, tape)
    compiled = f._compiled
    if compiled is None:
        compiled = f._compiled = _compile(_traced_source(f)) or False
    if compiled:
        try:
            out = compiled(*args)
        except (OverflowError, ValueError, ZeroDivisionError):
            out = None
        # A sum is finite only if every term is; an overflowing sum merely
        # sends a finite gradient through the dual sweep.  Where the dual
        # sweep multiplies a non-finite value by a partial this code leaves
        # out, the code multiplies it by another one, and no rule makes a
        # non-finite partial finite again: such points fail here too.
        if out is not None and math.isfinite(sum(out[1], out[0])):
            return out
    out = f(*seed_duals(args))
    if not isinstance(out, DualScalar):
        _check_finite(out)
        return float(_scalar(out)), (0.0,) * n
    g = tuple(float(v) for v in out.partials)
    if not (math.isfinite(value_of(out)) and all(math.isfinite(v) for v in g)):
        raise NumericDomainError(f"non-finite derivative at {tuple(args)!r}")
    return float(out.value), g


def grad(f: ScalarField, p) -> np.ndarray:
    """Gradient of ``f`` at ``p`` (``value_and_grad`` as an array)."""
    return np.array(value_and_grad(f, p)[1], dtype=float)


def hessian_rows(f: ScalarField, p, idx) -> list:
    """Second-derivative block of ``f`` over the variable subset ``idx``,
    as a list of float rows.

    The first call for an index set traces the nested-dual sweep of ``f``
    and compiles it; later calls with that set run the compiled code.
    Untraceable fields, and points where the compiled code gives up, take
    the nested-dual sweep.
    """
    n = f.arity
    if len(p) != n:
        raise DimensionError(f"point of length {len(p)} for field of arity {n}")
    idx = tuple(idx)
    compiled = f._hessians.get(idx)  # only index sets that passed the check
    if compiled is None:
        if any(j < 0 or j >= n for j in idx):
            raise DimensionError(f"index subset {list(idx)} outside arity {n}")
        compiled = f._hessians[idx] = _compile(_traced_hessian_source(f, idx)) or False
    s = len(idx)
    point = [float(v) for v in p]
    if compiled:
        try:
            out = compiled(*point)
        except (OverflowError, ValueError, ZeroDivisionError):
            out = None
        # The nested sweep checks every entry, as this sum does; by grad's
        # argument an entry the sweep makes non-finite is non-finite here.
        if out is not None and math.isfinite(sum(out)):
            return [out[r * s : (r + 1) * s] for r in range(s)]
    seeds = _unit_seeds(s)
    args = list(point)
    for col, j in enumerate(idx):
        args[j] = DualScalar(DualScalar(args[j], seeds[col]), seeds[col])
    out = f(*args)
    rows = [[0.0] * s for _ in range(s)]
    outer = partials_of(out, s)
    for c in range(s):
        inner = partials_of(outer[c], s)
        for r in range(s):
            h = _scalar(inner[r])
            if not math.isfinite(h):
                raise NumericDomainError(f"non-finite second derivative at {tuple(point)!r}")
            rows[r][c] = float(h)
    return rows


def hessian_block(f: ScalarField, p, idx) -> np.ndarray:
    """``hessian_rows`` as a read-only (len(idx), len(idx)) array."""
    idx = tuple(idx)
    s = len(idx)
    block = np.array(hessian_rows(f, p, idx), dtype=float).reshape(s, s)
    block.flags.writeable = False
    return block


def _check_finite(v):
    if not math.isfinite(_scalar(v)):
        raise NumericDomainError("non-finite evaluation")


def max_abs(values) -> float:
    """Largest absolute value, 0.0 for none; a nan anywhere gives nan."""
    out = 0.0
    for v in values:
        v = abs(v)
        if v != v:
            return float(v)
        if v > out:
            out = v
    return float(out)


def _eliminate(a: list, rhs: list):
    """In-place Gaussian elimination with partial pivoting on [a | rhs],
    float rows; ``rhs`` rows hold one entry per right-hand side."""
    n = len(a)
    biggest = max_abs(v for row in a for v in row)
    if biggest == 0.0:
        raise SingularMatrixError("zero matrix")
    threshold = SINGULARITY_RELATIVE_THRESHOLD * biggest
    for col in range(n):
        pivot_row = col  # the first row of largest magnitude
        for r in range(col + 1, n):
            if abs(a[r][col]) > abs(a[pivot_row][col]):
                pivot_row = r
        if abs(a[pivot_row][col]) < threshold:
            raise SingularMatrixError(
                f"pivot {a[pivot_row][col]:.3e} below {threshold:.3e} in column {col}"
            )
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        top, top_rhs = a[col], rhs[col]
        for r in range(col + 1, n):
            row = a[r]
            if row[col] != 0.0:
                lam = row[col] / top[col]
                for j in range(col, n):
                    row[j] -= lam * top[j]
                rhs[r] = [u - lam * v for u, v in zip(rhs[r], top_rhs)]


def _back_substitute(a: list, rhs: list) -> list:
    """Solution rows of the triangular system left by ``_eliminate``."""
    n = len(a)
    cols = []
    for c in range(len(rhs[0])):
        x = [0.0] * n
        for r in range(n - 1, -1, -1):
            row = a[r]
            x[r] = (rhs[r][c] - dot(enumerate(row[r + 1 :], r + 1), x)) / row[r]
        cols.append(x)
    return [list(row) for row in zip(*cols)]


def dot(terms, values):
    """c * values[i] summed over the ``(i, c)`` pairs of ``terms``, left to
    right, 0.0 for none: the one summation order of the dot products on the
    trajectory path.  It runs on floats and on tracing scalars alike."""
    total = None
    for i, c in terms:
        term = c * values[i]
        total = term if total is None else total + term
    return 0.0 if total is None else total


def _float_rows(a) -> list:
    arr = np.array(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"square matrix required, got shape {arr.shape}")
    return arr.tolist()


def _float_square_rows(a) -> list:
    """Float rows of a square matrix given as an ndarray or as rows."""
    if isinstance(a, np.ndarray):
        return _float_rows(a)
    rows = [[float(v) for v in row] for row in a]
    if any(len(row) != len(rows) for row in rows):
        raise DimensionError(
            f"square matrix required, got rows of lengths {[len(row) for row in rows]}"
        )
    return rows


def gauss_solve(a, b) -> list:
    """Solve a x = b as float lists: Gaussian elimination with partial
    pivoting, every sum in a fixed order, so the result does not depend
    on a BLAS kernel.  ``a`` is an ndarray or a sequence of rows."""
    rows = _float_square_rows(a)
    rhs = [[float(v)] for v in b]
    if len(rhs) != len(rows):
        raise DimensionError(
            f"right-hand side of length {(len(rhs),)} for {len(rows)} equations"
        )
    _eliminate(rows, rhs)
    return [r[0] for r in _back_substitute(rows, rhs)]


def mat_inverse(a) -> np.ndarray:
    """Inverse by Gaussian elimination with partial pivoting, as a
    read-only array."""
    rows = _float_rows(a)
    n = len(rows)
    rhs = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    _eliminate(rows, rhs)
    inv = np.array(_back_substitute(rows, rhs), dtype=float).reshape(n, n)
    inv.flags.writeable = False
    return inv


def solve_linear(a, b) -> np.ndarray:
    """Solve a x = b for a single right-hand side."""
    rows = _float_rows(a)
    rhs = np.array(b, dtype=float)
    if rhs.shape != (len(rows),):
        raise DimensionError(
            f"right-hand side of length {rhs.shape} for {len(rows)} equations"
        )
    return np.array(gauss_solve(rows, rhs.tolist()), dtype=float)


def newton_iterate(
    residual_map: Callable,
    x0,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> list:
    """Undamped Newton iteration on float lists: ``residual_map(x) -> (F,
    J)`` with F a sequence and J its Jacobian rows.

    Returns the first iterate with ``max|F| <= tol``.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter!r}")
    x = [float(v) for v in x0]
    norm = math.inf
    for attempt in range(max_iter + 1):
        res, jac = residual_map(x)
        norm = max_abs(res)
        if norm <= tol:
            return x
        if attempt == max_iter:
            break
        x = [u - v for u, v in zip(x, gauss_solve(jac, res))]
    raise NonConvergenceError(
        f"no convergence in {max_iter} iterations (last residual {norm:.3e})",
        residual=norm,
    )


def newton_solve(
    residual_map: Callable,
    x0,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> np.ndarray:
    """``newton_iterate`` with ndarray iterates: ``residual_map`` receives
    each iterate as an array, and the solution is returned as one."""
    x = newton_iterate(lambda x: residual_map(np.array(x, dtype=float)), x0, tol, max_iter)
    return np.array(x, dtype=float)
