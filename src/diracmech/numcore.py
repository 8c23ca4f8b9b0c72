"""Numerical substrate: forward-mode dual scalars, fields compiled to
straight-line value-and-gradient and Hessian-block code, small dense
linear algebra with explicit pivot control, and a plain Newton iteration.

Dual scalars carry a full partials vector (one slot per active variable)
and nest, so Hessian blocks come from running duals through duals.

``grad`` traces a field once with a tracing scalar and compiles the
recorded operations into one Python function returning the value and
the gradient.  ``hessian_block`` compiles one function per index set the
same way, tracing the nested-dual sweep with the tracing scalar as its
innermost number, so the generated code repeats the nested rules.  The
generated code applies DualScalar's rules operation for operation,
leaving out only partials that are structurally zero, so it returns the
dual sweep's numbers.  Where a dual operation would raise, the generated
code gives up and the caller runs the dual sweep, which raises the
engine's error; fields that cannot be traced (they compare or convert
their arguments) always take the dual sweep.
"""

import math
import numbers
import operator
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
    "grad",
    "hessian_block",
    "mat_inverse",
    "solve_linear",
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
        return x.sin()
    return math.sin(x)


def cos(x):
    if isinstance(x, DualScalar):
        s = -sin(x.value)
        return DualScalar(cos(x.value), tuple(s * a for a in x.partials))
    if isinstance(x, _Tracer):
        return x.cos()
    return math.cos(x)


def tan(x):
    if isinstance(x, DualScalar):
        c = cos(x.value)
        f = 1.0 / (c * c)
        return DualScalar(tan(x.value), tuple(f * a for a in x.partials))
    if isinstance(x, _Tracer):
        return x.tan()
    return math.tan(x)


def exp(x):
    if isinstance(x, DualScalar):
        e = exp(x.value)
        return DualScalar(e, tuple(e * a for a in x.partials))
    if isinstance(x, _Tracer):
        return x.exp()
    try:
        return math.exp(x)
    except OverflowError as err:
        raise NumericDomainError(f"exp overflow at {x!r}") from err


def log(x):
    if isinstance(x, _Tracer):
        return x.log()
    if _fails(x, "<="):
        raise NumericDomainError("log of a non-positive value")
    if isinstance(x, DualScalar):
        return DualScalar(log(x.value), tuple(a / x.value for a in x.partials))
    return math.log(x)


def sqrt(x):
    if isinstance(x, _Tracer):
        return x.sqrt()
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
        return base.power(float(e))
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
            return self._derived(f"{self.value} + {o}", self.partials)
        parts = self._combine(o, lambda a, b: f"{a} + {b}", lambda a: a, lambda b: b)
        return self._derived(f"{self.value} + {o.value}", parts)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, str):
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
        f = tape.let("v", f"{q} / {sv}")
        return _Tracer(tape, q, self._scaled(f"-{f}"))

    def __neg__(self):
        return self._derived(f"-{self.value}", self._negated())

    def __pos__(self):
        return self

    def __abs__(self):
        return self._derived(f"fabs({self.value})", self._scaled(_sign(self).value))

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)

    def _untraceable(self, *args):
        raise _Untraceable("a traced scalar has no value to compare or convert")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = __bool__ = __float__ = _untraceable

    # -- elementary functions ----------------------------------------------

    def sin(self):
        c = self.tape.let("v", f"cos({self.value})")
        return self._derived(f"sin({self.value})", self._scaled(c))

    def cos(self):
        s = self.tape.let("v", f"-sin({self.value})")
        return self._derived(f"cos({self.value})", self._scaled(s))

    def tan(self):
        c = self.tape.let("v", f"cos({self.value})")
        f = self.tape.let("v", f"1.0 / ({c} * {c})")
        return self._derived(f"tan({self.value})", self._scaled(f))

    def exp(self):
        e = self.tape.let("v", f"exp({self.value})")
        return _Tracer(self.tape, e, self._scaled(e))

    def log(self):
        sv = self.value
        self.tape.guard(f"{sv} <= 0.0")
        return self._derived(f"log({sv})", self._divided(sv))

    def sqrt(self):
        self.tape.guard(f"{self.value} <= 0.0")
        r = self.tape.let("v", f"sqrt({self.value})")
        return _Tracer(self.tape, r, self._scaled(self.tape.let("v", f"0.5 / {r}")))

    def power(self, e: float):
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
        f = tape.let("v", f"{cn} * {sv} ** {cm}")
        return _Tracer(tape, v, self._scaled(f))


def _run_traced(f: "ScalarField", args):
    """``f.fn`` at traced arguments, or None when it cannot be traced."""
    try:
        return f.fn(*args)
    except Exception:  # the dual sweep runs this field and raises what is wrong
        return None


def _program(tape: _Tape, arity: int, result: str):
    """The source of ``traced(x0, x1, ...)`` returning ``result``, and the
    constants it reads."""
    header = f"def traced({', '.join(f'x{j}' for j in range(arity))}):"
    return "\n    ".join([header, *tape.lines, f"return {result}"]), tape.consts


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


class ScalarField:
    """A scalar function of named base and fiber variables.

    ``fn`` takes one positional argument per variable (base variables
    first) and must accept DualScalar as well as float inputs.  It must be
    a pure function of its arguments: ``grad`` traces it once and reuses
    the compiled result, and ``hessian_block`` does the same once per
    index set, with nested duals as the fallback.  Value-dependent
    branches (comparisons, ``float`` or ``bool`` of an argument) are
    allowed, but such a field runs on the dual sweep.
    """

    __slots__ = ("base_names", "fiber_names", "fn", "_compiled", "_hessians")

    def __init__(self, base_names: Sequence[str], fiber_names: Sequence[str], fn: Callable):
        self.base_names = tuple(base_names)
        self.fiber_names = tuple(fiber_names)
        self.fn = fn
        self._compiled = None  # filled by the first grad; False when untraceable
        self._hessians = {}  # tuple(idx) -> compiled block, or False when untraceable

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


def grad(f: ScalarField, p) -> np.ndarray:
    """Gradient of ``f`` at ``p``.

    The first call traces ``f`` and compiles it; later calls run the
    compiled code.  Untraceable fields, and points where the compiled code
    gives up, take one dual-number sweep for all partials.
    """
    n = f.arity
    if len(p) != n:
        raise DimensionError(f"point of length {len(p)} for field of arity {n}")
    args = [float(v) for v in p]
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
            return np.array(out[1], dtype=float)
    out = f(*seed_duals(args))
    if not isinstance(out, DualScalar):
        _check_finite(out)
        return np.zeros(n)
    g = np.array(out.partials, dtype=float)
    if not (math.isfinite(value_of(out)) and np.isfinite(g).all()):
        raise NumericDomainError(f"non-finite derivative at {tuple(args)!r}")
    return g


def hessian_block(f: ScalarField, p, idx) -> np.ndarray:
    """Second-derivative block of ``f`` over the variable subset ``idx``,
    as a read-only array.

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
            block = np.array(out, dtype=float).reshape(s, s)
            block.flags.writeable = False
            return block
    seeds = _unit_seeds(s)
    args = list(point)
    for col, j in enumerate(idx):
        args[j] = DualScalar(DualScalar(args[j], seeds[col]), seeds[col])
    out = f(*args)
    block = np.empty((s, s))
    outer = partials_of(out, s)
    for c in range(s):
        inner = partials_of(outer[c], s)
        for r in range(s):
            h = _scalar(inner[r])
            if not math.isfinite(h):
                raise NumericDomainError(f"non-finite second derivative at {tuple(point)!r}")
            block[r, c] = h
    block.flags.writeable = False
    return block


def _check_finite(v):
    if not math.isfinite(_scalar(v)):
        raise NumericDomainError("non-finite evaluation")


def _forward_eliminate(a: np.ndarray, rhs: np.ndarray):
    """In-place Gaussian elimination with partial pivoting on [a | rhs]."""
    n = a.shape[0]
    biggest = np.max(np.abs(a)) if a.size else 0.0
    if biggest == 0.0:
        raise SingularMatrixError("zero matrix")
    threshold = SINGULARITY_RELATIVE_THRESHOLD * biggest
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot_row, col]) < threshold:
            raise SingularMatrixError(
                f"pivot {a[pivot_row, col]:.3e} below {threshold:.3e} in column {col}"
            )
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            rhs[[col, pivot_row]] = rhs[[pivot_row, col]]
        for r in range(col + 1, n):
            if a[r, col] != 0.0:
                lam = a[r, col] / a[col, col]
                a[r, col:] -= lam * a[col, col:]
                rhs[r] -= lam * rhs[col]


def _back_substitute(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    x = np.zeros_like(rhs)
    for r in range(n - 1, -1, -1):
        x[r] = (rhs[r] - a[r, r + 1:] @ x[r + 1:]) / a[r, r]
    return x


def _as_square_array(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"square matrix required, got shape {arr.shape}")
    return arr


def mat_inverse(a) -> np.ndarray:
    """Inverse by Gaussian elimination with partial pivoting, as a
    read-only array."""
    work = _as_square_array(a)
    rhs = np.eye(work.shape[0])
    _forward_eliminate(work, rhs)
    inv = _back_substitute(work, rhs)
    inv.flags.writeable = False
    return inv


def solve_linear(a, b) -> np.ndarray:
    """Solve a x = b for a single right-hand side."""
    work = _as_square_array(a)
    rhs = np.array(b, dtype=float)
    if rhs.shape != (work.shape[0],):
        raise DimensionError(
            f"right-hand side of length {rhs.shape} for {work.shape[0]} equations"
        )
    rhs = rhs.reshape(-1, 1)
    _forward_eliminate(work, rhs)
    return _back_substitute(work, rhs).ravel()


def newton_solve(
    residual_map: Callable,
    x0,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> np.ndarray:
    """Undamped Newton iteration on ``residual_map(x) -> (F, J)``.

    Returns the first iterate with ``max|F| <= tol``.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter!r}")
    x = np.array(x0, dtype=float)
    norm = math.inf
    for attempt in range(max_iter + 1):
        res, jac = residual_map(x)
        res = np.asarray(res, dtype=float)
        norm = float(np.max(np.abs(res))) if res.size else 0.0
        if norm <= tol:
            return x
        if attempt == max_iter:
            break
        x = x - solve_linear(jac, res)
    raise NonConvergenceError(
        f"no convergence in {max_iter} iterations (last residual {norm:.3e})",
        residual=norm,
    )
