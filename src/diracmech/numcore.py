"""Numerical substrate: forward-mode dual scalars, fields compiled to
straight-line value-and-gradient and Hessian-block code, small dense
linear algebra on float lists with explicit pivot control, and a plain
Newton iteration.

Dual scalars carry a full partials vector (one slot per active variable)
and nest, so Hessian blocks come from running duals through duals.
``DualScalar`` and the elementary functions here hold the only
derivative rules.

``compile_traced`` runs a function once on tracing scalars that know no
calculus: each float operation on one records one line of straight-line
code, and the lines are compiled into one Python function.  ``grad``
compiles a field's dual sweep that way, and ``hessian_block`` its
nested-dual sweep once per index set, so the generated code applies
DualScalar's rules operation for operation.  The nested sweep's program
returns the first partials over the index set ahead of the block, so
``grad_and_hessian_rows`` gives a Newton residual and its Jacobian rows
from one run.  At a traced point the seed partials are ``_ZERO``, a
zero that drops out of every rule, so structurally zero partials cost
no code; products with 1.0 are folded, and one backward liveness pass
drops the lines nothing reads.  A
compiled program stands in for the function it was traced from: where a
domain guard holds, a float operation raises or an output is not finite,
it runs that function, which gives the same numbers or raises the
engine's error.  A function that cannot be traced (it compares or
converts its arguments) is its own program.  ``dirac.reduced_field`` and
``SkewAlgebroid.float_rates`` compile their programs the same way.

The linear algebra and every sum in ``dot`` run on Python floats in a
fixed order, so no result depends on the BLAS kernel numpy loads.
``solve_in_place`` is the one elimination: ``gauss_solve`` and
``mat_inverse`` run it on checked copies, and ``newton_iterate`` on the
Jacobian rows its residual map returns, unchecked and uncopied
(``newton_solve`` checks and copies its map's arrays first).
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
    "grad_and_hessian_rows",
    "hessian_block",
    "compile_traced",
    "is_traced",
    "dot",
    "max_abs",
    "shape_of",
    "solve_in_place",
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
        x.tape.guard(f"{x.name} {test} 0.0")
        return False
    return _DOMAIN_TESTS[test](x, 0.0)


def _sign(x):
    """1.0 where the innermost value of ``x`` is >= 0.0, else -1.0 (a traced
    sign for a traced value)."""
    x = _scalar(x)
    if isinstance(x, _Tracer):
        return x._let(f"1.0 if {x.name} >= 0.0 else -1.0")
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


# -- elementary functions (dispatch on dual, traced or plain number) ------


def _apply(fn, x):
    """``fn`` from math at a plain number, recorded at a traced one."""
    if isinstance(x, _Tracer):
        return x.call(fn.__name__)
    try:
        return fn(x)
    except ValueError as err:  # sin, cos or tan of an infinity
        raise NumericDomainError(f"{fn.__name__} of {x!r}") from err


def sin(x):
    if isinstance(x, DualScalar):
        c = cos(x.value)
        return DualScalar(sin(x.value), tuple(c * a for a in x.partials))
    return _apply(math.sin, x)


def cos(x):
    if isinstance(x, DualScalar):
        s = -sin(x.value)
        return DualScalar(cos(x.value), tuple(s * a for a in x.partials))
    return _apply(math.cos, x)


def tan(x):
    if isinstance(x, DualScalar):
        c = cos(x.value)
        f = 1.0 / (c * c)
        return DualScalar(tan(x.value), tuple(f * a for a in x.partials))
    return _apply(math.tan, x)


def exp(x):
    if isinstance(x, DualScalar):
        e = exp(x.value)
        return DualScalar(e, tuple(e * a for a in x.partials))
    try:
        return _apply(math.exp, x)
    except OverflowError as err:
        raise NumericDomainError(f"exp overflow at {x!r}") from err


def log(x):
    if _fails(x, "<="):
        raise NumericDomainError("log of a non-positive value")
    if isinstance(x, DualScalar):
        return DualScalar(log(x.value), tuple(a / x.value for a in x.partials))
    return _apply(math.log, x)


def sqrt(x):
    if _fails(x, "<"):
        raise NumericDomainError("sqrt of a negative value")
    if isinstance(x, DualScalar):
        if _fails(x.value, "=="):
            raise NumericDomainError("sqrt derivative at zero")
        r = sqrt(x.value)
        f = 0.5 / r
        return DualScalar(r, tuple(f * a for a in x.partials))
    return _apply(math.sqrt, x)


def divide(num, den):
    """num / den; a zero divisor, plain or dual, raises NumericDomainError."""
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
    if float(e).is_integer():
        return _pow_int(base, int(e))
    if _fails(base, "<"):
        raise NumericDomainError("negative base with non-integer exponent")
    if isinstance(base, DualScalar):
        if _fails(base, "=="):
            raise NumericDomainError("zero base with non-integer exponent")
        v = base.value ** e
        f = e * base.value ** (e - 1.0)
        return DualScalar(v, tuple(f * a for a in base.partials))
    return _plain_pow(base, e)


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
        if n < 0 and _fails(base, "=="):
            raise NumericDomainError("zero base with negative exponent")
        return _plain_pow(base, n)
    except OverflowError as err:
        raise NumericDomainError(f"power overflow for exponent {n}") from err


def _plain_pow(base, e):
    """base ** e once ``power``'s guards have run: recorded for a traced
    base, whose ``**`` goes through ``power``."""
    if isinstance(base, _Tracer):
        return base._binary("**", e)
    return base ** e


_SEED_CACHE: dict = {}


def _unit_seeds(n, zero=0.0):
    """The n unit partials vectors, ``zero`` off the diagonal."""
    key = (n, zero is _ZERO)
    seeds = _SEED_CACHE.get(key)
    if seeds is None:
        seeds = tuple(
            tuple(1.0 if i == j else zero for i in range(n)) for j in range(n)
        )
        _SEED_CACHE[key] = seeds
    return seeds


def seed_duals(p):
    """Wrap a point as duals, variable j carrying the j-th unit partial."""
    seeds = _unit_seeds(len(p))
    return [DualScalar(float(v), seeds[j]) for j, v in enumerate(p)]


# -- tracing and compiling ----------------------------------------------------


class _GiveUp(Exception):
    """A recorded guard holds: the rule it stands for raises here."""


# Names the generated code may read besides its own x*, v* and c*.
_HELPERS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "fabs": math.fabs,
    "isfinite": math.isfinite,
    # what float code raises where a rule of this module raises
    "float_errors": (OverflowError, ValueError, ZeroDivisionError),
    "give_up": _GiveUp,
}


class _Untraceable(TypeError):
    """The traced function asked for a value the trace does not have."""


class _Tape:
    """The straight-line program a trace records.

    Every float operation is one assignment to a fresh local ``v*``, the
    arguments are ``x*``, and constants are read as ``c*`` from the
    namespace the program runs in, so no source text comes from the traced
    function.  A guard gives up where the traced function would raise.
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

    def let(self, expr: str) -> str:
        name = self._names.get(expr)
        if name is None:  # an expression already assigned has the same value
            name = self._names[expr] = f"v{len(self.lines)}"
            self.lines.append(f"{name} = {expr}")
        return name

    def is_const(self, name: str, text) -> bool:
        """Whether ``name`` is the float constant written ``text``."""
        return self._const_names.get((float, text)) == name

    def guard(self, condition: str):
        if condition not in self._guards:  # a test already passed passes again
            self._guards.add(condition)
            self.lines.append(f"if {condition}: raise give_up")


# x op c is x, exactly, for these constants c
_IDENTITIES = {"+": "-0.0", "-": "0.0", "*": "1.0", "/": "1.0"}


class _Tracer:
    """A plain number being traced: the name its value has in the program
    being recorded.

    Each float operation on it records one assignment, and it knows no
    derivative rule: DualScalar's rules run on it as they run on a float.
    Comparing it or converting it to a number raises _Untraceable.
    """

    __slots__ = ("tape", "name")

    def __init__(self, tape: _Tape, name: str):
        self.tape = tape
        self.name = name

    def _let(self, expr: str) -> "_Tracer":
        return _Tracer(self.tape, self.tape.let(expr))

    def _binary(self, op: str, other, reflected=False):
        if isinstance(other, _Tracer):
            if other.tape is not self.tape:
                raise _Untraceable("scalar from another trace")
            o = other.name
        elif isinstance(other, numbers.Real):
            o = self.tape.const(float(other))
        else:  # a dual or a structural zero applies its own rule
            return NotImplemented
        if not reflected and self.tape.is_const(o, _IDENTITIES.get(op)):
            return self
        a, b = (o, self.name) if reflected else (self.name, o)
        # IEEE + and * commute bit for bit unless both operands are NaN, and
        # a NaN output gives up through the sum check: one line for both orders
        if op in ("+", "*") and b < a:
            a, b = b, a
        return self._let(f"{a} {op} {b}")

    def call(self, fn: str) -> "_Tracer":
        """``fn(self)`` for a function ``fn`` in ``_HELPERS``."""
        return self._let(f"{fn}({self.name})")

    def __add__(self, other):
        return self._binary("+", other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary("-", other)

    def __rsub__(self, other):
        return self._binary("-", other, reflected=True)

    def __mul__(self, other):
        return self._binary("*", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary("/", other)

    def __rtruediv__(self, other):
        return self._binary("/", other, reflected=True)

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)

    def __neg__(self):
        return self._let(f"-{self.name}")

    def __pos__(self):
        return self

    def __abs__(self):
        return self.call("fabs")

    def _untraceable(self, *args):
        raise _Untraceable("a traced scalar has no value to compare or convert")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = __bool__ = __float__ = _untraceable


class _Zero:
    """The seed partial that is structurally zero, at traced points only.

    It drops out of every rule (0 + a is a, 0 * a is 0), so no code is
    recorded for it.  Float sweeps seed 0.0, which gives the same numbers
    up to signed zeros and to a non-finite value times 0.0; the sum check
    of the generated code sends such points to the float sweep.
    """

    __slots__ = ()

    def __add__(self, other):
        return other

    __radd__ = __rsub__ = __add__

    def __sub__(self, other):
        return -other

    def __mul__(self, other):
        return self

    __rmul__ = __truediv__ = __mul__

    def __neg__(self):
        return self

    def __ne__(self, other):
        return other != 0.0


_ZERO = _Zero()


# Names a tape line assigns, and expressions that may raise.  A line that
# may raise is kept even when nothing reads its value, so that the code
# gives up wherever the sweep it repeats raises.
_ASSIGNED = re.compile(r"\bv\d+\b")
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


def _output(tape: _Tape, out, flat: list) -> str:
    """The source of ``out``, a number or a sequence of outputs, as a
    tuple; the name of each number is appended to ``flat``."""
    if isinstance(out, (tuple, list)):
        return "(" + "".join(f"{_output(tape, v, flat)}, " for v in out) + ")"
    if isinstance(out, _Tracer) and out.tape is tape:
        name = out.name
    elif out is _ZERO or isinstance(out, numbers.Real):
        name = tape.const(0.0 if out is _ZERO else float(out))
    else:
        raise _Untraceable("an output is not a traced or plain number")
    flat.append(name)
    return name


def _source(fn: Callable, arity: int):
    """Trace ``fn`` once: the source of ``compile_traced``'s function and
    the constants it reads, or None when ``fn`` cannot be traced."""
    tape = _Tape()
    flat = []
    try:
        result = _output(tape, fn(*[_Tracer(tape, f"x{j}") for j in range(arity)]), flat)
    except Exception:  # fn itself, on floats, raises what is wrong
        return None
    args = ", ".join(f"x{j}" for j in range(arity))
    source = [
        f"def traced({args}):",
        "    try:",
        *(f"        {line}" for line in _live_lines(tape.lines, result)),
        f"        if isfinite({' + '.join(flat) or '0.0'}): return {result}",
        "    except (give_up, *float_errors): pass",
        f"    return reference({args})",
    ]
    return "\n".join(source), tape.consts


def compile_traced(fn: Callable, arity: int) -> Callable:
    """Trace ``fn`` once and compile it to straight-line float code.

    ``fn`` is called with ``arity`` tracing scalars that stand for plain
    numbers.  It must return a number, or a sequence of such outputs,
    computed from them with the operations of this module, dual sweeps
    included.  The result is ``traced(x0, ..., x{arity-1})``, equal to
    ``fn`` on floats: it returns the same outputs as floats in tuples, and
    where the code gives up it returns ``fn(x0, ..., x{arity-1})``, which
    gives the same numbers or raises.  The code gives up where a recorded
    guard holds (a rule would raise there), a float operation raises, or
    the sum of the outputs, in order, is not finite.  A ``fn`` that cannot
    be traced is returned as it is.
    """
    traced = _source(fn, arity)
    if traced is None:
        return fn
    source, consts = traced
    namespace = {**_HELPERS, **consts, "reference": fn}
    exec(compile(source, "<traced>", "exec"), namespace)
    return namespace["traced"]


class ScalarField:
    """A scalar function of named base and fiber variables.

    ``fn`` takes one positional argument per variable (base variables
    first) and must accept DualScalar as well as float inputs.  It must be
    a pure function of its arguments: ``grad`` compiles its dual sweep
    once and reuses the result, and ``hessian_block`` does the same once
    per index set.  Value-dependent branches (comparisons, ``float`` or
    ``bool`` of an argument) are allowed, but such a field runs on the
    dual sweep.  Programs that other modules compile around the field
    (``dirac.reduced_field``) are cached on it too, in ``_programs``.
    """

    __slots__ = ("base_names", "fiber_names", "fn", "_compiled", "_hessians", "_programs")

    def __init__(self, base_names: Sequence[str], fiber_names: Sequence[str], fn: Callable):
        self.base_names = tuple(base_names)
        self.fiber_names = tuple(fiber_names)
        self.fn = fn
        self._compiled = None  # the gradient program, filled by the first grad
        self._hessians = {}  # tuple(idx) -> the program of that Hessian block
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


def is_traced(values) -> bool:
    """Whether any of ``values`` is a tracing scalar: the caller runs inside
    ``compile_traced`` and records what it computes."""
    for v in values:  # a plain loop: evaluate_reduced asks on every call
        if isinstance(v, _Tracer):
            return True
    return False


def _dual_sweep(f: ScalarField, p):
    """The value and partials of ``f`` at ``p`` from one dual sweep.

    At tracing scalars the sweep is seeded with ``_ZERO`` and recorded.  At
    floats it returns floats, and raises where one is not finite.  The code
    traced from it gives up wherever the float sweep raises: where the
    sweep multiplies a non-finite value by a structural zero the code
    leaves out, the code multiplies it by another partial, and no rule
    makes a non-finite partial finite again, so the sum check gives up.
    """
    traced = is_traced(p)
    seeds = _unit_seeds(len(p), _ZERO if traced else 0.0)
    out = f.fn(*[DualScalar(v, seed) for v, seed in zip(p, seeds)])
    if traced:
        return value_of(out), partials_of(out, len(p))
    value, partials = float(value_of(out)), tuple(float(v) for v in partials_of(out, len(p)))
    if not (math.isfinite(value) and all(math.isfinite(v) for v in partials)):
        raise NumericDomainError(f"non-finite derivative at {tuple(p)!r}")
    return value, partials


def value_and_grad(f: ScalarField, p):
    """Value and gradient (a tuple) of ``f`` at ``p``.

    The first call compiles the dual sweep of ``f``, and every call runs
    that program.  Inside ``compile_traced`` a point holding tracing
    scalars records the sweep instead, so the caller's program contains it.
    """
    n = f.arity
    if len(p) != n:
        raise DimensionError(f"point of length {len(p)} for field of arity {n}")
    try:
        args = [float(v) for v in p]
    except _Untraceable:  # a tracing scalar has no float
        value, partials = _dual_sweep(f, [v if isinstance(v, _Tracer) else float(v) for v in p])
        return value, tuple(0.0 if v is _ZERO else v for v in partials)
    compiled = f._compiled
    if compiled is None:
        compiled = f._compiled = compile_traced(lambda *xs: _dual_sweep(f, xs), n)
    return compiled(*args)


def grad(f: ScalarField, p) -> np.ndarray:
    """Gradient of ``f`` at ``p`` (``value_and_grad`` as an array)."""
    return np.array(value_and_grad(f, p)[1], dtype=float)


def _hessian_sweep(f: ScalarField, p, idx) -> tuple:
    """The first partials of ``f`` over ``idx`` at ``p`` and its
    second-derivative block over ``idx``, row by row, as two tuples, from
    one nested-dual sweep: the inner value carries the first partials.  At
    tracing scalars the inner level is seeded with ``_ZERO`` and the sweep
    recorded.  At floats it returns floats, finite or not; the code traced
    from it gives up wherever one is not, by ``_dual_sweep``'s argument, so
    its callers check the outputs they read."""
    s = len(idx)
    traced = is_traced(p)
    inner = _unit_seeds(s, _ZERO if traced else 0.0)
    outer = _unit_seeds(s)
    args = list(p)
    for col, j in enumerate(idx):
        args[j] = DualScalar(DualScalar(args[j], inner[col]), outer[col])
    out = f.fn(*args)
    first = tuple(_scalar(v) for v in partials_of(value_of(out), s))
    # column c holds the partials of the outer partial c
    cols = [partials_of(c, s) for c in partials_of(out, s)]
    block = tuple(_scalar(cols[c][r]) for r in range(s) for c in range(s))
    if traced:
        return first, block
    return tuple(float(v) for v in first), tuple(float(h) for h in block)


def _hessian_outputs(f: ScalarField, p, idx) -> tuple:
    """The float point, and the first partials and block of ``f`` over
    ``idx`` there, unchecked.  The first call for an index set compiles
    ``_hessian_sweep``, and every call with that set runs that program."""
    n = f.arity
    if len(p) != n:
        raise DimensionError(f"point of length {len(p)} for field of arity {n}")
    idx = tuple(idx)
    compiled = f._hessians.get(idx)  # only index sets that passed the check
    if compiled is None:
        if any(j < 0 or j >= n for j in idx):
            raise DimensionError(f"index subset {list(idx)} outside arity {n}")
        compiled = f._hessians[idx] = compile_traced(lambda *xs: _hessian_sweep(f, xs, idx), n)
    args = [float(v) for v in p]
    return (args, *compiled(*args))


def _require_finite(values, what: str, args) -> None:
    if not all(math.isfinite(v) for v in values):
        raise NumericDomainError(f"non-finite {what} at {tuple(args)!r}")


def grad_and_hessian_rows(f: ScalarField, p, idx) -> tuple:
    """The first partials of ``f`` over ``idx`` at ``p`` (a tuple) and its
    second-derivative block over ``idx`` as float rows (lists of the
    caller's own), from one run of ``hessian_block``'s program: the
    residual and the Jacobian rows of Newton on d f / d x_idx = 0.  A
    non-finite first partial raises as in ``value_and_grad``, ahead of the
    block's check."""
    args, first, block = _hessian_outputs(f, p, idx)
    if not math.isfinite(sum(first, sum(block))):  # a non-finite entry makes it so
        _require_finite(first, "derivative", args)
        _require_finite(block, "second derivative", args)
    s = len(first)
    return first, [list(block[r * s : (r + 1) * s]) for r in range(s)]


def hessian_block(f: ScalarField, p, idx) -> np.ndarray:
    """Second-derivative block of ``f`` over the variable subset ``idx``, as
    a read-only (len(idx), len(idx)) array.

    The first call for an index set compiles the nested-dual sweep of
    ``f``, and every call with that set runs that program.
    """
    args, first, block = _hessian_outputs(f, p, idx)
    _require_finite(block, "second derivative", args)
    s = len(first)
    out = np.array(block, dtype=float).reshape(s, s)
    out.flags.writeable = False
    return out


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


def dot(terms, values):
    """c * values[i] summed over the ``(i, c)`` pairs of ``terms``, left to
    right, 0.0 for none: the one summation order of the dot products on the
    trajectory path.  It runs on floats and on tracing scalars alike."""
    total = None
    for i, c in terms:
        term = c * values[i]
        total = term if total is None else total + term
    return 0.0 if total is None else total


def _float_square_rows(a) -> list:
    """Float rows of a square matrix given as an ndarray or as rows."""
    if not isinstance(a, np.ndarray):
        try:
            rows = [[float(v) for v in row] for row in a]
        except TypeError:  # not rows of numbers: numpy finds the shape
            a = np.array(a, dtype=float)
        else:
            if any(len(row) != len(rows) for row in rows):
                raise DimensionError(
                    f"square matrix required, got rows of lengths {[len(row) for row in rows]}"
                )
            return rows
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"square matrix required, got shape {arr.shape}")
    return arr.tolist()


def shape_of(value) -> tuple:
    """The lengths of nested lists, tuples and arrays, level by level:
    numpy's shape where they agree, and at the first level where they do
    not (numpy gives such a nesting no shape), the list of them and no
    level past it."""
    if isinstance(value, np.ndarray):
        return value.shape
    shape, level = [], [value]
    while level and all(
        isinstance(v, (list, tuple)) or (isinstance(v, np.ndarray) and v.ndim) for v in level
    ):
        lengths = [len(v) for v in level]
        if len(set(lengths)) > 1:
            shape.append(lengths)
            break
        shape.append(lengths[0])
        level = [u for v in level for u in v]
    return tuple(shape)


def _float_system(a, b) -> tuple:
    """Float rows of the square matrix ``a`` and a float list of ``b``,
    checked to match: copies for ``solve_in_place`` to consume."""
    rows = _float_square_rows(a)
    try:
        x = [float(v) for v in b]
    except TypeError:  # not a sequence of numbers
        x = None
    if x is None or len(x) != len(rows):
        raise DimensionError(f"right-hand side of length {shape_of(b)} for {len(rows)} equations")
    return rows, x


def solve_in_place(a: list, columns: list) -> None:
    """Solve a x = b in place for each right-hand side b in ``columns``: one
    Gaussian elimination of the float rows ``a`` with partial pivoting (the
    first row of largest magnitude), then back substitution per column,
    every sum left to right, so no result depends on a BLAS kernel.

    ``a`` is consumed.  Nothing is checked: ``a`` is a square list of
    float lists and every column a float list of its length.
    """
    n = len(a)
    biggest = 0.0
    for row in a:
        for v in row:
            v = abs(v)
            if v > biggest or v != v:  # a nan stays, and gives a nan threshold
                biggest = v
    if biggest == 0.0:
        raise SingularMatrixError("zero matrix")
    threshold = SINGULARITY_RELATIVE_THRESHOLD * biggest
    for col in range(n):
        pivot_row, size = col, abs(a[col][col])
        for r in range(col + 1, n):
            v = abs(a[r][col])
            if v > size:
                pivot_row, size = r, v
        if size < threshold:
            raise SingularMatrixError(
                f"pivot {a[pivot_row][col]:.3e} below {threshold:.3e} in column {col}"
            )
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            for x in columns:
                x[col], x[pivot_row] = x[pivot_row], x[col]
        top = a[col]
        pivot = top[col]
        for r in range(col + 1, n):
            row = a[r]
            if row[col] != 0.0:
                lam = row[col] / pivot
                # row[col] is not read again, so it is not updated
                for j in range(col + 1, n):
                    row[j] -= lam * top[j]
                for x in columns:
                    x[r] -= lam * x[col]
    for x in columns:
        for r in range(n - 1, -1, -1):
            row = a[r]
            if r + 1 < n:
                total = row[r + 1] * x[r + 1]
                for i in range(r + 2, n):
                    total = total + row[i] * x[i]
                x[r] = (x[r] - total) / row[r]
            else:
                x[r] = x[r] / row[r]


def gauss_solve(a, b) -> list:
    """Solve a x = b as float lists (``solve_in_place`` on copies).  ``a``
    is an ndarray or a sequence of rows."""
    a, x = _float_system(a, b)
    solve_in_place(a, [x])
    return x


def mat_inverse(a) -> np.ndarray:
    """Inverse by ``solve_in_place`` on the identity, as a read-only array."""
    rows = _float_square_rows(a)
    cols = [[float(i == j) for i in range(len(rows))] for j in range(len(rows))]
    solve_in_place(rows, cols)
    inv = np.array(cols, dtype=float).T.copy()
    inv.flags.writeable = False
    return inv


def solve_linear(a, b) -> np.ndarray:
    """Solve a x = b for a single right-hand side."""
    return np.array(gauss_solve(a, b), dtype=float)


def newton_iterate(
    residual_map: Callable,
    x0,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> list:
    """Undamped Newton iteration on float lists: ``residual_map(x) -> (F,
    J)`` with F a sequence of floats and J its Jacobian as float rows
    (lists) of its own.  Each step's ``solve_in_place`` consumes J as it
    is, unchecked; the J of the iterate returned is left untouched.

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
        step = list(res)
        solve_in_place(jac, [step])
        x = [u - v for u, v in zip(x, step)]
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
    each iterate as an array and returns F and J as arrays or sequences,
    which are checked and copied to float lists here (``gauss_solve``'s
    DimensionError where J is not square or F does not match it); the
    solution is returned as an array."""

    def float_map(x):
        res, jac = residual_map(np.array(x, dtype=float))
        rows, res = _float_system(jac, res)
        return res, rows

    return np.array(newton_iterate(float_map, x0, tol, max_iter), dtype=float)
