"""Numerical substrate: forward-mode dual scalars, fields compiled to
straight-line value-and-gradient and Hessian-block code, small dense
linear algebra on float lists with explicit pivot control, and a plain
Newton iteration.

Dual scalars carry a full partials vector (one slot per active variable)
and nest, so Hessian blocks come from running duals through duals.
``DualScalar`` and the elementary functions here hold the only
derivative rules.

``grad`` compiles a field's dual sweep with ``tracing.compile_traced``,
and ``hessian_block`` its nested-dual sweep once per index set, so the
generated code applies DualScalar's rules operation for operation;
``dual_sweep`` runs the sweep itself, for a caller that reads one point
and no program.  The nested sweep's program returns the first partials
over the index set ahead of the block, so ``grad_and_hessian_rows``
gives a Newton residual and its Jacobian rows from one run.  At a traced
point the seed partials are ``tracing.ZERO``, a zero that drops out of
every rule, so structurally zero partials cost no code.

The linear algebra and every sum in ``dot`` run on Python floats in a
fixed order, so no result depends on the BLAS kernel numpy loads.
``solve_in_place`` is the one elimination: ``gauss_solve`` and
``mat_inverse`` run it on checked copies, and ``newton_iterate`` on the
Jacobian rows its residual map returns, unchecked and uncopied
(``newton_solve`` checks and copies its map's arrays first).  At
tracing scalars ``newton_iterate`` records its loop once, which
``dirac.reduced_field`` compiles into its program.
"""

import functools
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
from .tracing import ZERO, Loop, Tracer, compile_traced, is_traced, require_finite

__all__ = [
    "DualScalar",
    "ScalarField",
    "seed_duals",
    "dual_sweep",
    "value_and_grad",
    "grad",
    "grad_and_hessian_rows",
    "hessian_block",
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
# Newton steps a traced solve's loop takes at most: the most the reduced
# fields of the catalog's forced-Newton systems and the quartic skater take
# from a cold start at zero (6) or a random start in [-1, 1] (7)
NEWTON_UNROLLED = 7


def _scalar(x):
    """Innermost float of a possibly nested dual."""
    while isinstance(x, DualScalar):
        x = x.value
    return x


def _fails(x, test) -> bool:
    """Whether the innermost value of ``x`` satisfies ``test`` (operator.eq,
    lt or le) against 0.0, the domain test on which a dual rule raises.

    A traced value has no number to test: the test becomes a guard of the
    program being recorded, which gives up where it holds, and the trace
    goes on down the branch that does not raise.
    """
    x = _scalar(x)
    if isinstance(x, Tracer):
        x.guard(test)
        return False
    return test(x, 0.0)


def _sign(x):
    """1.0 where the innermost value of ``x`` is >= 0.0, else -1.0 (a traced
    sign for a traced value)."""
    x = _scalar(x)
    if isinstance(x, Tracer):
        return x.sign()
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
            if _fails(ov, operator.eq):
                raise NumericDomainError("division by zero")
            q = self.value / ov
            return DualScalar(
                q,
                tuple((a - q * b) / ov for a, b in zip(self.partials, other.partials)),
            )
        if _fails(other, operator.eq):
            raise NumericDomainError("division by zero")
        return DualScalar(self.value / other, tuple(a / other for a in self.partials))

    def __rtruediv__(self, other):
        if _fails(self.value, operator.eq):
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
    if isinstance(x, Tracer):
        return x.call(fn)
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
    if _fails(x, operator.le):
        raise NumericDomainError("log of a non-positive value")
    if isinstance(x, DualScalar):
        return DualScalar(log(x.value), tuple(a / x.value for a in x.partials))
    return _apply(math.log, x)


def sqrt(x):
    if _fails(x, operator.lt):
        raise NumericDomainError("sqrt of a negative value")
    if isinstance(x, DualScalar):
        if _fails(x.value, operator.eq):
            raise NumericDomainError("sqrt derivative at zero")
        r = sqrt(x.value)
        f = 0.5 / r
        return DualScalar(r, tuple(f * a for a in x.partials))
    return _apply(math.sqrt, x)


def divide(num, den):
    """num / den; a zero divisor, plain or dual, raises NumericDomainError."""
    if _fails(den, operator.eq):
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
        e = int(e)
    try:
        if isinstance(e, int):
            return _pow_int(base, e)
        if _fails(base, operator.lt):
            raise NumericDomainError("negative base with non-integer exponent")
        if isinstance(base, DualScalar):
            if _fails(base, operator.eq):
                raise NumericDomainError("zero base with non-integer exponent")
            v = base.value ** e
            f = e * base.value ** (e - 1.0)
            return DualScalar(v, tuple(f * a for a in base.partials))
        return _plain_pow(base, e)
    except OverflowError as err:
        raise NumericDomainError(f"power overflow for exponent {e}") from err


def _pow_int(base, n):
    if isinstance(base, DualScalar):
        if n == 0:
            return DualScalar(1.0, tuple(0.0 * a for a in base.partials))
        if n < 0 and _fails(base.value, operator.eq):
            raise NumericDomainError("zero base with negative exponent")
        v = base.value ** n
        f = n * base.value ** (n - 1)
        return DualScalar(v, tuple(f * a for a in base.partials))
    return _plain_pow(base, n)


def _plain_pow(base, e):
    """base ** e for a plain or traced base once ``power``'s other guards
    have run: a zero base with a negative exponent raises here."""
    if e < 0 and _fails(base, operator.eq):
        raise NumericDomainError("zero base with negative exponent")
    if isinstance(base, Tracer):
        return base.raw_pow(e)
    return base ** e


@functools.cache
def _unit_seeds(n, zero=0.0):
    """The n unit partials vectors, ``zero`` off the diagonal."""
    return tuple(tuple(1.0 if i == j else zero for i in range(n)) for j in range(n))


def seed_duals(p):
    """Wrap a point as duals, variable j carrying the j-th unit partial."""
    seeds = _unit_seeds(len(p))
    return [DualScalar(float(v), seeds[j]) for j, v in enumerate(p)]


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
    def arity(self) -> int:
        return len(self.base_names) + len(self.fiber_names)

    def __call__(self, *args):
        if len(args) != self.arity:
            raise DimensionError(
                f"field of arity {self.arity} called with {len(args)} arguments"
            )
        return self.fn(*args)


def dual_sweep(f: ScalarField, p):
    """The value and partials of ``f`` at ``p`` from one dual sweep.

    At tracing scalars the sweep is seeded with ``ZERO`` and recorded.  At
    floats it returns floats, and raises where one is not finite.  The code
    traced from it gives up wherever the float sweep raises: where the
    sweep multiplies a non-finite value by a structural zero the code
    leaves out, the code multiplies it by another partial, and no rule
    makes a non-finite partial finite again, so the sum check gives up.
    """
    traced = is_traced(p)
    seeds = _unit_seeds(len(p), ZERO if traced else 0.0)
    out = f.fn(*[DualScalar(v, seed) for v, seed in zip(p, seeds)])
    if traced:
        return value_of(out), partials_of(out, len(p))
    value, partials = float(value_of(out)), tuple(float(v) for v in partials_of(out, len(p)))
    if not (math.isfinite(value) and all(math.isfinite(v) for v in partials)):
        raise NumericDomainError(f"non-finite derivative at {tuple(p)!r}")
    return value, partials


def _float_point(f: ScalarField, p) -> tuple:
    """``p`` checked against the arity of ``f``, as (args, traced): a list
    of floats, or with its tracing scalars kept when it holds any (a
    tracing scalar has no float)."""
    n = f.arity
    try:
        if len(p) != n:
            raise DimensionError(f"point of length {len(p)} for field of arity {n}")
        if is_traced(p):
            return [v if isinstance(v, Tracer) else float(v) for v in p], True
        return [float(v) for v in p], False
    except (TypeError, ValueError) as err:
        raise DimensionError(f"point {p!r} is not a sequence of numbers: {err}") from err


def value_and_grad(f: ScalarField, p):
    """Value and gradient (a tuple) of ``f`` at ``p``.

    The first call compiles the dual sweep of ``f``, and every call runs
    that program.  Inside ``compile_traced`` a point holding tracing
    scalars records the sweep instead, so the caller's program contains it.
    """
    args, traced = _float_point(f, p)
    if traced:
        value, partials = dual_sweep(f, args)
        return value, tuple(0.0 if v is ZERO else v for v in partials)
    compiled = f._compiled
    if compiled is None:
        compiled = f._compiled = compile_traced(lambda *xs: dual_sweep(f, xs), f.arity)
    return compiled(*args)


def grad(f: ScalarField, p) -> np.ndarray:
    """Gradient of ``f`` at ``p`` (``value_and_grad`` as an array)."""
    return np.array(value_and_grad(f, p)[1], dtype=float)


def _hessian_sweep(f: ScalarField, p, idx) -> tuple:
    """The first partials of ``f`` over ``idx`` at ``p`` and its
    second-derivative block over ``idx``, row by row, as two tuples, from
    one nested-dual sweep: the inner value carries the first partials.  At
    tracing scalars the inner level is seeded with ``ZERO`` and the sweep
    recorded.  At floats it returns floats, finite or not; the code traced
    from it gives up wherever one is not, by ``dual_sweep``'s argument, so
    its callers check the outputs they read."""
    s = len(idx)
    traced = is_traced(p)
    inner = _unit_seeds(s, ZERO if traced else 0.0)
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


def _hessian_indices(f: ScalarField, idx) -> tuple:
    """``idx`` as a tuple, checked against ``f``."""
    n = f.arity
    try:
        idx = tuple(idx)
    except TypeError as err:
        raise DimensionError(f"index subset {idx!r} is not a sequence of integers: {err}") from err
    if idx not in f._hessians:  # only index sets that passed the check
        if len(set(idx)) < len(idx) or not all(isinstance(j, numbers.Integral) for j in idx):
            raise DimensionError(f"index subset {list(idx)} must hold distinct integers")
        if any(j < 0 or j >= n for j in idx):
            raise DimensionError(f"index subset {list(idx)} outside arity {n}")
    return idx


def _hessian_outputs(f: ScalarField, args: list, idx: tuple) -> tuple:
    """The first partials and block of ``f`` over the index set ``idx`` at
    the float point ``args``, both checked; the outputs are not.  The first
    call for an index set compiles ``_hessian_sweep``, and every call with
    that set runs that program."""
    compiled = f._hessians.get(idx)
    if compiled is None:
        compiled = f._hessians[idx] = compile_traced(lambda *xs: _hessian_sweep(f, xs, idx), f.arity)
    return compiled(*args)


def _require_finite(values, what: str, args) -> None:
    if not all(math.isfinite(v) for v in values):
        raise NumericDomainError(f"non-finite {what} at {tuple(args)!r}")


def grad_and_hessian_rows(f: ScalarField, p, idx) -> tuple:
    """The first partials of ``f`` over ``idx`` at ``p`` (a tuple) and its
    second-derivative block over ``idx`` as float rows (lists of the
    caller's own), from one run of ``hessian_block``'s program: the
    residual and the Jacobian rows of Newton on d f / d x_idx = 0.  A
    non-finite first partial raises as in ``value_and_grad``, ahead of the
    block's check.  At tracing scalars the sweep is recorded, and the
    program gives up where that program's outputs are not finite; an
    entry the sweep leaves constant is a float."""
    args, traced = _float_point(f, p)
    idx = _hessian_indices(f, idx)
    if traced:
        first, block = _hessian_sweep(f, args, idx)
        first, block = (tuple(0.0 if v is ZERO else v for v in out) for out in (first, block))
        require_finite([*first, *block])
    else:
        first, block = _hessian_outputs(f, args, idx)
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
    args, _ = _float_point(f, p)
    first, block = _hessian_outputs(f, args, _hessian_indices(f, idx))
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
        except TypeError:  # not rows of numbers: numpy finds the shape, if there is one
            try:
                if np.array(a).dtype == object:  # numpy's float would make a None nan
                    raise TypeError("an entry is not a number")
                a = np.array(a, dtype=float)
            except (TypeError, ValueError) as err:
                raise DimensionError(f"matrix {a!r} is not rows of numbers") from err
        except ValueError as err:  # an entry that is not a number
            raise DimensionError(f"matrix {a!r} is not rows of numbers: {err}") from err
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
    except TypeError:  # not a sequence
        x = None
    except ValueError as err:  # an entry that is not a number
        raise DimensionError(f"right-hand side {b!r} is not a sequence of numbers: {err}") from err
    if x is None or len(x) != len(rows):
        raise DimensionError(f"right-hand side of length {shape_of(b)} for {len(rows)} equations")
    return rows, x


def solve_in_place(a: list, columns: list) -> None:
    """Solve a x = b in place for each right-hand side b in ``columns``: one
    Gaussian elimination of the float rows ``a`` with partial pivoting (the
    first row of largest magnitude), then back substitution per column,
    every sum left to right, so no result depends on a BLAS kernel.

    ``a`` is consumed.  Nothing is checked: ``a`` is a square list of
    float lists and every column a float list of its length.  The columns
    may hold tracing scalars, and so may ``a`` when it is 1 x 1: its
    zero test is then a guard, and the solve the division it comes to.
    A larger traced ``a`` cannot be traced: the pivot search compares.
    """
    n = len(a)
    if n == 1 and isinstance(a[0][0], Tracer):
        a[0][0].guard(operator.eq)
        for x in columns:
            x[0] = x[0] / a[0][0]
        return
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

    Returns the first iterate with ``max|F| <= tol``.  At a traced start
    it records the loop once instead (``_newton_traced``).  A start that is
    not a sequence of numbers raises DimensionError.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    # type() first: an ABC check costs about 1 µs, on every solve
    if type(max_iter) is not int and (
        isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral)
    ):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter!r}")
    try:
        traced = is_traced(x := list(x0))  # read once: a one-shot start is its list
        x = x if traced else [float(v) for v in x]
    except (TypeError, ValueError) as err:
        raise DimensionError(f"Newton start {x0!r} is not a sequence of numbers: {err}") from err
    if traced:
        return _newton_traced(residual_map, x, tol, min(max_iter, NEWTON_UNROLLED))
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


def _newton_traced(residual_map: Callable, x: list, tol: float, steps: int) -> list:
    """``newton_iterate`` on tracing scalars, recorded once as a
    ``tracing.Loop`` of ``steps + 1`` passes, left at the first converged
    iterate; the code gives up where none converges.  Each step eliminates
    a copy of J, so the J of the exit pass keeps its values at the iterate
    returned."""
    loop = Loop(x, steps + 1)
    res, jac = loop.until_converged(residual_map, tol)
    step = list(res)
    solve_in_place([list(row) for row in jac], [step])
    return loop.close([u - v for u, v in zip(loop.x, step)])


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
