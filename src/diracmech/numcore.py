"""Numerical substrate: forward-mode dual scalars, small dense linear
algebra with explicit pivot control, and a plain Newton iteration.

Dual scalars carry a full partials vector (one slot per active variable)
and nest, so Hessian blocks come from running duals through duals.
"""

import math
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
            if _scalar(ov) == 0.0:
                raise NumericDomainError("division by zero")
            q = self.value / ov
            return DualScalar(
                q,
                tuple((a - q * b) / ov for a, b in zip(self.partials, other.partials)),
            )
        if _scalar(other) == 0.0:
            raise NumericDomainError("division by zero")
        return DualScalar(self.value / other, tuple(a / other for a in self.partials))

    def __rtruediv__(self, other):
        if _scalar(self.value) == 0.0:
            raise NumericDomainError("division by zero")
        q = other / self.value
        f = q / self.value
        return DualScalar(q, tuple(-f * a for a in self.partials))

    def __neg__(self):
        return DualScalar(-self.value, tuple(-a for a in self.partials))

    def __pos__(self):
        return self

    def __abs__(self):
        s = 1.0 if _scalar(self.value) >= 0.0 else -1.0
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
    return math.sin(x)


def cos(x):
    if isinstance(x, DualScalar):
        s = -sin(x.value)
        return DualScalar(cos(x.value), tuple(s * a for a in x.partials))
    return math.cos(x)


def tan(x):
    if isinstance(x, DualScalar):
        c = cos(x.value)
        f = 1.0 / (c * c)
        return DualScalar(tan(x.value), tuple(f * a for a in x.partials))
    return math.tan(x)


def exp(x):
    if isinstance(x, DualScalar):
        e = exp(x.value)
        return DualScalar(e, tuple(e * a for a in x.partials))
    try:
        return math.exp(x)
    except OverflowError as err:
        raise NumericDomainError(f"exp overflow at {x!r}") from err


def log(x):
    if _scalar(value_of(x)) <= 0.0:
        raise NumericDomainError("log of a non-positive value")
    if isinstance(x, DualScalar):
        return DualScalar(log(x.value), tuple(a / x.value for a in x.partials))
    return math.log(x)


def sqrt(x):
    if _scalar(value_of(x)) < 0.0:
        raise NumericDomainError("sqrt of a negative value")
    if isinstance(x, DualScalar):
        if _scalar(x.value) == 0.0:
            raise NumericDomainError("sqrt derivative at zero")
        r = sqrt(x.value)
        f = 0.5 / r
        return DualScalar(r, tuple(f * a for a in x.partials))
    return math.sqrt(x)


def divide(num, den):
    """num / den; a zero divisor, plain or dual, raises NumericDomainError."""
    if _scalar(value_of(den)) == 0.0:
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
    e = _scalar(value_of(exponent))
    if float(e).is_integer():
        n = int(e)
        return _pow_int(base, n)
    b = _scalar(value_of(base))
    if b < 0.0:
        raise NumericDomainError("negative base with non-integer exponent")
    if isinstance(base, DualScalar):
        if b == 0.0:
            raise NumericDomainError("zero base with non-integer exponent")
        v = base.value ** e
        f = e * base.value ** (e - 1.0)
        return DualScalar(v, tuple(f * a for a in base.partials))
    return b ** e


def _pow_int(base, n):
    try:
        if isinstance(base, DualScalar):
            if n == 0:
                return DualScalar(1.0, tuple(0.0 * a for a in base.partials))
            if _scalar(base.value) == 0.0 and n < 0:
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


class ScalarField:
    """A scalar function of named base and fiber variables.

    ``fn`` takes one positional argument per variable (base variables
    first) and must accept DualScalar as well as float inputs.
    """

    __slots__ = ("base_names", "fiber_names", "fn")

    def __init__(self, base_names: Sequence[str], fiber_names: Sequence[str], fn: Callable):
        self.base_names = tuple(base_names)
        self.fiber_names = tuple(fiber_names)
        self.fn = fn

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
    """Gradient of ``f`` at ``p``, one dual-number sweep for all partials."""
    n = f.arity
    if len(p) != n:
        raise DimensionError(f"point of length {len(p)} for field of arity {n}")
    out = f(*seed_duals(p))
    if not isinstance(out, DualScalar):
        _check_finite(out)
        return np.zeros(n)
    g = np.array(out.partials, dtype=float)
    if not (math.isfinite(value_of(out)) and np.isfinite(g).all()):
        raise NumericDomainError(f"non-finite derivative at {tuple(p)!r}")
    return g


def hessian_block(f: ScalarField, p, idx) -> np.ndarray:
    """Second-derivative block of ``f`` over the variable subset ``idx``,
    as a read-only array."""
    n = f.arity
    if len(p) != n:
        raise DimensionError(f"point of length {len(p)} for field of arity {n}")
    idx = list(idx)
    if any(j < 0 or j >= n for j in idx):
        raise DimensionError(f"index subset {idx} outside arity {n}")
    s = len(idx)
    seeds = _unit_seeds(s)
    args = [float(v) for v in p]
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
                raise NumericDomainError(f"non-finite second derivative at {tuple(p)!r}")
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
    if tol <= 0.0:
        raise ValueError("tol must be positive")
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
