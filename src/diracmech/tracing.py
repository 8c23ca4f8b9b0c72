"""Functions of plain numbers traced once and compiled to straight-line
float code: the one module that writes program text.

``compile_traced`` runs a function once on tracing scalars that know no
calculus: each float operation on one records one line of straight-line
code as a form over the names it reads.  Products with 1.0 are folded,
and one pass writes the lines into one Python function, without those
nothing reads and with each value read once inline in its reader.  A
compiled program stands in for the function it was traced from: where
a domain guard holds, a float operation raises or an output is not
finite, it runs that function, which gives the same numbers or raises
the engine's error.  A function that cannot be traced (it compares or
converts its arguments) is its own program.
``numcore.grad``, ``dirac.reduced_field`` (one program, called flat as
``field(*y, *guess)``), ``SkewAlgebroid.float_rates``, its admissibility
residual (along a float run's ``decided`` comparisons) and the isotropy
check (``dirac.element_pairing``) compile their programs this way.

An iteration is recorded once, as a ``Loop`` the code leaves at the
first converged iterate, so ``reduced_field`` holds the consistency
solve's Newton steps in its program.

``rk4_program`` writes the integrator's RK4 steps once per state length:
one loop over a run's steps that calls a compiled field, for the
derivative alone where no sample reads H, and hands the recorded states
back.  ``fused_rk4_program`` writes the same loop with the derivative
lines a field program kept from its compile in place of those calls (a
call in a trace inlined); a stage whose lines give up calls the field.
``_rewrite`` first drops float operations: exactly, on constants and by
identities; for a finite operand, which the stage then checks; and up to
the sign of a zero, where no run can see it (``fused_rk4_program``).
``source_of`` shows a compiled program or loop.
"""

import contextlib
import functools
import math
import numbers
import operator
from typing import Callable, NamedTuple

from .errors import EngineError

__all__ = [
    "Loop",
    "Tracer",
    "ZERO",
    "compile_traced",
    "decided",
    "is_traced",
    "require_finite",
    "rk4_program",
    "source_of",
]


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
    # what float code raises where a derivative rule raises
    "float_errors": (OverflowError, ValueError, ZeroDivisionError),
    "give_up": _GiveUp,
}

# the tests a guard records, as the program writes them
_COMPARISONS = {operator.eq: "==", operator.ne: "!=", operator.lt: "<", operator.le: "<=", operator.gt: ">"}


class _Untraceable(TypeError):
    """The traced function asked for a value the trace does not have."""


class _Line(NamedTuple):
    """One line of a traced program: ``form`` with one ``{}`` per name in
    ``reads``, in order.  A fresh assignment has a ``name`` and its form is
    the expression, such as ``"{} * {}"``; for any other line ``name`` is
    None and the form is the whole line."""

    form: str
    name: str | None
    reads: tuple
    may_raise: bool
    depth: int


class _Tape:
    """The program a trace records: straight-line but for its Loops.

    Every float operation is one assignment to a fresh local ``v*``, the
    arguments are ``x*``, and constants are read as ``c*`` from the
    namespace the program runs in, so no source text comes from the traced
    function.  A guard gives up where the traced function would raise.
    """

    def __init__(self):
        self.lines = []
        self.consts = {}
        self._const_names = {}
        self._names = {}  # (form, reads) -> the name it was first assigned to
        self.guards = set()  # the (form, reads) of the guards recorded
        self.defined = set()  # the names the Loop being recorded defines

    def const(self, c) -> str:
        key = (type(c), repr(c))  # keeps 0.0 and -0.0 apart, and finds nan again
        name = self._const_names.get(key)
        if name is None:
            name = self._const_names[key] = f"c{len(self.consts)}"
            self.consts[name] = c
        return name

    def let(self, form: str, reads: tuple, may_raise: bool = False) -> str:
        name = self._names.get((form, reads))
        if name is None:  # an expression already assigned has the same value
            name = self._names[form, reads] = f"v{len(self.lines)}"
            self.add(form, reads, may_raise, name)
        return name

    def guard(self, form: str, reads: tuple) -> None:
        if (form, reads) not in self.guards:  # a test already passed passes again
            self.guards.add((form, reads))
            self.add(form, reads)

    def add(self, form: str, reads: tuple, may_raise: bool = True, name=None) -> None:
        """Record one line: in a Loop unless it reads nothing the loop defines."""
        depth = 0 if self.defined.isdisjoint(reads) else 1
        if depth and name:
            self.defined.add(name)
        self.lines.append(_Line(form, name, reads, may_raise, depth))

    def is_const(self, name: str, text) -> bool:
        """Whether ``name`` is the float constant written ``text``."""
        return self._const_names.get((float, text)) == name


# x op c is x, exactly, for these constants c
_IDENTITIES = {"+": "-0.0", "-": "0.0", "*": "1.0", "/": "1.0"}


class Tracer:
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

    def _let(self, form: str, reads: tuple, may_raise: bool = False) -> "Tracer":
        return Tracer(self.tape, self.tape.let(form, reads, may_raise))

    def _binary(self, op: str, other, reflected=False):
        if isinstance(other, Tracer):
            if other.tape is not self.tape:
                raise _Untraceable("scalar from another trace")
            o = other.name
        # type() first: an ABC check costs about 1 µs, on every operand traced
        elif type(other) is float or isinstance(other, numbers.Real):
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
        return self._let(f"{{}} {op} {{}}", (a, b), op in ("/", "**"))

    def guard(self, test) -> None:
        """Give up where ``test(self, 0.0)`` holds (operator.eq, lt or le)."""
        self.tape.guard(f"if {{}} {_COMPARISONS[test]} 0.0: raise give_up", (self.name,))

    def sign(self) -> "Tracer":
        """1.0 where this value is >= 0.0, else -1.0."""
        return self._let("1.0 if {} >= 0.0 else -1.0", (self.name,))

    def call(self, fn) -> "Tracer":
        """``fn(self)`` for ``fn`` one of the math functions in ``_HELPERS``."""
        return self._let(f"{fn.__name__}({{}})", (self.name,), fn is not math.fabs)

    def raw_pow(self, exponent) -> "Tracer":
        """``self ** exponent`` once ``numcore.power``'s guards have run."""
        return self._binary("**", exponent)

    def raw_rpow(self, base) -> "Tracer":
        """``base ** self`` once ``numcore.power``'s guards have run."""
        return self._binary("**", base, reflected=True)

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
        return numcore.power(self, other)

    def __rpow__(self, other):
        return numcore.power(other, self)

    def __neg__(self):
        return self._let("-{}", (self.name,))

    def __pos__(self):
        return self

    def __abs__(self):
        return self.call(math.fabs)

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


ZERO = _Zero()


def is_traced(values) -> bool:
    """Whether any of ``values`` is a tracing scalar: the caller runs inside
    ``compile_traced`` and records what it computes."""
    for v in values:  # a plain loop: evaluate_reduced asks on every call
        if isinstance(v, Tracer):
            return True
    return False


def _tape_of(values) -> _Tape:
    """The tape the tracing scalars among ``values`` record on."""
    tapes = {v.tape for v in values if isinstance(v, Tracer)}
    if len(tapes) != 1:
        raise _Untraceable("no single trace records these values")
    return tapes.pop()


def decided(test, x, y, path) -> bool:
    """``test(x, y)`` (of ``_COMPARISONS``), appended to the list ``path``; or
    the next result of the float run ``path`` iterates over, which the
    program gives up unless a traced x or y has, except where no float,
    nan included, has it: ``v > v``, ``v < v`` and ``0.0 > fabs(v)``."""
    if isinstance(path, list):
        path.append(test(x, y))
        return path[-1]
    outcome = next(path)
    if isinstance(x, Tracer) or isinstance(y, Tracer):
        tape = _tape_of((x, y))
        a, b = _name(tape, x), _name(tape, y)
        never = a == b and test in (operator.gt, operator.lt) or test is operator.gt and tape.is_const(a, "0.0") and any(
            line[:2] == ("fabs({})", b) for line in tape.lines)
        if not never:  # a float run never has such a test hold
            tape.guard(f"if {'not ' if outcome else ''}{{}} {_COMPARISONS[test]} {{}}: raise give_up", (a, b))
    return outcome


def _name(tape: _Tape, v) -> str:
    """The name of a traced or plain number in the program on ``tape``."""
    if isinstance(v, Tracer) and v.tape is tape:
        return v.name
    if v is ZERO or type(v) is float or isinstance(v, numbers.Real):
        return tape.const(0.0 if v is ZERO else float(v))
    raise _Untraceable("not a traced or plain number")


class Loop:
    """An iteration recorded once, as a loop of ``passes`` passes.

    The iterate ``x`` is carried in names set before the loop, read as
    ``self.x``.  ``until_converged`` records a pass's residual and its
    test, which leaves the loop where max|residual| <= tol (never at a
    nan); the test reads values the engine computes, never a Tracer's
    comparison.  ``close`` records the carried writes and ``else: raise
    give_up``.  A line that reads nothing the loop defines is written
    before it.  After the loop the names hold the exit pass's values, so
    later lines share the lines and guards recorded before the test, and
    none recorded after it.
    """

    def __init__(self, x, passes: int):
        tape = self.tape = _tape_of(x)
        if tape.defined:
            raise _Untraceable("a loop inside a loop")
        self.header = _Line(f"for _ in {tape.const((None,) * passes)}:", None, (), True, 0)
        self.x = [Tracer(tape, f"v{len(tape.lines)}_{j}") for j in range(len(x))]
        self._carry(x, 0)
        self.start, tape.defined = len(tape.lines), {v.name for v in self.x}

    def _carry(self, x, depth: int) -> None:
        for c, v in zip(self.x, x):
            name = _name(self.tape, v)
            self.tape.lines.append(_Line(f"{c.name} = {{}}", None, (name,), True, depth))

    def until_converged(self, residual_map: Callable, tol: float):
        """``residual_map(self.x) -> (F, J)``, and the test on F.  The map is
        called twice, and one whose recorded outputs differ is untraceable:
        every pass runs what the first call recorded."""
        tape, (res, jac) = self.tape, residual_map(self.x)
        again, names = residual_map(self.x), [[_name(tape, v) for v in row] for row in (res, *jac)]
        if names != [[_name(tape, v) for v in row] for row in (again[0], *again[1])]:
            raise _Untraceable("the residual map recorded different outputs at one iterate")
        tol = tape.const(float(tol))
        test = " and ".join(f"fabs({{}}) <= {tol}" for _ in names[0]) or "True"
        tape.lines.append(_Line(f"if {test}: break", None, tuple(names[0]), True, 1))
        self.shared = dict(tape._names), set(tape.guards)
        return res, jac

    def close(self, x) -> list:
        """Carry ``x`` to the next pass and end the loop: the iterate at the exit."""
        self._carry(x, 1)
        tape, span = self.tape, self.tape.lines[self.start :]
        hoisted, body = [ln for ln in span if not ln.depth], [ln for ln in span if ln.depth]
        tail = _Line("else: raise give_up", None, (), True, 0)
        tape.lines[self.start :] = [*hoisted, self.header, *body, tail]
        tape._names, tape.guards = self.shared
        tape.defined = set()
        return self.x


def require_finite(values) -> None:
    """Give up unless the sum of ``values`` in order is finite, plain finite
    ones left out: the program's output check, on values it does not return."""
    tape = _tape_of(values)
    traced = tuple(_name(tape, v) for v in values if isinstance(v, Tracer) or not math.isfinite(v))
    total = " + ".join("{}" for _ in traced) or "0.0"
    tape.guard(f"if not isfinite({total}): raise give_up", traced)


# A value is written into its reader while its source holds fewer than
# this many parentheses; a reader has at most two operands, so no line
# nests near the 200 levels CPython's parser allows.
_MAX_PARENTHESES = 64


def _live_lines(lines, outputs, lead=None, late=frozenset()) -> list:
    """The text of ``lines``, indented, from one pass over the records.
    Backward, it drops each fresh assignment that cannot raise and that no
    output or kept line reads (only a Loop's carried writes, which all
    stay, feed an earlier line), and notes each value that is no output
    and that one depth-0 assignment reads once.  Forward, it writes each
    line from its form, and such a value into its reader in parentheses:
    the same float operations on the same operands, without a store and a
    load.  A Loop writes before it only lines that read nothing it
    defines, so those operands are the same after it.  Guards and a
    Loop's lines read names.  With ``lead``, the names of the leading
    outputs, those return early where the flag ``lead`` is set, after what
    they, the guards and the Loops read; the ``late`` lines follow at depth
    0, where a Loop's lines before its test read the exit pass's values."""
    reader = dict.fromkeys(outputs, False)  # needed name -> read once, by a depth-0 assignment
    kept, once = [], set()
    for line in reversed(lines):
        name = line.name
        if name is None or line.may_raise or name in reader:
            depth = 0 if name in late else line.depth
            kept.append((line, depth))
            if reader.get(name) and not depth:
                once.add(name)
            at = name is not None and not depth
            for read in line.reads:
                reader[read] = read not in reader and at
    inline, text, late_text = {}, [], []  # inline: the values still to be written
    for line, depth in reversed(kept):
        out = late_text if line.name in late else text
        expr = line.form.format(*[inline.pop(read, read) for read in line.reads])
        if line.name is None:
            out.append("    " * depth + expr)
        elif line.name in once and expr.count("(") < _MAX_PARENTHESES:
            inline[line.name] = f"({expr})"
        else:
            out.append(f"{'    ' * depth}{line.name} = {expr}")
    if lead is not None:
        text.append(f"if lead and isfinite({' + '.join(lead) or '0.0'}): return ({''.join(f'{v}, ' for v in lead)})")
    return text + late_text


def _output(tape: _Tape, out, flat: list) -> str:
    """The source of ``out``, a number or a sequence of outputs, as a
    tuple; the name of each number is appended to ``flat``."""
    if isinstance(out, (tuple, list)):
        return "(" + "".join(f"{_output(tape, v, flat)}, " for v in out) + ")"
    name = _name(tape, out)
    flat.append(name)
    return name


def _source(fn: Callable, arity: int, lead: int | None = None):
    """Trace ``fn`` once: the source of ``compile_traced``'s function, the
    constants it reads and, with ``lead``, what ``fused_rk4_program`` writes
    from it (None without); or None when ``fn`` cannot be traced."""
    tape, flat = _Tape(), []
    try:
        result = _output(tape, fn(*[Tracer(tape, f"x{j}") for j in range(arity)]), flat)
    except Exception:  # fn itself, on floats, raises what is wrong
        return None
    first = None if lead is None else flat[:lead]
    late, need, stepping, after = set(), set(first or ()), False, 0  # late: what no lead output, guard or Loop step reads
    for line in reversed(tape.lines if lead is not None else ()):  # a Loop's lines after its test come first
        stepping = line.depth and (stepping or not after) and not line.form.endswith(": break")
        after = line.depth
        if line.name is None or line.name in need or stepping:
            need.update(line.reads)
        else:
            late.add(line.name)
    lines = _live_lines(tape.lines, flat, first, late)
    args = ", ".join(f"x{j}" for j in range(arity))
    source = [
        f"def traced({args}{'' if lead is None else ', lead=False'}):",
        "    try:",
        *(f"        {line}" for line in lines),
        f"        if isfinite({' + '.join(flat) or '0.0'}): return {result}",
        "    except (give_up, *float_errors): pass",
        f"    return reference({args})",
    ]
    lead_lines = None if lead is None else ([line for line in tape.lines if line.name not in late], first, tape.consts)
    return "\n".join(source), tape.consts, lead_lines


def compile_traced(fn: Callable, arity: int, lead: int | None = None) -> Callable:
    """Trace ``fn`` once and compile it to straight-line float code.

    ``fn`` is called with ``arity`` tracing scalars that stand for plain
    numbers.  It must return a number, or a sequence of such outputs,
    computed from them with float operations and the functions of
    ``numcore``, dual sweeps included.  The result is ``traced(x0, ...,
    x{arity-1})``, equal to ``fn`` on floats: it returns the same outputs
    as floats in tuples, and where the code gives up it returns ``fn(x0,
    ..., x{arity-1})``, which gives the same numbers or raises.  The code
    gives up where a recorded guard holds (a rule would raise there), a
    float operation raises, or the sum of the outputs, in order, is not
    finite.  A ``fn`` that cannot be traced is returned as it is.  With
    ``lead``, a flag after the numbers (default False) returns the first
    ``lead`` of ``fn``'s flat outputs alone once their sum is finite, and
    skips the lines only the rest need; ``fn`` must ignore the flag.  The
    records of the lines before that return, those ``lead`` names and the
    constants stay on the program as ``lead_lines``.
    """
    traced = _source(fn, arity, lead)
    if traced is None:
        return fn
    source, consts, lead_lines = traced
    namespace = {**_HELPERS, **consts, "reference": fn, "source": source}
    exec(compile(source, "<traced>", "exec"), namespace)
    namespace["traced"].lead_lines = lead_lines
    return namespace["traced"]


def source_of(program: Callable) -> str:
    """The text of ``program``, a function ``compile_traced`` generated,
    as it was compiled."""
    return program.__globals__["source"]


@functools.cache
def rk4_program(n: int, nt: int) -> Callable:
    """The RK4 steps of a run, as one program for states of ``n`` floats:
    ``run(field, sample, failed, y.., e.., k0, n_steps, stride, dt, last)
    -> ((y..), (e..), (g..))`` takes ``n_steps`` steps, of ``dt`` but the
    last, of ``last``.  ``k0`` is the evaluation ``field(*y, *g, lead)`` of
    each state: k1, then the ``nt`` numbers g the field reads after it at
    every stage.  Each state but the last is evaluated once, and every
    ``stride``-th goes to ``sample(step, (y..), k0)``; the stages and other
    states set ``lead``.  An EngineError in stage s (0: the evaluation)
    gets ``stage_index = s`` and goes to ``failed(step, err)``, then
    propagates.  Knuth's TwoSum adds the increment plus the carried error e
    to y, and the new error exactly, without a branch: Neumaier's compensation."""
    return _rk4(n, nt, None)


def fused_rk4_program(field: Callable, n: int, nt: int) -> Callable:
    """``rk4_program(n, nt)`` with the line records ``field`` kept before its
    early return (``lead_lines``, from ``lead = n + nt``), after ``_rewrite``,
    in place of its call in the stages and unrecorded states: rates go to
    ``kS_i``; stage 0 reads ``y*`` and sets the guesses after its check.
    Where they give up, the stage calls ``field``.  A rate may differ from
    the field's in the sign of a zero alone: each traced operation erases
    such a difference or passes it on, raising alike (``x/±0`` and
    ``log(±0)`` raise), and no guard sees it.  ``simulate`` starts e at +0.0,
    TwoSum never makes e or u -0.0, and either loop gets ``0.0 + y``; so ``u
    = sixth*(...) + e``, ``y + half*k``, every stage input, fallback call and
    state have the plain loop's bits."""
    fused = getattr(field, "lead_lines", None)
    return rk4_program(n, nt) if fused is None else _rk4(n, nt, _rewrite(*fused, n))


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "**": operator.pow}
_BINARY = {f"{{}} {op} {{}}": op for op in _OPERATORS}  # the binary float operations by form
_SIGN_BLIND = {"cos({})", "exp({})", "fabs({})", "1.0 if {} >= 0.0 else -1.0"}  # calls blind to the sign of a zero
_ZEROS = ("0.0", "-0.0")


def _rewrite(lines, lead, consts, n: int):
    """``lines`` with fewer float operations, then the stage's finiteness check
    (of the outputs but zero constants, then each x a rule checks); their
    outputs ``lead`` (``n`` rates, then guesses); the constants.  (a) For any
    float: an operation on constants is done now; ``-0.0 + x``, ``x - 0.0``,
    ``1.0 * x``, ``x / 1.0``, ``x ** 1.0`` are x, ``-1.0 * x`` -x.  (b) For a
    finite x, checked: ``x - x`` outside a Loop is 0.0.  (c) Up to the sign of
    a zero, on a depth-0 line that only such lines, rates, guards and
    sign-blind calls read: ``±0.0 + x``, ``x ± ±0.0`` are x, ``±0.0 * x`` ±0.0, x checked."""
    seen, free = set(lead[n:]), set()  # free: where (c) holds, from the readers back
    for line in reversed(lines):
        if line.name is not None and not line.depth and line.name not in seen:
            free.add(line.name)
        elif not (line.form in _SIGN_BLIND or line.form.endswith(": raise give_up")):
            seen.update(line.reads)
    texts = {c: repr(v) for c, v in consts.items() if type(v) is float}  # how each float constant is written
    consts, alias, kept, added, names = dict(consts), {}, [], [], {text: c for c, text in texts.items()}

    def const(value: float) -> str:
        name = names.setdefault(repr(value), f"c{len(consts)}")
        consts[name], texts[name] = value, repr(value)
        return name
    for line in lines:
        reads, op, form, to = tuple(map(alias.get, line.reads, line.reads)), _BINARY.get(line.form), line.form, None
        (a, b), loose = (*reads, None, None)[:2], line.name in free
        ta, tb = texts.get(a), texts.get(b)
        if op and ta is not None and tb is not None:  # (a), by the program's own float operation
            with contextlib.suppress(*_HELPERS["float_errors"]):
                value = _OPERATORS[op](consts[a], consts[b])
                to = const(value) if type(value) is float else None  # a negative base to a fraction is complex
        elif op and tb == _IDENTITIES.get(op, "1.0") or op in ("+", "-") and tb in _ZEROS and loose:  # ** has 1.0
            to = a
        elif op == "+" and (ta == "-0.0" or ta == "0.0" and loose) or op == "*" and ta == "1.0":
            to = b
        elif op == "*" and "-1.0" in (ta, tb):
            form, reads = "-{}", (b if ta == "-1.0" else a,)
        elif op == "-" and a == b and not line.depth or op == "*" and loose and (ta in _ZEROS or tb in _ZEROS):
            to = const(0.0) if op == "-" else a if ta in _ZEROS else b  # (b), (c)
            added.append(b if ta in _ZEROS else a)
        if to is None:
            kept.append(line if reads == line.reads and form == line.form else line._replace(form=form, reads=reads))
        else:
            alias[line.name] = to
    outputs = [alias.get(v, v) for v in lead]
    total = [v for v in outputs if texts.get(v) not in _ZEROS]
    total = (*total, *(v for v in dict.fromkeys(added) if v not in total))
    kept.append(_Line(f"if not isfinite({' + '.join(['{}'] * len(total)) or '0.0'}): raise give_up", None, total, True, 0))
    return kept, outputs, consts


def _rk4(n: int, nt: int, fused) -> Callable:
    """The one text of the RK4 loop: a stage calls the field, or runs the
    lines ``fused``, from ``_rewrite`` (``fused_rk4_program``)."""

    def each(text: str, sep: str = "") -> str:  # ``text`` at every index of the state
        return sep.join(text.format(i) for i in range(n))

    def indented(lines: list) -> list:
        return [f"    {line}" for line in lines]

    def state(step: str, k: str) -> list:  # the field's inputs at y + step * k
        return [f"y{i} + {step} * {k}_{i}" if step else f"y{i}" for i in range(n)] + [f"k0_{n + j}" for j in range(nt)]

    def stage(k: str, inputs: list) -> list:  # the fused lines that set {k}_0.. at ``inputs``, or give up
        lines, lead, _ = fused
        names = {f"x{j}": value for j, value in enumerate(inputs) if value.isidentifier()}
        defined, lines = {line.name for line in lines}, [
            *(_Line(value, f"x{j}", (), False, 0) for j, value in enumerate(inputs) if f"x{j}" not in names), *lines]
        for i, name in enumerate(lead[:n]):  # a rate line assigns {k}_i, or it is copied there
            if name in defined and name not in names:
                names[name] = f"{k}_{i}"
            else:
                lines.append(_Line(f"{k}_{i} = {{}}", None, (name,), True, 0))
        lines += [_Line(f"k0_{n + j} = {{}}", None, (g,), True, 0)  # the guesses, but those in place
                  for j, g in enumerate(lead[n:]) if k == "k0" and names.get(g) != f"k0_{n + j}"]
        return _live_lines([line if names.keys().isdisjoint((line.name, *line.reads)) else line._replace(
            name=names.get(line.name, line.name), reads=tuple(names.get(r, r) for r in line.reads)) for line in lines],
            [f"{k}_{i}" for i in range(n)])

    if fused is not None:  # stage 0's lines, and those of stages 1-3 with kS_, kP_, hS for k{s}_, k{s-1}_, the step
        zero, later = stage("k0", state("", "")), "\n".join(stage("kS", state("hS", "kP")))

    def evaluation(s: int, step: str = "") -> str:  # the lines that set k{s}_0.. to the field at y + step * k{s-1}
        inputs, outs = state(step, f"k{s - 1}"), [f"k{s}_{i}" for i in range(n if s else n + nt)]
        # indexing, not ``*_`` unpacking, which costs about 0.2 µs a stage
        text = [f"k{s} = field({', '.join(inputs)}, {'True' if s else 'step % stride'})"]
        text += [f"{out} = k{s}[{i}]" for i, out in enumerate(outs)]
        if fused is not None:
            lines = later.replace("kS_", f"k{s}_").replace("kP_", f"k{s - 1}_").replace("hS", step).split("\n")
            body = ["try:", *indented(lines if s else zero), "except (give_up, *float_errors):", *indented(text)]
            text = body if s else ["if step % stride:", *indented(body), "else:", *indented(text)]
        return "".join(f"\n            {line}" for line in text)

    next_line = "\n            "
    source = f"""def run(field, sample, failed, {each("y{}, ")}{each("e{}, ")}k0, n_steps, stride, dt, last):
    {"; ".join(f"k0_{i} = k0[{i}]" for i in range(n + nt))}
    for step in range(1, n_steps + 1):
        h = last if step == n_steps else dt
        half = 0.5 * h
        try:
            stage = 1{evaluation(1, "half")}
            stage = 2{evaluation(2, "half")}
            stage = 3{evaluation(3, "h")}
            sixth = h / 6.0
            {each("u{0} = sixth * (k0_{0} + 2.0 * k1_{0} + 2.0 * k2_{0} + k3_{0}) + e{0}", next_line)}
            {each("s{0} = y{0} + u{0}", next_line)}
            {each("w{0} = s{0} - y{0}", next_line)}
            {each("e{0} = (y{0} - (s{0} - w{0})) + (u{0} - w{0})", next_line)}
            {each("y{0} = s{0}", next_line)}
            if step == n_steps:
                return ({each("y{}, ")}), ({each("e{}, ")}), ({"".join(f"k0_{n + j}, " for j in range(nt))})
            stage = 0{evaluation(0)}
        except EngineError as err:
            err.stage_index = stage
            failed(step, err)
            raise
        if step % stride == 0:
            sample(step, ({each("y{}, ")}), k0)
"""
    namespace = {**_HELPERS, **(fused[2] if fused else {}), "EngineError": EngineError, "source": source}
    exec(compile(source, "<rk4>", "exec"), namespace)
    return namespace["run"]


# numcore imports this module first thing, and a tracer's ** goes through
# numcore.power's domain guards: imported last, after every name numcore reads
from . import numcore  # noqa: E402
