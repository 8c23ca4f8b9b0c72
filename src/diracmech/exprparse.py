"""Recursive-descent parser and evaluator for scalar expressions.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-' factor) | power
    power  := atom ('^' factor)?
    atom   := number | identifier | identifier '(' expr (',' expr)* ')'
              | '(' expr ')'

Evaluation runs over float, DualScalar or traced bindings, so parsed
potentials are differentiated by the same machinery as builtin
Hamiltonians: ``numcore.grad`` traces and compiles them once.
"""

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import numcore
from .errors import BindingError, ExprError

__all__ = [
    "Token",
    "ExprNode",
    "Constant",
    "Variable",
    "Unary",
    "Binary",
    "Call",
    "FUNCTIONS",
    "tokenize",
    "parse",
    "parse_text",
    "eval_expr",
    "free_variables",
    "to_source",
]

NUMBER = "number"
IDENT = "identifier"
OPERATOR = "operator"
LPAREN = "left-paren"
RPAREN = "right-paren"
COMMA = "comma"

FUNCTIONS = {
    "sin": numcore.sin,
    "cos": numcore.cos,
    "tan": numcore.tan,
    "exp": numcore.exp,
    "log": numcore.log,
    "sqrt": numcore.sqrt,
    "abs": abs,
}

_OPERATOR_CHARS = "+-*/^"
_DIGITS = "0123456789"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int


class ExprNode:
    """Base class of expression tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(ExprNode):
    value: float


@dataclass(frozen=True)
class Variable(ExprNode):
    name: str


@dataclass(frozen=True)
class Unary(ExprNode):
    op: str
    child: ExprNode


@dataclass(frozen=True)
class Binary(ExprNode):
    op: str
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Call(ExprNode):
    name: str
    args: tuple


def _is_ident_start(ch):
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch):
    return ch.isalnum() or ch == "_"


def _scan_number(text, i):
    n = len(text)
    j = i
    while j < n and text[j] in _DIGITS:
        j += 1
    if j < n and text[j] == ".":
        j += 1
        while j < n and text[j] in _DIGITS:
            j += 1
    if j < n and text[j] in "eE":
        k = j + 1
        if k < n and text[k] in "+-":
            k += 1
        if k < n and text[k] in _DIGITS:
            j = k
            while j < n and text[j] in _DIGITS:
                j += 1
    return j


def tokenize(text: str) -> list:
    """Longest-match tokenization; whitespace separates, anything else lexes."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = _scan_number(text, i)
            tokens.append(Token(NUMBER, text[i:j], i))
        elif _is_ident_start(ch):
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            tokens.append(Token(IDENT, text[i:j], i))
        elif ch in _OPERATOR_CHARS:
            tokens.append(Token(OPERATOR, ch, i))
            j = i + 1
        elif ch == "(":
            tokens.append(Token(LPAREN, ch, i))
            j = i + 1
        elif ch == ")":
            tokens.append(Token(RPAREN, ch, i))
            j = i + 1
        elif ch == ",":
            tokens.append(Token(COMMA, ch, i))
            j = i + 1
        else:
            raise ExprError(f"illegal character {ch!r}", i)
        i = tokens[-1].position + len(tokens[-1].text)
    return tokens


# Deepest tree, and most parentheses open at once, that parsing accepts:
# parsing recurses per parenthesis, and evaluating or printing a tree per
# level, far below Python's recursion limit.  A printed tree parses again.
MAX_DEPTH = 100


def _within(tok, depth):
    """``depth`` if it is at most MAX_DEPTH, else an error at ``tok``."""
    if depth > MAX_DEPTH:
        raise ExprError(f"expression nested deeper than {MAX_DEPTH} levels", tok.position)
    return depth


class _Parser:
    """Each rule returns a pair: the node it parsed and the depth of its
    tree (a leaf is 0)."""

    def __init__(self, tokens, length):
        self.tokens = tokens
        self.pos = 0
        self.end_offset = length

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of input", self.end_offset)
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ExprError(f"expected {kind}, found {tok.text!r}", tok.position)
        return tok

    def at_operator(self, *ops):
        tok = self.peek()
        return tok is not None and tok.kind == OPERATOR and tok.text in ops

    def binary(self, tok, left, right):
        return Binary(tok.text, left[0], right[0]), _within(tok, 1 + max(left[1], right[1]))

    def expr(self):
        parsed = self.term()
        while self.at_operator("+", "-"):
            tok = self.next()
            parsed = self.binary(tok, parsed, self.term())
        return parsed

    def term(self):
        parsed = self.factor()
        while self.at_operator("*", "/"):
            tok = self.next()
            parsed = self.binary(tok, parsed, self.factor())
        return parsed

    def factor(self):
        """factor := ('-' factor) | power and power := atom ('^' factor)?,
        read as a stack of pending '-' and 'base ^' and built from the
        right, so that neither rule recurses."""
        pending = []  # (operator token, the base of a '^', None for a '-')
        while True:
            while self.at_operator("-"):
                pending.append((self.next(), None))
            parsed = self.atom()
            if not self.at_operator("^"):
                break
            pending.append((self.next(), parsed))
        for tok, base in reversed(pending):
            if base is None:
                parsed = Unary("-", parsed[0]), _within(tok, parsed[1] + 1)
            else:
                parsed = self.binary(tok, base, parsed)
        return parsed

    def atom(self):
        tok = self.next()
        if tok.kind == NUMBER:
            return Constant(float(tok.text)), 0
        if tok.kind == IDENT:
            nxt = self.peek()
            if nxt is not None and nxt.kind == LPAREN:
                if tok.text not in FUNCTIONS:
                    raise ExprError(f"unknown function {tok.text!r}", tok.position)
                self.next()
                args = [self.expr()]
                while self.peek() is not None and self.peek().kind == COMMA:
                    self.next()
                    args.append(self.expr())
                self.expect(RPAREN)
                if len(args) != 1:
                    raise ExprError(
                        f"{tok.text} takes one argument, got {len(args)}", tok.position
                    )
                arg, depth = args[0]
                return Call(tok.text, (arg,)), _within(tok, depth + 1)
            return Variable(tok.text), 0
        if tok.kind == LPAREN:
            parsed = self.expr()
            self.expect(RPAREN)
            return parsed
        raise ExprError(f"unexpected token {tok.text!r}", tok.position)


def parse(tokens: Sequence, length: int | None = None) -> ExprNode:
    """Parse a token stream produced by ``tokenize``; consumes it fully."""
    tokens = list(tokens)
    if not tokens:
        raise ExprError("empty expression", 0)
    if length is None:
        last = tokens[-1]
        length = last.position + len(last.text)
    opened = 0  # the parser recurses once per parenthesis open
    for tok in tokens:
        opened = _within(tok, opened + (tok.kind == LPAREN) - (tok.kind == RPAREN))
    p = _Parser(tokens, length)
    node, _ = p.expr()
    trailing = p.peek()
    if trailing is not None:
        raise ExprError(f"unexpected token {trailing.text!r}", trailing.position)
    return node


def parse_text(text: str) -> ExprNode:
    return parse(tokenize(text), len(text))


def eval_expr(e: ExprNode, bindings: Mapping):
    """Evaluate a tree over float, DualScalar or traced bindings."""
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Variable):
        try:
            return bindings[e.name]
        except KeyError:
            raise BindingError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Unary):
        return -eval_expr(e.child, bindings)
    if isinstance(e, Binary):
        left = eval_expr(e.left, bindings)
        right = eval_expr(e.right, bindings)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            return numcore.divide(left, right)
        return numcore.power(left, right)
    if isinstance(e, Call):
        fn = FUNCTIONS[e.name]
        return fn(*[eval_expr(a, bindings) for a in e.args])
    raise TypeError(f"not an expression node: {e!r}")


def free_variables(e: ExprNode) -> set:
    if isinstance(e, Variable):
        return {e.name}
    if isinstance(e, Unary):
        return free_variables(e.child)
    if isinstance(e, Binary):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Call):
        out = set()
        for a in e.args:
            out |= free_variables(a)
        return out
    return set()


def to_source(e: ExprNode) -> str:
    """Fully parenthesized rendering; ``parse(to_source(e))`` rebuilds ``e``."""
    if isinstance(e, Constant):
        return repr(e.value)
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Unary):
        return f"(-{to_source(e.child)})"
    if isinstance(e, Binary):
        return f"({to_source(e.left)}{e.op}{to_source(e.right)})"
    if isinstance(e, Call):
        return f"{e.name}({','.join(to_source(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")
