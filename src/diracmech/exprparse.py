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


class _Parser:
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

    def expr(self):
        node = self.term()
        while self.at_operator("+", "-"):
            op = self.next().text
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.at_operator("*", "/"):
            op = self.next().text
            node = Binary(op, node, self.factor())
        return node

    def factor(self):
        if self.at_operator("-"):
            self.next()
            return Unary("-", self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        if self.at_operator("^"):
            self.next()
            node = Binary("^", node, self.factor())
        return node

    def atom(self):
        tok = self.next()
        if tok.kind == NUMBER:
            return Constant(float(tok.text))
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
                return Call(tok.text, tuple(args))
            return Variable(tok.text)
        if tok.kind == LPAREN:
            node = self.expr()
            self.expect(RPAREN)
            return node
        raise ExprError(f"unexpected token {tok.text!r}", tok.position)


def parse(tokens: Sequence, length: int | None = None) -> ExprNode:
    """Parse a token stream produced by ``tokenize``; consumes it fully."""
    tokens = list(tokens)
    if not tokens:
        raise ExprError("empty expression", 0)
    if length is None:
        last = tokens[-1]
        length = last.position + len(last.text)
    p = _Parser(tokens, length)
    node = p.expr()
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
