"""Tokenizer, recursive-descent parser and evaluator for scalar expressions.

One compiled pattern reads the tokens, a named group per kind.  Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-' factor) | power
    power  := atom ('^' factor)?
    atom   := number | identifier | identifier '(' expr (',' expr)* ')'
              | '(' expr ')'

``expr`` and ``term`` are parsed by one left-associative loop.
Evaluation runs over float, DualScalar or traced bindings, so parsed
potentials are differentiated by the same machinery as builtin
Hamiltonians: ``numcore.grad`` traces and compiles them once.
"""

import re
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

# One pattern reads every token, its group naming the kind: a number (ASCII
# digits with an optional fraction and exponent), an identifier (a letter or
# '_', then letters, digits and '_'), an operator, a parenthesis or a comma.
# Whitespace, as ``str.isspace`` has it, separates tokens.
_SPACE = re.compile(r"\s*")
_TOKEN = re.compile(
    r"(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<identifier>[^\W\d]\w*)"
    r"|(?P<operator>[-+*/^])|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)"
)
_KINDS = dict(
    number=NUMBER, identifier=IDENT, operator=OPERATOR, lparen=LPAREN, rparen=RPAREN, comma=COMMA
)


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


def tokenize(text: str) -> list:
    """Longest-match tokenization; whitespace separates, anything else lexes.
    The identifier group also admits a first character that is a digit but
    not a decimal one (``²``, ``½``): that one is illegal, tested apart."""
    tokens = []
    i = _SPACE.match(text).end()
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None or m.lastgroup == "identifier" and not (text[i].isalpha() or text[i] == "_"):
            raise ExprError(f"illegal character {text[i]!r}", i)
        tokens.append(Token(_KINDS[m.lastgroup], m.group(), i))
        i = _SPACE.match(text, m.end()).end()
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


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}  # of the binary operators but '^'


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

    def expr(self, floor=1):
        """expr and term as one left-associative loop: it takes operators of
        precedence ``floor`` or more, each with a right operand that takes
        only the tighter ones."""
        parsed = self.factor()
        while (tok := self.peek()) is not None and _PRECEDENCE.get(tok.text, 0) >= floor:
            self.next()
            parsed = self.binary(tok, parsed, self.expr(_PRECEDENCE[tok.text] + 1))
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
    if isinstance(e, Constant):
        return set()
    raise TypeError(f"not an expression node: {e!r}")


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
