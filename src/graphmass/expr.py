"""Expression ASTs and a parser for user-defined scalar fields on R^n.

Grammar (whitespace insignificant)::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?       # exponent must fold to a constant
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

Identifiers ``x1`` .. ``xn`` are coordinates, ``r`` is the distance to the
origin, ``sqrt exp log sin cos`` are functions, and any other identifier is
a named parameter bound at evaluation time.  Power exponents are restricted
to constant subexpressions so derivative propagation stays closed-form.

One walk, :func:`evaluate`, gives values (order 0), jets (order 2 or 3, with
the jet operations of ``jets``) and the parser's constant exponents, all
checked by one set of domain rules, ``DOMAIN_RULES``.  The only
order-dependent rule: jets reject ``sqrt`` at 0 and ``r`` at the origin,
where the slope is infinite.  Order 0 applies no derivative rule, so
differences of values stay an independent check of the jet rules.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, UnboundParameterError
from .quad import norm_sq

FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos")

_COORD_RE = re.compile(r"^x([0-9]+)$")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Coord(Expr):
    index: int  # 1-based


@dataclass(frozen=True)
class Radial(Expr):
    pass


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        if m.lastgroup is None:  # pure whitespace tail
            break
        start = m.start(m.lastgroup)
        tokens.append(_Token(m.lastgroup, m.group(m.lastgroup), start))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}",
                             tok.pos)

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.advance()
            exp_node = self.unary()
            try:
                exponent = const_fold(exp_node)
            except DomainError as err:
                raise ParseError(f"power exponent: {err}", caret.pos) from None
            if exponent is None:
                raise ParseError("power exponent must be a constant", caret.pos)
            return Pow(base, exponent)
        return base

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "ident":
            return self.ident(tok)
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.pos)

    def ident(self, tok: _Token) -> Expr:
        name = tok.text
        is_call = self.peek().kind == "op" and self.peek().text == "("
        if is_call:
            if name not in FUNCTIONS:
                raise ParseError(f"unknown function {name!r}", tok.pos)
            self.advance()
            arg = self.expr()
            self.expect_op(")")
            return Call(name, arg)
        if name in FUNCTIONS:
            raise ParseError(f"function name {name!r} used without arguments",
                             tok.pos)
        m = _COORD_RE.match(name)
        if m is not None:
            index = int(m.group(1))
            if not 1 <= index <= self.n:
                raise ParseError(
                    f"coordinate {name!r} out of range for dimension {self.n}",
                    tok.pos)
            return Coord(index)
        if name == "r":
            return Radial()
        return Param(name)


def parse(text: str, n: int) -> Expr:
    """Parse ``text`` as an expression over R^n."""
    if n < 1:
        raise ParseError(f"dimension must be >= 1, got {n}", 0)
    return _Parser(text, n).parse()


def power(v, c: float):
    """``np.power(v, c)``, bit-equal to it for v >= 0.  For an integral c it
    raises |v| and restores the sign for odd c: ``np.power`` is about 20x
    slower on a negative base, and the two agree to roundoff there."""
    if not float(c).is_integer():
        return np.power(v, c)
    p = np.power(np.abs(v), c)
    return np.copysign(p, v) if c % 2 else p


# The operations of values: the leaves take the points, shape (..., n), and
# the order; "value" reads what the domain rules check.  Sums, differences,
# products, quotients and negation are the result's own operators.
VALUES = {
    "const": lambda v, pts, order: np.broadcast_to(
        v, pts.shape[:-1]).astype(float),
    "coord": lambda pts, i, order: pts[..., i],
    "radius_sq": lambda pts, order: norm_sq(pts),
    "value": lambda v: v, "^": power, "sqrt": np.sqrt, "exp": np.exp,
    "log": np.log, "sin": np.sin, "cos": np.cos}


# The domain rules: per operation ("/", "^" with exponent c, a function),
# the argument values v it rejects at an order k (0 for values), and why.
DOMAIN_RULES = {
    "/": [(lambda v, c, k: v == 0.0, "division by zero")],
    "log": [(lambda v, c, k: v <= 0.0, "log of a non-positive value")],
    "sqrt": [(lambda v, c, k: v < 0.0, "sqrt of a negative value"),
             (lambda v, c, k: k > 0 and v == 0.0,
              "infinite slope of sqrt at 0")],
    "^": [(lambda v, c, k: not float(c).is_integer() and v <= 0.0,
           "non-integer power of a non-positive value"),
          (lambda v, c, k: c < 0 and v == 0.0, "negative power of zero")],
}


def evaluate(node: Expr, params: dict[str, float] | None, points,
             order: int = 0, ops: dict = VALUES):
    """The expression at a batch of points, shape (..., n): values at
    order 0 with ``VALUES``, jets at order 2 or 3 with a table of jet
    operations of the same keys.  Raises DomainError naming the
    subexpression that leaves its domain."""
    pts = np.asarray(points, float)
    bindings = params or {}

    def checked(e: Expr, op: str, arg, c: float = 0.0):
        v = ops["value"](arg)
        for rejects, reason in DOMAIN_RULES.get(op, ()):
            bad = rejects(v, c, order)  # a bool where the rule short-circuits
            if bad.any() if isinstance(bad, np.ndarray) else bad:
                raise DomainError(f"{reason} in '{to_text(e)}'")
        return arg

    def walk(e: Expr):
        match e:
            case Num(v):
                return ops["const"](v, pts, order)
            case Coord(i):
                return ops["coord"](pts, i - 1, order)
            case Radial():
                q = ops["radius_sq"](pts, order)
                return ops["sqrt"](checked(e, "sqrt", q))
            case Param(name):
                if name not in bindings:
                    raise UnboundParameterError(
                        f"parameter {name!r} is not bound")
                return ops["const"](bindings[name], pts, order)
            case Neg(a):
                return -walk(a)
            case Add(a, b):
                return walk(a) + walk(b)
            case Sub(a, b):
                return walk(a) - walk(b)
            case Mul(a, b):
                return walk(a) * walk(b)
            case Div(a, b):
                return walk(a) / checked(e, "/", walk(b))
            case Pow(a, c):
                return ops["^"](checked(e, "^", walk(a), c), c)
            case Call(fn, a):
                return ops[fn](checked(e, fn, walk(a)))
        raise TypeError(f"not an expression node: {e!r}")

    return walk(node)


def const_fold(node: Expr) -> float | None:
    """Value of a constant subexpression, or None if it involves variables;
    DomainError if it leaves a domain or is not finite."""
    if free_symbols(node):
        return None
    # the one point of R^0; an overflow, and a NaN it leads to, is
    # reported as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(evaluate(node, None, np.zeros(0)))
    if not math.isfinite(value):
        raise DomainError(f"'{to_text(node)}' is not finite")
    return value


def free_symbols(node: Expr) -> frozenset[Expr]:
    """The distinct variable leaves of an expression: its ``Coord``,
    ``Radial`` and ``Param`` nodes."""
    leaves: set[Expr] = set()

    def walk(e: Expr) -> None:
        match e:
            case Coord() | Radial() | Param():
                leaves.add(e)
            case Neg(a) | Call(_, a):
                walk(a)
            case Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b):
                walk(a)
                walk(b)
            case Pow(a, _):
                walk(a)

    walk(node)
    return frozenset(leaves)


_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_text(node: Expr) -> str:
    """Render an expression; ``parse(to_text(e), n)`` reproduces ``e``."""
    text, _ = _render(node)
    return text


def _render(node: Expr) -> tuple[str, int]:
    def wrap(child: Expr, minimum: int) -> str:
        text, prec = _render(child)
        return f"({text})" if prec < minimum else text

    match node:
        case Num(v):
            if v < 0:  # negative literal behaves like a unary minus
                return _fmt_number(v), _PREC_UNARY
            return _fmt_number(v), _PREC_ATOM
        case Coord(i):
            return f"x{i}", _PREC_ATOM
        case Radial():
            return "r", _PREC_ATOM
        case Param(name):
            return name, _PREC_ATOM
        case Neg(a):
            return f"-{wrap(a, _PREC_UNARY)}", _PREC_UNARY
        case Call(fn, a):
            text, _ = _render(a)
            return f"{fn}({text})", _PREC_ATOM
        case Add(a, b):
            return f"{wrap(a, _PREC_ADD)} + {wrap(b, _PREC_ADD + 1)}", _PREC_ADD
        case Sub(a, b):
            return f"{wrap(a, _PREC_ADD)} - {wrap(b, _PREC_ADD + 1)}", _PREC_ADD
        case Mul(a, b):
            return f"{wrap(a, _PREC_MUL)}*{wrap(b, _PREC_MUL + 1)}", _PREC_MUL
        case Div(a, b):
            return f"{wrap(a, _PREC_MUL)}/{wrap(b, _PREC_MUL + 1)}", _PREC_MUL
        case Pow(a, e):
            exp_text = _fmt_number(e)
            if e < 0:
                exp_text = f"({exp_text})"
            return f"{wrap(a, _PREC_ATOM)}^{exp_text}", _PREC_POW
    raise TypeError(f"not an expression node: {node!r}")
