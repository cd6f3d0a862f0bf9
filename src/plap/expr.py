"""Tiny closed expression grammar for weight fields.

Grammar (highest precedence first):

    power   :=  atom [ '^' unary ]          (right associative)
    unary   :=  '-' unary | power
    term    :=  unary (('*' | '/') unary)*
    expr    :=  term (('+' | '-') term)*
    atom    :=  NUMBER | 'x' | 'y' | func '(' expr {',' expr} ')' | '(' expr ')'

so '-2^2' is -(2^2) and '2^3^2' is 2^(3^2).  Functions: sin, cos, exp, abs,
step (Heaviside, 1 for arguments >= 0), min, max, and bump(center, radius),
the smooth compactly supported profile exp(-1/(1-t^2)) with
t = |x - center|/radius inside the support and 0 outside (it reads the
evaluation point's x coordinate).  No user-defined functions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError

__all__ = ["parse_expr", "eval_expr", "eval_expr_array", "format_expr"]

_FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "abs": 1, "step": 1, "min": 2, "max": 2, "bump": 2}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(src) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_pos)
        if m.group("number") is not None:
            tokens.append(("number", float(m.group("number")), m.start("number")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.src))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}", pos)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected trailing token {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                node = Bin(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return Bin("^", node, self.unary())
        return node

    def atom(self):
        kind, val, pos = self.take()
        if kind == "number":
            return Num(val)
        if kind == "ident":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                if val not in _FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", pos)
                self.take()
                args = [self.expr()]
                while True:
                    k, v, p = self.peek()
                    if k == "op" and v == ",":
                        self.take()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != _FUNCTIONS[val]:
                    raise ParseError(
                        f"function {val!r} takes {_FUNCTIONS[val]} argument(s), got {len(args)}", pos
                    )
                return Call(val, tuple(args))
            if val in ("x", "y"):
                return Var(val)
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_expr(src):
    """Parse an expression string into an AST; raises ParseError with position."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    return _Parser(src).parse()


def _power(base, expo):
    if base == 0.0 and expo < 0:
        raise EvalError("0 raised to a negative power")
    if base < 0.0 and expo != int(expo):
        raise EvalError(f"negative base {base} with non-integer exponent {expo}")
    return base**expo


def eval_expr(ast, x, y=None):
    """Evaluate the AST at a point; 1D evaluation leaves y undefined."""
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Var):
        if ast.name == "x":
            return float(x)
        if y is None:
            raise EvalError("variable y is undefined on a 1D mesh")
        return float(y)
    if isinstance(ast, Neg):
        return -eval_expr(ast.child, x, y)
    if isinstance(ast, Bin):
        lhs = eval_expr(ast.left, x, y)
        rhs = eval_expr(ast.right, x, y)
        if ast.op == "+":
            return lhs + rhs
        if ast.op == "-":
            return lhs - rhs
        if ast.op == "*":
            return lhs * rhs
        if ast.op == "/":
            if rhs == 0.0:
                raise EvalError("division by zero")
            return lhs / rhs
        return _power(lhs, rhs)
    name, args = ast.name, [eval_expr(a, x, y) for a in ast.args]
    if name == "sin":
        return math.sin(args[0])
    if name == "cos":
        return math.cos(args[0])
    if name == "exp":
        return math.exp(args[0])
    if name == "abs":
        return abs(args[0])
    if name == "step":
        return 1.0 if args[0] >= 0.0 else 0.0
    if name == "min":
        return min(args)
    if name == "max":
        return max(args)
    # bump(center, radius): smooth, compactly supported, reads the x coordinate
    center, radius = args
    if radius <= 0.0:
        raise EvalError(f"bump radius must be positive, got {radius}")
    t = abs(float(x) - center) / radius
    if t >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - t * t))


def eval_expr_array(ast, x, y=None):
    """eval_expr at every point of the coordinate arrays x (and y), as one float array.

    Each node is evaluated once on whole arrays.  A point where any node meets
    an EvalError condition or takes a non-finite value (the only points where
    eval_expr can raise) is evaluated again by eval_expr, in point order, so
    the first offending point raises exactly what eval_expr raises there.
    Elsewhere the values agree with eval_expr up to the last-bit rounding of
    exp and powers.
    """
    x = np.asarray(x, dtype=float)
    y = None if y is None else np.asarray(y, dtype=float)
    suspect = np.zeros(x.shape, dtype=bool)
    with np.errstate(all="ignore"):
        vals = np.array(np.broadcast_to(_eval_array(ast, x, y, suspect), x.shape), dtype=float)
    for k in np.flatnonzero(suspect):
        vals[k] = eval_expr(ast, x[k], None if y is None else y[k])
    return vals


def _eval_array(ast, x, y, suspect):
    """Array evaluation for eval_expr_array; marks suspect points in place."""
    if isinstance(ast, Num):
        out = ast.value
    elif isinstance(ast, Var):
        if ast.name == "x":
            out = x
        elif y is None:
            suspect[:] = True  # eval_expr raises at the first point
            out = 0.0
        else:
            out = y
    elif isinstance(ast, Neg):
        out = -_eval_array(ast.child, x, y, suspect)
    elif isinstance(ast, Bin):
        lhs = _eval_array(ast.left, x, y, suspect)
        rhs = _eval_array(ast.right, x, y, suspect)
        if ast.op == "+":
            out = np.add(lhs, rhs)
        elif ast.op == "-":
            out = np.subtract(lhs, rhs)
        elif ast.op == "*":
            out = np.multiply(lhs, rhs)
        elif ast.op == "/":
            suspect |= rhs == 0.0
            out = np.divide(lhs, rhs)
        else:
            suspect |= ((lhs == 0.0) & (rhs < 0)) | ((lhs < 0.0) & (rhs != np.trunc(rhs)))
            out = np.power(lhs, rhs)
    else:
        args = [_eval_array(a, x, y, suspect) for a in ast.args]
        name = ast.name
        if name == "sin":
            out = np.sin(args[0])
        elif name == "cos":
            out = np.cos(args[0])
        elif name == "exp":
            out = np.exp(args[0])
        elif name == "abs":
            out = np.abs(args[0])
        elif name == "step":
            out = np.where(args[0] >= 0.0, 1.0, 0.0)
        elif name == "min":  # min(a, b) is a unless b < a, as in eval_expr
            out = np.where(args[1] < args[0], args[1], args[0])
        elif name == "max":
            out = np.where(args[1] > args[0], args[1], args[0])
        else:
            center, radius = args
            suspect |= radius <= 0.0
            t = np.abs(x - center) / radius
            out = np.where(t >= 1.0, 0.0, np.exp(-1.0 / (1.0 - t * t)))
    suspect |= ~np.isfinite(out)
    return out


def format_expr(ast):
    """Fully parenthesized text form; parse_expr(format_expr(a)) evaluates like a."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        return f"(-{format_expr(ast.child)})"
    if isinstance(ast, Bin):
        return f"({format_expr(ast.left)} {ast.op} {format_expr(ast.right)})"
    return f"{ast.name}({', '.join(format_expr(a) for a in ast.args)})"
