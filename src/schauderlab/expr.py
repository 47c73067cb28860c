"""Small expression language for coefficient and data fields.

Grammar (EBNF)::

    expr   = term , { ( "+" | "-" ) , term } ;
    term   = unary , { ( "*" | "/" ) , unary } ;
    unary  = "-" , unary | power ;
    power  = atom , [ "^" , unary ] ;
    atom   = NUMBER | IDENT | IDENT , "(" , expr , { "," , expr } , ")"
           | "(" , expr , ")" ;

Identifiers: ``t``, ``x1``, ``x2``, ``x3``.  Functions: ``exp``, ``sin``,
``cos``, ``abs``, ``sqrt`` (one argument), ``step`` (one argument, value 1
where the argument is >= 0 and 0 elsewhere, so coefficients may be merely
measurable in t), ``min``, ``max`` (two arguments).

Precedence, tightest first: ``^``, unary ``-``, ``* /``, ``+ -``.
``+ - * /`` associate to the left, ``^`` to the right (the exponent may
carry a unary minus, as in ``2^-2``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError

__all__ = [
    "Num", "Var", "Unary", "Binary", "Call", "ExprNode",
    "parse_expr", "to_string", "eval_field", "evaluate", "GridField",
    "free_vars", "max_x_index", "num", "neg", "call", "clamp",
]

VARIABLES = ("t", "x1", "x2", "x3")
FUNCTIONS = {"exp": 1, "sin": 1, "cos": 1, "abs": 1, "sqrt": 1,
             "step": 1, "min": 2, "max": 2}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # only "neg"
    arg: "ExprNode"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    lhs: "ExprNode"
    rhs: "ExprNode"


@dataclass(frozen=True)
class Call:
    fn: str
    args: Tuple["ExprNode", ...]


ExprNode = Union[Num, Var, Unary, Binary, Call]


# ---------------------------------------------------------------------------
# construction helpers (used when building expressions programmatically)

def num(v):
    return Num(float(v))


def neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    return Unary("neg", a)


def call(fn, *args):
    if fn not in FUNCTIONS:
        raise ExprSyntaxError(f"unknown function {fn!r}", 0)
    if len(args) != FUNCTIONS[fn]:
        raise ExprSyntaxError(f"function {fn!r} takes {FUNCTIONS[fn]} argument(s)", 0)
    return Call(fn, tuple(args))


def clamp(e, lo, hi):
    """max(lo, min(e, hi)) as an AST; used for coefficient truncation."""
    return call("max", num(lo), call("min", e, num(hi)))


# ---------------------------------------------------------------------------
# tokenizer / parser

_NUM_START = set("0123456789.")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_BODY = _IDENT_START | set("0123456789")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def error(self, msg, offset=None):
        raise ExprSyntaxError(msg, self.i if offset is None else offset)

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i] in " \t\r\n":
            self.i += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.i += 1

    def parse(self):
        node = self.parse_expr()
        self.skip_ws()
        if self.i < len(self.text):
            self.error(f"unexpected character {self.text[self.i]!r}")
        return node

    def parse_expr(self):
        node = self.parse_term()
        while True:
            ch = self.peek()
            if ch and ch in "+-":
                self.i += 1
                node = Binary(ch, node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_unary()
        while True:
            ch = self.peek()
            if ch and ch in "*/":
                self.i += 1
                node = Binary(ch, node, self.parse_unary())
            else:
                return node

    def parse_unary(self):
        if self.peek() == "-":
            self.i += 1
            arg = self.parse_unary()
            # fold a negated literal into the literal itself so that
            # parse(print(ast)) is stable
            if isinstance(arg, Num):
                return Num(-arg.value)
            return Unary("neg", arg)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == "^":
            self.i += 1
            return Binary("^", base, self.parse_unary())
        return base

    def parse_atom(self):
        ch = self.peek()
        if ch == "(":
            self.i += 1
            node = self.parse_expr()
            self.expect(")")
            return node
        if ch in _NUM_START:
            return self.parse_number()
        if ch in _IDENT_START:
            return self.parse_ident()
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")

    def parse_number(self):
        start = self.i
        t = self.text
        n = len(t)
        while self.i < n and t[self.i].isdigit():
            self.i += 1
        if self.i < n and t[self.i] == ".":
            self.i += 1
            while self.i < n and t[self.i].isdigit():
                self.i += 1
        if self.i < n and t[self.i] in "eE":
            j = self.i + 1
            if j < n and t[j] in "+-":
                j += 1
            if j < n and t[j].isdigit():
                self.i = j
                while self.i < n and t[self.i].isdigit():
                    self.i += 1
        lit = t[start:self.i]
        try:
            val = float(lit)
        except ValueError:
            self.error(f"malformed number {lit!r}", start)
        if not np.isfinite(val):
            self.error(f"number literal {lit!r} overflows", start)
        return Num(val)

    def parse_ident(self):
        start = self.i
        t = self.text
        while self.i < len(t) and t[self.i] in _IDENT_BODY:
            self.i += 1
        name = t[start:self.i]
        if self.peek() == "(":
            if name not in FUNCTIONS:
                self.error(f"unknown function {name!r}", start)
            self.i += 1
            args = [self.parse_expr()]
            while self.peek() == ",":
                self.i += 1
                args.append(self.parse_expr())
            self.expect(")")
            if len(args) != FUNCTIONS[name]:
                self.error(
                    f"function {name!r} takes {FUNCTIONS[name]} argument(s), got {len(args)}",
                    start)
            return Call(name, tuple(args))
        if name in VARIABLES:
            return Var(name)
        if name in FUNCTIONS:
            self.error(f"function {name!r} requires an argument list", start)
        self.error(f"unknown identifier {name!r}", start)


def parse_expr(text):
    """Parse ``text`` into an AST. Raises ExprSyntaxError with a byte offset."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node):
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary):
        return _PREC["neg"]
    if isinstance(node, Num) and np.signbit(node.value):
        return _PREC["neg"]  # prints with a leading minus (including -0.0)
    return 5


def to_string(node):
    """Render an AST with minimal parentheses; parse(to_string(a)) reproduces
    the AST for any parser-produced a."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        inner = to_string(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(to_string(a) for a in node.args)})"
    if isinstance(node, Binary):
        op = node.op
        p = _PREC[op]
        left = to_string(node.lhs)
        right = to_string(node.rhs)
        if op == "^":
            if _prec(node.lhs) <= p:
                left = f"({left})"
            # right operand of ^ is parsed as a unary expression, so any
            # precedence >= neg needs no parentheses
            if _prec(node.rhs) < _PREC["neg"]:
                right = f"({right})"
            return f"{left}{op}{right}"
        if _prec(node.lhs) < p:
            left = f"({left})"
        if _prec(node.rhs) <= p:
            right = f"({right})"
        return f"{left} {op} {right}"
    raise TypeError(f"not an ExprNode: {node!r}")


# ---------------------------------------------------------------------------
# evaluation

def _check(arr, node, what="non-finite result"):
    if not np.all(np.isfinite(arr)):
        raise ExprEvalError(what, to_string(node))
    return arr


def _children(n):
    if isinstance(n, (Num, Var)):
        return ()
    if isinstance(n, Unary):
        return (n.arg,)
    if isinstance(n, Binary):
        return (n.lhs, n.rhs)
    if isinstance(n, Call):
        return n.args
    raise TypeError(f"not an ExprNode: {n!r}")


def _apply(n, args, shape):
    """Value of the operator node ``n`` from the values of its children,
    which broadcast to ``shape``.  Domain errors and non-finite results
    raise ExprEvalError naming ``n``."""
    if isinstance(n, Unary):
        return -args[0]
    if isinstance(n, Binary):
        a, b = args
        if n.op == "+":
            return _check(a + b, n)
        if n.op == "-":
            return _check(a - b, n)
        if n.op == "*":
            return _check(a * b, n)
        if n.op == "/":
            if np.any(b == 0.0):
                raise ExprEvalError("division by zero", to_string(n))
            return _check(a / b, n)
        if n.op == "^":
            # numpy computes x^2, x^0.5 and x^-1 with a stride-0 exponent by
            # other routines than pow, which differ in the last bit; full
            # operands give every caller the same pow
            if a.shape != shape:
                a = np.broadcast_to(a, shape).copy()
            if b.shape != shape:
                b = np.broadcast_to(b, shape).copy()
            with np.errstate(invalid="ignore", over="ignore",
                             divide="ignore"):
                out = np.power(a, b)
            return _check(out, n, "invalid power (negative base with "
                                  "fractional exponent, or overflow)")
    if isinstance(n, Call):
        fn = n.fn
        if fn == "exp":
            with np.errstate(over="ignore"):
                return _check(np.exp(args[0]), n, "exp overflow")
        if fn == "sin":
            return np.sin(args[0])
        if fn == "cos":
            return np.cos(args[0])
        if fn == "abs":
            return np.abs(args[0])
        if fn == "sqrt":
            if np.any(args[0] < 0.0):
                raise ExprEvalError("sqrt of negative number", to_string(n))
            return np.sqrt(args[0])
        if fn == "step":
            return np.where(args[0] >= 0.0, 1.0, 0.0)
        if fn == "min":
            return np.minimum(args[0], args[1])
        if fn == "max":
            return np.maximum(args[0], args[1])
    raise TypeError(f"not an ExprNode: {n!r}")


def evaluate(node, t, xs):
    """Evaluate ``node`` at time ``t`` and spatial coordinates ``xs``.

    ``t`` is a scalar or array, ``xs`` a sequence of per-axis scalars or
    arrays (xs[0] is x1 and so on); all inputs must broadcast together.
    Returns a float64 array broadcast to the common shape.  Domain errors
    (division by zero, sqrt of a negative number, non-finite results) raise
    ExprEvalError naming the offending subexpression.
    """
    t_arr = np.asarray(t, dtype=float)
    x_arrs = [np.asarray(x, dtype=float) for x in xs]
    shape = np.broadcast_shapes(t_arr.shape, *[x.shape for x in x_arrs]) \
        if x_arrs else t_arr.shape

    def ev(n):
        if isinstance(n, Num):
            return np.full(shape, n.value)
        if isinstance(n, Var):
            if n.name == "t":
                return np.broadcast_to(t_arr, shape).astype(float)
            idx = int(n.name[1]) - 1
            if idx >= len(x_arrs):
                raise ExprEvalError(
                    f"variable {n.name} outside dimension {len(x_arrs)}", n.name)
            return np.broadcast_to(x_arrs[idx], shape).astype(float)
        return _apply(n, [ev(k) for k in _children(n)], shape)

    return ev(node)


_TIME = object()  # the variable t in a GridField spine


class GridField:
    """Expression ``node`` on the mesh of ``grid`` as a function of t.

    Built once per (node, grid): each maximal subtree that does not read t
    is evaluated once on the mesh by ``evaluate`` and kept, as one value when
    it reads no x either.  A call walks only the spine of nodes that read t,
    with t as a 0-d array, and returns a new array of shape ``grid.shape``
    equal bit for bit to ``evaluate(node, t, grid.mesh())`` broadcast to the
    grid.  On an ExprEvalError, while building or in a call, it falls back
    to ``evaluate`` itself, so errors and their messages are the tree walk's.
    """

    def __init__(self, node, grid):
        self.node = node
        self.mesh = grid.mesh()
        self.shape = grid.shape
        try:
            spine = self._spine(node)
            self.plan = self._hoist(node) if spine is None else spine
        except ExprEvalError:
            self.plan = None

    def _hoist(self, n):
        value = evaluate(n, 0.0, self.mesh)
        return np.asarray(value.flat[0]) if max_x_index(n) == 0 else value

    def _spine(self, n):
        """None when ``n`` does not read t; otherwise _TIME for t itself, or
        (n, plans of its children) with each t-free child's value in place
        of its plan."""
        if isinstance(n, Var) and n.name == "t":
            return _TIME
        kids = _children(n)
        plans = [self._spine(k) for k in kids]
        if all(p is None for p in plans):
            return None
        return (n, [self._hoist(k) if p is None else p
                    for k, p in zip(kids, plans)])

    def _walk(self, plan, t):
        if type(plan) is tuple:
            n, kids = plan
            return _apply(n, [self._walk(k, t) for k in kids], self.shape)
        return t if plan is _TIME else plan

    def __call__(self, t):
        t = np.asarray(float(t))
        out = np.empty(self.shape)
        if self.plan is not None:
            try:
                out[...] = self._walk(self.plan, t)
                return out
            except ExprEvalError:
                pass
        out[...] = evaluate(self.node, t, self.mesh)
        return out


def eval_field(node, t, x):
    """Evaluate at a single point; ``x`` is a sequence of coordinates."""
    out = evaluate(node, t, [np.asarray(xi, dtype=float) for xi in np.atleast_1d(x)])
    return float(out)


# ---------------------------------------------------------------------------
# structural queries

def free_vars(node):
    if isinstance(node, Num):
        return set()
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return free_vars(node.arg)
    if isinstance(node, Binary):
        return free_vars(node.lhs) | free_vars(node.rhs)
    if isinstance(node, Call):
        out = set()
        for a in node.args:
            out |= free_vars(a)
        return out
    raise TypeError(f"not an ExprNode: {node!r}")


def max_x_index(node):
    """Largest k with xk appearing in the expression (0 if none)."""
    idxs = [int(v[1]) for v in free_vars(node) if v.startswith("x")]
    return max(idxs, default=0)
