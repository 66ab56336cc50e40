"""Arithmetic expression trees over a single variable x.

Grammar (prose precedence: '^' is right-associative and binds tighter
than unary minus, so ``-x^2`` means ``-(x^2)``)::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := '-' factor | power
    power   := primary ('^' factor)?
    primary := number | ident | ident '(' expr ')' | '(' expr ')'

Named parameters are folded into constants at parse time, so a parsed
tree is a function of x alone.  A tree is evaluated only through
`compile_tree`, which turns it once into numpy closures, and where a
fault (a singular or undefined point, or an overflow) is nan, not an
error.  Derivatives are built symbolically by rewriting the tree; they
are never approximated by finite differences.  The parser, the
derivatives and the compiler recurse, so an expression nested deeper than
_MAX_NESTING, or a tree deeper than MAX_DEPTH, is refused with a
ParseError.
"""

import functools
import math
import operator
from collections import namedtuple

import numpy as np

from .errors import ParameterError, ParseError

# ---------------------------------------------------------------------------
# nodes

class Node:
    """A node of a tree; depth is the number of levels below it, which the
    derivative, the compiler and the compiled closures each recurse
    through (MAX_DEPTH)."""
    __slots__ = ()
    depth = 0

    def deriv(self):
        raise NotImplementedError


class Num(Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def deriv(self):
        return Num(0.0)

    def __repr__(self):
        return f"Num({self.value!r})"


class Var(Node):
    __slots__ = ()

    def deriv(self):
        return Num(1.0)

    def __repr__(self):
        return "Var(x)"


class Neg(Node):
    __slots__ = ("a", "depth")

    def __init__(self, a):
        self.a, self.depth = a, a.depth + 1

    def deriv(self):
        return neg(self.a.deriv())

    def __repr__(self):
        return f"Neg({self.a!r})"


class _Binary(Node):
    __slots__ = ("a", "b", "depth")

    def __init__(self, a, b):
        self.a, self.b, self.depth = a, b, max(a.depth, b.depth) + 1

    def __repr__(self):
        return f"{type(self).__name__}({self.a!r}, {self.b!r})"


class Add(_Binary):
    __slots__ = ()

    def deriv(self):
        return add(self.a.deriv(), self.b.deriv())


class Sub(_Binary):
    __slots__ = ()

    def deriv(self):
        return sub(self.a.deriv(), self.b.deriv())


class Mul(_Binary):
    __slots__ = ()

    def deriv(self):
        if isinstance(self.a, Num):  # (c u)' = c u'
            return mul(self.a, self.b.deriv())
        return add(mul(self.a.deriv(), self.b), mul(self.a, self.b.deriv()))


class Div(_Binary):
    __slots__ = ()

    def deriv(self):
        num = sub(mul(self.a.deriv(), self.b), mul(self.a, self.b.deriv()))
        return div(num, pow_(self.b, Num(2.0)))


class Pow(_Binary):
    __slots__ = ()

    def deriv(self):
        if isinstance(self.b, Num):
            n = self.b.value
            return mul(mul(Num(n), pow_(self.a, Num(n - 1.0))), self.a.deriv())
        # general a^b: a^b * (b' log a + b a'/a); requires a > 0 at evaluation
        inner = add(mul(self.b.deriv(), Call("log", self.a)),
                    div(mul(self.b, self.a.deriv()), self.a))
        return mul(pow_(self.a, self.b), inner)


class Call(Node):
    __slots__ = ("fname", "a", "depth")

    def __init__(self, fname, a):
        self.fname, self.a, self.depth = fname, a, a.depth + 1

    def deriv(self):
        return _FUNCTIONS[self.fname].deriv(self.a, self.a.deriv())

    def __repr__(self):
        return f"Call({self.fname!r}, {self.a!r})"


# ---------------------------------------------------------------------------
# simplifying constructors (keep derivative trees small)

def neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def add(a, b):
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a, b):
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    if isinstance(a, Num):
        if a.value == 0.0:
            return Num(0.0)
        if a.value == 1.0:
            return b
        if isinstance(b, Mul) and isinstance(b.a, Num):
            # c (d u) = (c d) u, where c d neither overflows nor vanishes
            cd = a.value * b.a.value
            if cd != 0.0 and math.isfinite(cd):
                return mul(Num(cd), b.b)
    if isinstance(b, Num):
        if b.value == 0.0:
            return Num(0.0)
        if b.value == 1.0:
            return a
    return Mul(a, b)


def div(a, b):
    if isinstance(b, Num):
        if b.value == 0.0:
            return Div(a, b)  # division by zero is a fault when evaluated
        if b.value == 1.0:
            return a
    if isinstance(a, Num):
        if a.value == 0.0:
            return Num(0.0)
        if isinstance(b, Num):
            return Num(a.value / b.value)
    return Div(a, b)


def pow_(a, b):
    if isinstance(b, Num):
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return Num(1.0)
        if isinstance(a, Num):
            # fold only a finite power; a domain fault (or an overflow)
            # stays in the tree and is non-finite when evaluated
            value = _compile(Pow(a, b))
            if math.isfinite(value):
                return Num(value)
    return Pow(a, b)


# ---------------------------------------------------------------------------
# functions of the grammar

# array: the numpy form, non-finite at a domain fault; deriv: (a, a') ->
# the tree of f(a)'
_Function = namedtuple("_Function", "array deriv")

_FUNCTIONS = {
    "sin": _Function(np.sin, lambda a, da: mul(Call("cos", a), da)),
    "cos": _Function(np.cos, lambda a, da: neg(mul(Call("sin", a), da))),
    "exp": _Function(np.exp, lambda a, da: mul(Call("exp", a), da)),
    "log": _Function(np.log, lambda a, da: div(da, a)),
    "sqrt": _Function(np.sqrt, lambda a, da: div(da, mul(Num(2.0), Call("sqrt", a)))),
    # d|u| = u/|u| * u'; it is a fault (nan) at u = 0, as it should be
    "abs": _Function(np.abs, lambda a, da: div(mul(a, da), Call("abs", a))),
}
FUNCTIONS = tuple(_FUNCTIONS)


# ---------------------------------------------------------------------------
# tokenizer / parser

_OPS = "+-*/^()"
# The deepest tree of q, q' or q'' (Node.depth).  The derivative, the
# compiler and the compiled closures recurse once per level, and a fresh
# `oscpairs analyze` runs out of Python's stack at about 980 levels; the
# limit is half that, for the deeper stack of a caller.
MAX_DEPTH = 490
# Parentheses, function calls, unary minus signs and exponents each nest
# the parser five rules deeper, so it nests at most a fifth as deep.
_MAX_NESTING = MAX_DEPTH // 5


def shallow(tree, offset=0, what="it"):
    """tree, refused with a ParseError at offset where it is deeper than
    MAX_DEPTH; what names it in the message."""
    if tree.depth > MAX_DEPTH:
        raise ParseError(f"expression too deep: {what} has {tree.depth} levels, "
                         f"above the limit of {MAX_DEPTH}", offset)
    return tree


def _tokenize(text):
    """Return a list of (kind, value, offset) tokens; kinds are
    'num', 'ident', one of the operator characters, and 'end'."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad number literal {text[i:j]!r}", i) from None
            if math.isinf(value):
                raise ParseError(f"number literal {text[i:j]!r} overflows", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, params):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.params = params
        self.read = set()  # the parameters the text reads
        self.nesting = 0  # parentheses, calls, signs and exponents around the factor

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, offset = self.advance()
            rhs = self.term()
            node = shallow(add(node, rhs) if op == "+" else sub(node, rhs), offset)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.advance()
            rhs = self.factor()
            node = shallow(mul(node, rhs) if op == "*" else div(node, rhs), offset)
        return node

    def factor(self):
        # every rule the parser recurses by passes here once per level
        kind, _, offset = self.peek()
        if self.nesting > _MAX_NESTING:
            raise ParseError(f"expression nested deeper than {_MAX_NESTING} levels", offset)
        self.nesting += 1
        if kind == "-":
            self.advance()
            node = shallow(neg(self.factor()), offset)
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self):
        base = self.primary()
        kind, _, offset = self.peek()
        if kind == "^":
            self.advance()
            return shallow(pow_(base, self.factor()), offset)
        return base

    def primary(self):
        kind, value, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(value)
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset)
                self.advance()
                arg = self.expr()
                self.expect(")")
                return shallow(Call(value, arg), offset)
            if value == "x":
                return Var()
            if value in self.params:
                self.read.add(value)
                return Num(float(self.params[value]))
            raise ParseError(f"unbound identifier {value!r}", offset)
        raise ParseError(f"expected a value, found {value!r}", offset)


def parse_expression(text, params=None):
    """Parse ``text`` into a tree; named parameters are substituted.

    A parameter that ``text`` never reads, or one named x (x always reads
    as the variable), would be ignored, so it raises ParameterError."""
    parser = _Parser(text, dict(params or {}))
    tree = parser.parse()
    unused = sorted(set(parser.params) - parser.read)
    if unused:
        note = "; x is the variable" if "x" in unused else ""
        raise ParameterError(f"{text!r}: unused parameter(s) {unused}{note}")
    return tree


# ---------------------------------------------------------------------------
# compilation
#
# A tree compiles once into nested closures over 1-d arrays, one per node
# that reads x; a subtree free of x is evaluated once, when compiled.  A
# fault is carried as nan: every result that can be one (a quotient, a
# power, a function value) is checked and is nan where it is not finite,
# and every later operation keeps a nan but numpy's power (nan^0 = 1^nan
# = 1), which _power corrects.


def _checked(op, *args):
    """op(*args), nan where it is not finite: a fault of q, also one a
    later operation would hide (1/(1/x) at 0 is finite in numpy)."""
    t = op(*args)
    # a sum of squares is finite when every term is, unless it overflows
    if math.isfinite(t.dot(t)):
        return t
    return np.where(np.isfinite(t), t, np.nan)


def _power(a, b):
    return np.where(np.isnan(a) | ~np.isfinite(b), np.nan, _checked(np.power, a, b))


_x = operator.pos  # Var compiled: +x, a copy; _bind hands x itself to an operation
_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
               Div: functools.partial(_checked, operator.truediv), Pow: _power}
_CHECKED = {name: functools.partial(_checked, f.array) for name, f in _FUNCTIONS.items()}


def _compile(node):
    """node as a function of a 1-d array x, or as its value (a numpy
    float, so that 1/0 is inf) where node is free of x."""
    kind = type(node)
    if kind is Num:
        return np.float64(node.value)
    if kind is Var:
        return _x
    if kind is Call or kind is Neg:
        return _bind(_CHECKED[node.fname] if kind is Call else operator.neg,
                     _compile(node.a))
    b = node.b
    if kind is Pow and type(b) is Num and math.isfinite(b.value) and b.value != 0.0:
        e = b.value  # `a ** e` with e a float: numpy's square, sqrt, reciprocal
        return _bind(lambda a: _checked(operator.pow, a, e), _compile(node.a))
    return _bind(_ARITHMETIC[kind], _compile(node.a), _compile(b))


def _bind(op, *parts):
    """op of the compiled parts as a function of x, or its value where no part reads x."""
    if not any(map(callable, parts)):
        with np.errstate(all="ignore"):
            return op(*(np.full(1, p) for p in parts))[0]
    if len(parts) == 1:
        (f,) = parts
        return op if f is _x else lambda x: op(f(x))
    f, g = parts
    if not callable(f):
        return (lambda x: op(f, x)) if g is _x else lambda x: op(f, g(x))
    if not callable(g):
        return (lambda x: op(x, g)) if f is _x else lambda x: op(f(x), g)
    return lambda x: op(f(x), g(x))


@np.errstate(all="ignore")
def _evaluate(body, xs):
    xs = np.asarray(xs, dtype=float)
    return body(xs) if xs.ndim == 1 else body(xs.reshape(-1)).reshape(xs.shape)


def compile_tree(tree):
    """Compile a tree once into its numpy array function of x (any shape).

    A point where a checked intermediate is not finite (division by zero,
    log of a non-positive value, a negative base under a fractional
    power, an overflow) is a fault of q and gives nan there; no error is
    raised and no numpy warning is issued.  A tree deeper than MAX_DEPTH
    raises ParseError.
    """
    body = _compile(shallow(tree))
    if not callable(body):  # q free of x
        return lambda xs: np.full(np.shape(xs), body)
    return functools.partial(_evaluate, body)
