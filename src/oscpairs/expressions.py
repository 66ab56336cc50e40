"""Arithmetic expression trees over a single variable x.

Grammar (prose precedence: '^' is right-associative and binds tighter
than unary minus, so ``-x^2`` means ``-(x^2)``)::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := '-' factor | power
    power   := primary ('^' factor)?
    primary := number | ident | ident '(' expr ')' | '(' expr ')'

Named parameters are folded into constants at parse time, so a parsed
tree is a function of x alone.  A tree is evaluated only by its numpy
walk (`compile_tree`), where a fault (a singular or undefined point, or
an overflow) is a non-finite value, not an error.  Derivatives are built
symbolically by rewriting the tree; they are never approximated by
finite differences.
"""

from collections import namedtuple

import numpy as np

from .errors import ParameterError, ParseError

# ---------------------------------------------------------------------------
# nodes

class Node:
    __slots__ = ()

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
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def deriv(self):
        return neg(self.a.deriv())

    def __repr__(self):
        return f"Neg({self.a!r})"


class Add(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def deriv(self):
        return add(self.a.deriv(), self.b.deriv())

    def __repr__(self):
        return f"Add({self.a!r}, {self.b!r})"


class Sub(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def deriv(self):
        return sub(self.a.deriv(), self.b.deriv())

    def __repr__(self):
        return f"Sub({self.a!r}, {self.b!r})"


class Mul(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def deriv(self):
        return add(mul(self.a.deriv(), self.b), mul(self.a, self.b.deriv()))

    def __repr__(self):
        return f"Mul({self.a!r}, {self.b!r})"


class Div(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def deriv(self):
        num = sub(mul(self.a.deriv(), self.b), mul(self.a, self.b.deriv()))
        return div(num, pow_(self.b, Num(2.0)))

    def __repr__(self):
        return f"Div({self.a!r}, {self.b!r})"


class Pow(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def deriv(self):
        if isinstance(self.b, Num):
            n = self.b.value
            return mul(mul(Num(n), pow_(self.a, Num(n - 1.0))), self.a.deriv())
        # general a^b: a^b * (b' log a + b a'/a); requires a > 0 at evaluation
        inner = add(mul(self.b.deriv(), Call("log", self.a)),
                    div(mul(self.b, self.a.deriv()), self.a))
        return mul(pow_(self.a, self.b), inner)

    def __repr__(self):
        return f"Pow({self.a!r}, {self.b!r})"


class Call(Node):
    __slots__ = ("fname", "a")

    def __init__(self, fname, a):
        self.fname, self.a = fname, a

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
            with np.errstate(all="ignore"):
                value = np.power(a.value, b.value)
            if np.isfinite(value):
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
            op = self.advance()[0]
            rhs = self.term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def factor(self):
        if self.peek()[0] == "-":
            self.advance()
            return neg(self.factor())
        return self.power()

    def power(self):
        base = self.primary()
        if self.peek()[0] == "^":
            self.advance()
            return pow_(base, self.factor())
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
                return Call(value, arg)
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
# A tree compiles into one numpy array function, a walk of the tree whose
# cost is dominated by numpy on whole meshes.  It is the only evaluator
# of a parsed q: a model's scalar forms are it at one point.


def _fin(t, ok):
    """Clear ok where t is not finite: such a point is a fault of q."""
    ok &= np.isfinite(t)
    return t


def _pw(base, expo, ok):
    # numpy's power has the rules of the grammar: 0^p = 0 and 0^0 = 1, and
    # 0^-p (inf) and a negative base under a fractional power (nan) are
    # faults
    ok &= np.isfinite(expo)
    return _fin(np.power(base, expo), ok)


_NP_BINOPS = {Add: np.add, Sub: np.subtract, Mul: np.multiply}


def _array_eval(node, x, ok):
    """node over a 1-d array x with numpy.  Every checked or library
    result passes through `_fin`, which clears `ok` where it is not
    finite: a domain fault, an overflow, or a fault hidden by a later
    operation (1/(1/x) at 0 is finite in numpy)."""
    if isinstance(node, Num):  # numpy scalar: 1/0 must not raise here
        return np.float64(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_array_eval(node.a, x, ok)
    if isinstance(node, Call):
        return _fin(_FUNCTIONS[node.fname].array(_array_eval(node.a, x, ok)), ok)
    a = _array_eval(node.a, x, ok)
    b = _array_eval(node.b, x, ok)
    if isinstance(node, Div):
        return _fin(a / b, ok)
    if isinstance(node, Pow):
        return _pw(a, b, ok)
    return _NP_BINOPS[type(node)](a, b)


def compile_tree(tree):
    """Compile a tree into its numpy array function of x, of any shape.

    A point where a checked intermediate is not finite (division by zero,
    log of a non-positive value, a negative base under a fractional
    power, an overflow) is a fault of q and gives nan there; no error is
    raised and no numpy warning is issued.
    """
    def array(xs):
        xs = np.asarray(xs, dtype=float)
        flat = xs.reshape(-1)
        ok = np.ones(flat.shape, dtype=bool)
        with np.errstate(all="ignore"):
            out = _array_eval(tree, flat, ok)
        if out is flat or np.ndim(out) == 0:  # q = x, or q free of x
            out = np.array(np.broadcast_to(out, flat.shape))
        if not ok.all():
            out[~ok] = np.nan
        return out.reshape(xs.shape)

    return array
