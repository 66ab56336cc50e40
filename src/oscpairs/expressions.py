"""Arithmetic expression trees over a single variable x.

Grammar (prose precedence: '^' is right-associative and binds tighter
than unary minus, so ``-x^2`` means ``-(x^2)``)::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := '-' factor | power
    power   := primary ('^' factor)?
    primary := number | ident | ident '(' expr ')' | '(' expr ')'

Named parameters are folded into constants at parse time, so a parsed
tree is a function of x alone.  Derivatives are built symbolically by
rewriting the tree; they are never approximated by finite differences.
"""

import math

import numpy as np

from .errors import EvaluationError, ParseError

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")


# ---------------------------------------------------------------------------
# nodes

class Node:
    __slots__ = ()

    def eval(self, x):
        raise NotImplementedError

    def deriv(self):
        raise NotImplementedError


class Num(Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def eval(self, x):
        return self.value

    def deriv(self):
        return Num(0.0)

    def __repr__(self):
        return f"Num({self.value!r})"


class Var(Node):
    __slots__ = ()

    def eval(self, x):
        return x

    def deriv(self):
        return Num(1.0)

    def __repr__(self):
        return "Var(x)"


class Neg(Node):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def eval(self, x):
        return -self.a.eval(x)

    def deriv(self):
        return neg(self.a.deriv())

    def __repr__(self):
        return f"Neg({self.a!r})"


class Add(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, x):
        return self.a.eval(x) + self.b.eval(x)

    def deriv(self):
        return add(self.a.deriv(), self.b.deriv())

    def __repr__(self):
        return f"Add({self.a!r}, {self.b!r})"


class Sub(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, x):
        return self.a.eval(x) - self.b.eval(x)

    def deriv(self):
        return sub(self.a.deriv(), self.b.deriv())

    def __repr__(self):
        return f"Sub({self.a!r}, {self.b!r})"


class Mul(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, x):
        return self.a.eval(x) * self.b.eval(x)

    def deriv(self):
        return add(mul(self.a.deriv(), self.b), mul(self.a, self.b.deriv()))

    def __repr__(self):
        return f"Mul({self.a!r}, {self.b!r})"


class Div(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, x):
        den = self.b.eval(x)
        if den == 0.0:
            raise EvaluationError(f"division by zero at x = {x!r}")
        return self.a.eval(x) / den

    def deriv(self):
        num = sub(mul(self.a.deriv(), self.b), mul(self.a, self.b.deriv()))
        return div(num, pow_(self.b, Num(2.0)))

    def __repr__(self):
        return f"Div({self.a!r}, {self.b!r})"


class Pow(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, x):
        base = self.a.eval(x)
        expo = self.b.eval(x)
        return _checked_pow(base, expo, x)

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

    def eval(self, x):
        u = self.a.eval(x)
        f = self.fname
        if f == "sin":
            return math.sin(u)
        if f == "cos":
            return math.cos(u)
        if f == "exp":
            return math.exp(u)
        if f == "log":
            if u <= 0.0:
                raise EvaluationError(f"log of non-positive value {u!r} at x = {x!r}")
            return math.log(u)
        if f == "sqrt":
            if u < 0.0:
                raise EvaluationError(f"sqrt of negative value {u!r} at x = {x!r}")
            return math.sqrt(u)
        if f == "abs":
            return abs(u)
        raise EvaluationError(f"unknown function {f!r}")

    def deriv(self):
        a, da = self.a, self.a.deriv()
        f = self.fname
        if f == "sin":
            return mul(Call("cos", a), da)
        if f == "cos":
            return neg(mul(Call("sin", a), da))
        if f == "exp":
            return mul(Call("exp", a), da)
        if f == "log":
            return div(da, a)
        if f == "sqrt":
            return div(da, mul(Num(2.0), Call("sqrt", a)))
        if f == "abs":
            # d|u| = u/|u| * u'; evaluating at u = 0 raises, as it should
            return div(mul(a, da), Call("abs", a))
        raise EvaluationError(f"unknown function {f!r}")

    def __repr__(self):
        return f"Call({self.fname!r}, {self.a!r})"


def _checked_pow(base, expo, x):
    if base > 0.0:
        return base ** expo
    if base == 0.0:
        if expo > 0.0:
            return 0.0
        if expo == 0.0:
            return 1.0
        raise EvaluationError(f"zero base with negative exponent at x = {x!r}")
    # negative base: integer exponents only
    if expo == round(expo):
        return base ** expo
    raise EvaluationError(
        f"negative base {base!r} with non-integer exponent {expo!r} at x = {x!r}")


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
            return Div(a, b)  # division by zero raises when evaluated
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
            # fold only what evaluation would compute; a domain fault
            # (or an overflow) stays in the tree and raises when evaluated
            try:
                return Num(_checked_pow(a.value, b.value, None))
            except (EvaluationError, ArithmeticError, ValueError):
                pass
    return Pow(a, b)


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
                return Num(float(self.params[value]))
            raise ParseError(f"unbound identifier {value!r}", offset)
        raise ParseError(f"expected a value, found {value!r}", offset)


def parse_expression(text, params=None):
    """Parse ``text`` into a tree; named parameters are substituted."""
    return _Parser(text, dict(params or {})).parse()


# ---------------------------------------------------------------------------
# compilation
#
# A tree compiles into its scalar tree walk and one numpy array function,
# a walk of the tree whose cost is dominated by numpy on whole meshes.


def _fin(t, ok):
    """Clear ok where t is not finite; those points go to the tree walk."""
    ok &= np.isfinite(t)
    return t


def _pw(base, expo, ok):
    # a zero base takes the tree walk too: its rules (0^-n raises,
    # (-0)^n is +0) differ from numpy's
    ok &= base != 0.0
    ok &= np.isfinite(expo)
    return _fin(np.power(base, expo), ok)


_NP_BINOPS = {Add: np.add, Sub: np.subtract, Mul: np.multiply}
_NP_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
             "sqrt": np.sqrt}


def _array_eval(node, x, ok):
    """node over a 1-d array x with numpy.  Every checked or library
    result passes through `_fin`, which clears `ok` where it is not
    finite: a domain fault, an overflow the tree walk raises for, or a
    fault hidden by a later operation (1/(1/x) at 0 is finite in numpy)."""
    if isinstance(node, Num):  # numpy scalar: 1/0 must not raise here
        return np.float64(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_array_eval(node.a, x, ok)
    if isinstance(node, Call):
        u = _array_eval(node.a, x, ok)
        if node.fname == "abs":
            return np.abs(u)
        if node.fname in _NP_CALLS:
            return _fin(_NP_CALLS[node.fname](u), ok)
        raise EvaluationError(f"unknown function {node.fname!r}")
    a = _array_eval(node.a, x, ok)
    b = _array_eval(node.b, x, ok)
    if isinstance(node, Div):
        return _fin(a / b, ok)
    if isinstance(node, Pow):
        return _pw(a, b, ok)
    return _NP_BINOPS[type(node)](a, b)


def compile_tree(tree):
    """Compile a tree into (scalar, array) functions of x.

    scalar is tree.eval.  array(xs) evaluates with numpy (within 2 ulp of
    the tree walk, as numpy's exp, log and pow may differ from libm by an
    ulp) and re-evaluates every point where a checked intermediate is not
    finite through the tree walk, which raises at a domain fault.
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
            bad = np.flatnonzero(~ok)
            out[bad] = [tree.eval(float(v)) for v in flat[bad]]
        return out.reshape(xs.shape)

    return tree.eval, array
