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
`compile_tree`, where a fault (a singular or undefined point, or an
overflow) is nan, not an error.  Derivatives are symbolic (`derivative`)
and share subtrees (that of sin(u) reads u twice), so both walk the
distinct nodes of a tree once, without recursion (`_postorder`), as in
Griewank & Walther, Evaluating Derivatives (2008).  Only the parser
recurses, to at most _MAX_NESTING levels.
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
    """A node of a tree: children are the nodes it reads, and
    deriv(*derivatives of the children) builds its derivative."""
    __slots__ = ()
    children = ()

    def __repr__(self):  # iterative: a tree may be deeper than the stack
        text = {}
        for node in _postorder(self):
            text[node] = node._format(*[text[c] for c in node.children])
        return text[self]

    def _format(self, *args):
        return f"{type(self).__name__}({', '.join(args)})"


class Num(Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def deriv(self):
        return Num(0.0)

    def _format(self):
        return f"Num({self.value!r})"


class Var(Node):
    __slots__ = ()

    def deriv(self):
        return Num(1.0)

    def _format(self):
        return "Var(x)"


class Neg(Node):
    __slots__ = ("a", "children")

    def __init__(self, a):
        self.a, self.children = a, (a,)

    def deriv(self, da):
        return neg(da)


class _Binary(Node):
    __slots__ = ("a", "b", "children")

    def __init__(self, a, b):
        self.a, self.b, self.children = a, b, (a, b)


class Add(_Binary):
    __slots__ = ()

    def deriv(self, da, db):
        return add(da, db)


class Sub(_Binary):
    __slots__ = ()

    def deriv(self, da, db):
        return sub(da, db)


class Mul(_Binary):
    __slots__ = ()

    def deriv(self, da, db):
        if isinstance(self.a, Num):  # (c u)' = c u'
            return mul(self.a, db)
        return add(mul(da, self.b), mul(self.a, db))


class Div(_Binary):
    __slots__ = ()

    def deriv(self, da, db):
        return div(sub(mul(da, self.b), mul(self.a, db)), pow_(self.b, Num(2.0)))


class Pow(_Binary):
    __slots__ = ()

    def deriv(self, da, db):
        if isinstance(self.b, Num):
            n = self.b.value
            return mul(mul(Num(n), pow_(self.a, Num(n - 1.0))), da)
        # general a^b: a^b * (b' log a + b a'/a); requires a > 0 at evaluation
        return mul(self, add(mul(db, Call("log", self.a)), div(mul(self.b, da), self.a)))


class Call(Node):
    __slots__ = ("fname", "a", "children")

    def __init__(self, fname, a):
        self.fname, self.a, self.children = fname, a, (a,)

    def deriv(self, da):
        return _FUNCTIONS[self.fname].deriv(self, da)

    def _format(self, a):
        return f"Call({self.fname!r}, {a})"


def _postorder(tree):
    """The distinct nodes of tree (by identity), each after its children."""
    order, seen, stack = [], set(), [tree]
    while stack:
        node = stack.pop()
        if node is None:  # the node below has its children in order
            order.append(stack.pop())
        elif node not in seen:  # else in order already: a tree has no cycle
            seen.add(node)
            children = node.children
            if children:
                stack += (node, None, *children[::-1])
            else:
                order.append(node)
    return order


def derivative(tree):
    """The tree of d tree/dx: each distinct node's rule applied once, to
    the derivatives of its children, so that shared subtrees stay shared."""
    d = {}
    for node in _postorder(tree):
        d[node] = node.deriv(*map(d.__getitem__, node.children))
    return d[tree]


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
            op, args = _operation(Pow(a, b))
            value = _fold(op, [n.value for n in args])
            if math.isfinite(value):
                return Num(value)
    return Pow(a, b)


# ---------------------------------------------------------------------------
# functions of the grammar

# array: the numpy form, non-finite at a fault; deriv: (f(u), u') -> f(u)'
_Function = namedtuple("_Function", "array deriv")

_FUNCTIONS = {
    "sin": _Function(np.sin, lambda f, du: mul(Call("cos", f.a), du)),
    "cos": _Function(np.cos, lambda f, du: neg(mul(Call("sin", f.a), du))),
    "exp": _Function(np.exp, lambda f, du: mul(f, du)),
    "log": _Function(np.log, lambda f, du: div(du, f.a)),
    "sqrt": _Function(np.sqrt, lambda f, du: div(du, mul(Num(2.0), f))),
    # d|u| = u/|u| * u'; it is a fault (nan) at u = 0, as it should be
    "abs": _Function(np.abs, lambda f, du: div(mul(f.a, du), f)),
}
FUNCTIONS = tuple(_FUNCTIONS)


# ---------------------------------------------------------------------------
# tokenizer / parser

_OPS = "+-*/^()"
# Parentheses, calls, minus signs and exponents each nest the parser five
# rules deeper: 490 frames, half the stack of a fresh `oscpairs analyze`
_MAX_NESTING = 98


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
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.advance()
            rhs = self.factor()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def factor(self):
        # every rule the parser recurses by passes here once per level
        kind, _, offset = self.peek()
        if self.nesting > _MAX_NESTING:
            raise ParseError(f"expression nested deeper than {_MAX_NESTING} levels", offset)
        self.nesting += 1
        if kind == "-":
            self.advance()
            node = neg(self.factor())
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self):
        base = self.primary()
        kind, _, offset = self.peek()
        if kind == "^":
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

def _checked(op, *args):
    """op(*args), nan where it is not finite: a fault of q, also one a
    later operation would hide (1/(1/x) at 0 is finite in numpy).  Every
    later operation keeps a nan but numpy's power (nan^0 = 1^nan = 1),
    which _power corrects."""
    t = op(*args)
    # a sum of squares is finite when every term is, unless it overflows
    if math.isfinite(t.dot(t)):
        return t
    return np.where(np.isfinite(t), t, np.nan)


def _power(a, b):
    return np.where(np.isnan(a) | ~np.isfinite(b), np.nan, _checked(np.power, a, b))


_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
               Div: functools.partial(_checked, operator.truediv), Pow: _power}
_CHECKED = {name: functools.partial(_checked, f.array) for name, f in _FUNCTIONS.items()}


def _operation(node):
    """The numpy operation of an inner node, and the children it reads."""
    kind = type(node)
    if kind is Call or kind is Neg:
        return _CHECKED[node.fname] if kind is Call else operator.neg, (node.a,)
    b = node.b
    if kind is Pow and type(b) is Num and math.isfinite(b.value) and b.value != 0.0:
        e = b.value  # `a ** e` with e a float: numpy's square, sqrt, reciprocal
        return (lambda a: _checked(operator.pow, a, e)), (node.a,)
    return _ARITHMETIC[kind], (node.a, b)


def _swap(op, c, a):
    return op(a, c)


@np.errstate(all="ignore")
def _fold(op, values):
    """op of constants, a numpy float (so that 1/0 is inf)."""
    return op(*[np.full(1, v) for v in values])[0]


@np.errstate(all="ignore")
def _run(steps, xs):
    xs = np.asarray(xs, dtype=float)
    flat = xs.ndim == 1
    v = {0: xs if flat else xs.reshape(-1)}  # the live values by slot
    for op, i, j, out, dead in steps:
        v[out] = op(v[i]) if j is None else op(v[i], v[j])
        for k in dead:
            del v[k]
    return v[out] if flat else v[out].reshape(xs.shape)


def compile_tree(tree):
    """Compile a tree once into its numpy array function of x (any shape):
    a flat list of steps, one per distinct node that reads x, in the order
    of `_postorder`; a subtree free of x folds into a constant (a numpy
    float, so that 1/0 is inf), and a run drops each value after its last
    use.  A fault of q (_checked) is nan, with no error or numpy warning."""
    value, slot = {}, {}  # a node's value where it is free of x, else its slot
    steps, last = [], {}
    for node in _postorder(tree):
        kind = type(node)
        if kind is Num:
            value[node] = node.value
            continue
        if kind is Var:
            slot[node] = 0
            continue
        op, args = _operation(node)
        if all(map(value.__contains__, args)):
            value[node] = _fold(op, [value[a] for a in args])
            continue
        if args[0] in value:  # op(c, u), c a constant
            op, args = functools.partial(op, np.float64(value[args[0]])), args[1:]
        elif args[-1] in value:  # op(u, c)
            op, args = functools.partial(_swap, op, np.float64(value[args[1]])), args[:1]
        for a in args:
            last[slot[a]] = len(steps)
        slot[node] = len(slot) + 1
        ij = [slot[a] for a in args] + [None]
        steps.append((op, ij[0], ij[1], slot[node], []))
    if tree in value:  # q free of x
        return lambda xs: np.full(np.shape(xs), value[tree])
    if not steps:  # q = x, a copy
        steps, last = [(operator.pos, 0, None, 1, [])], {0: 0}
    for i, k in last.items():  # drop each value after its last use
        steps[k][4].append(i)
    return functools.partial(_run, steps)
