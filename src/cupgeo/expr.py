"""Arithmetic expressions over chart coordinates.

Grammar (``^`` is right-associative and binds tighter than unary minus)::

    expr   : term (('+' | '-') term)*
    term   : unary (('*' | '/') unary)*
    unary  : '-' unary | power
    power  : atom ('^' unary)?
    atom   : NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Known functions: exp, log, sqrt, sin, cos.  Any other identifier is a free
variable, resolved against the evaluation environment.  Evaluation runs a
compiled :class:`Program`, which several expressions can share.

A field's jets come from :meth:`Program.jet_parts`: the program is
unrolled, once per derivative order, into one generated Python function of
straight-line code, one statement per value and per partial that is not
zero by structure, with the formulas and the association order of the
:class:`~cupgeo.jets.Jet` arithmetic.  It runs on plain floats at one point
and on row arrays for a batch, and gives the numbers the jets give, up to
the sign of a zero; both routes add 0.0 to every entry, so no entry is a
negative zero and a field's jet does not depend on the route that served
it.  The generated source holds only its own register names, indices into a
tuple of constants and the names of a fixed table of value-level
operations, never text of an expression.  Unrolled code is kept in one
process-wide memo keyed by the program's instructions, so rebuilt models
reuse it.  A program's first request at an order, and every request of a
program past :data:`STATEMENT_BUDGET`, is evaluated by :meth:`Program.run`
on jets instead.
"""

import functools
import operator
from collections import OrderedDict

import numpy as np

from . import jets
from .errors import DomainError, EvaluationError, ExpressionError

_FUNCTIONS = {
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
    "sin": jets.sin,
    "cos": jets.cos,
}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(source):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExpressionError(f"bad number {text!r}", position=i) from None
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", position=i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            got = tok.text or "end of input"
            raise ExpressionError(f"expected {kind!r}, got {got!r}", position=tok.pos)
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected {tok.text!r}", position=tok.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "-":
            self.next()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.next()
            node = ("^", node, self.unary())
        return node

    def atom(self):
        tok = self.next()
        if tok.kind == "num":
            return ("num", float(tok.text))
        if tok.kind == "ident":
            if self.peek().kind == "(":
                if tok.text not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {tok.text!r}", position=tok.pos)
                self.next()
                arg = self.expr()
                self.expect(")")
                return ("call", tok.text, arg)
            return ("var", tok.text)
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        got = tok.text or "end of input"
        raise ExpressionError(f"unexpected {got!r}", position=tok.pos)


def parse(source):
    """Parse ``source`` into an AST; raises ExpressionError with a position."""
    if not source.strip():
        raise ExpressionError("empty expression", position=0)
    parser = _Parser(source)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionError("expression nests too deeply", position=parser.peek().pos) from None


_OPS = {**_FUNCTIONS, "+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "^": jets.power, "neg": operator.neg}

# A program that unrolls into more statements than this evaluates on jets
# instead.  Unrolling and compiling cost some 20 us a statement, paid once per
# program and order, so the budget bounds that first-evaluation cost near 0.1 s.
STATEMENT_BUDGET = 5_000
# Keys (program, coordinate names, order) kept process-wide.  The benchmark
# workloads request 16 (suite-default), 46 (pointwise: 3 models, each with
# metric, skewness, densities, couplings and potentials) and 4 (estimate-mc)
# distinct keys, so at 64 none of them evicts a key: each is unrolled once.
COMPILED_MEMO_SIZE = 64


class Program:
    """ASTs compiled into one straight-line program of jet operations.

    The ASTs are hash-consed: each distinct subtree, in one AST or across
    several, gets one slot holding a number, a variable from the environment,
    or one operation on earlier slots, and is computed once per run.
    """

    def __init__(self, asts):
        self._slots = {}
        self._init = []  # a number's value per slot, None for the others
        self.loads = []  # (slot, variable name)
        self.code = []  # (slot, operation, argument slots)
        self.outputs = [self._emit(ast) for ast in asts]

    @functools.cached_property
    def key(self):
        """The instructions as one string, the unrolled-code memo's key: a
        string hashes once and compares by content, and repr keeps every
        number exactly."""
        return repr((self._init, self.loads, self.code, self.outputs))

    def _emit(self, root):
        """The slot of ``root``, each subtree emitted after its own subtrees,
        left to right.  The walk keeps its own stack, so a sum of any length
        (a left-deep tree, as deep as the sum is long) compiles."""
        nodes, todo, slots = [], [root], {}
        while todo:  # preorder, right subtree first: reversed, a left-first postorder
            nodes.append(todo.pop())
            todo.extend(arg for arg in nodes[-1][1:] if isinstance(arg, tuple))
        for node in reversed(nodes):
            kind = node[0]
            args = tuple(slots[id(arg)] for arg in node[1:] if isinstance(arg, tuple))
            key = (node[1] if kind == "call" else kind,) + args if args else node
            slot = self._slots.get(key)
            if slot is None:
                slot = self._slots[key] = len(self._init)
                self._init.append(node[1] if kind == "num" else None)
                if kind == "var":
                    self.loads.append((slot, node[1]))
                elif kind != "num":
                    self.code.append((slot, key[0], key[1:]))
            slots[id(node)] = slot
        return slots[id(root)]

    def run(self, env):
        """The value of every AST in ``env`` (name -> number or jet), in order."""
        regs = list(self._init)
        for slot, name in self.loads:
            try:
                regs[slot] = env[name]
            except KeyError:
                raise EvaluationError(f"unbound variable {name!r}") from None
        for slot, op, args in self.code:
            regs[slot] = _OPS[op](*[regs[a] for a in args])
        return [regs[slot] for slot in self.outputs]

    def jet_parts(self, coord_names, coords, order):
        """Per order k, the k-th parts of every output's jet at ``coords``, the
        variables being ``coord_names``.

        ``coords`` is one point (shape ``(n,)``) or a ``(P, n)`` batch; part
        k has the batch axes, one axis over the outputs, then k axes of
        length n.  The unrolled code of :func:`_unrolled` computes them, or,
        for a request it does not serve, :meth:`run` on seeded jets.  The two
        agree bitwise up to the sign of a zero, and both add 0.0 to every
        entry, so the parts are the same whichever route gives them.
        """
        x = np.asarray(coords, dtype=float)
        code = _unrolled(self, tuple(coord_names), order)
        return code(x) if code is not None else self._stacked_jets(coord_names, x, order)

    def _stacked_jets(self, coord_names, x, order):
        """Per order k, the outputs' k-th parts by :meth:`run`, stacked after the batch axes."""
        values = self.run(dict(zip(coord_names, jets.seed(x, order))))
        batch = x.shape[:-1]
        parts = []
        for k in range(order + 1):
            shape = batch + (x.shape[-1],) * k
            parts.append(np.stack([v.deriv(k) if isinstance(v, jets.Jet)
                                   else np.full(shape, v if k == 0 else 0.0) for v in values],
                                  axis=len(batch)) + 0.0)
        return parts


# -- unrolled jet code ----------------------------------------------------------
#
# A program's jets, unrolled for one order into straight-line code on plain
# floats (one point) or row arrays (a batch): the value and each mixed partial
# of every slot get their own statement, with the formulas, and the
# association order, of the Jet arithmetic, so each entry is the number the
# jets compute.  A partial that is zero by structure (of a slot that does not
# depend on the variable) is dropped, and a product with a seeded 1.0 is not
# formed.  The jets compute a dropped partial as 0.0 or -0.0 and add it to
# others, so an entry may differ from theirs in the sign of a zero, and in
# nothing else; adding 0.0 to every entry of both routes makes them equal.
# Numbers are folded while unrolling with the same operations the jets use; a
# number that raises (1/0, log(-1)) leaves the program to the jets, which
# raise it in order.  The code keeps the statements of the jets
# that may raise on plain floats at any order (the 1/v of sqrt, the divisions
# of a negative integer power), so at one point it raises the same
# ZeroDivisionError where they do.


def _ones(v):
    """The value of ``v ** 0`` for a jet value, as :meth:`jets.Jet.__pow__` gives it."""
    return np.ones(np.shape(v)) if np.ndim(v) else 1.0


# The only names the generated code calls: value-level jet operations, which
# take a float or an array alike.
_CODE_OPS = {"exp": jets.exp, "log": jets.log, "sqrt": jets.sqrt, "sin": jets.sin,
             "cos": jets.cos, "power": jets._power, "powbase": jets._require_power_base,
             "ones": _ones}


class _OverBudget(Exception):
    pass


class _JetSlot:
    """A jet slot while unrolling: its value and partials as code names.

    ``d1`` maps a variable index, ``d2`` a sorted index pair, to a name or a
    number; a partial missing from them is zero by structure.
    """

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1, d2):
        self.v, self.d1, self.d2 = v, d1, d2


class _Unroller:
    """Statements for one program's jets to ``order``, one per distinct expression."""

    def __init__(self, order):
        self.order = order
        self.lines = []
        self.names = {}  # statement right-hand side -> the name holding it
        self.negated = {}  # name of -a -> a
        self.consts = []
        self.const_index = {}

    def const(self, c):
        key = c.hex()
        if key not in self.const_index:
            self.const_index[key] = len(self.consts)
            self.consts.append(c)
        return f"k{self.const_index[key]}"

    def atom(self, a):
        return self.const(a) if isinstance(a, float) else a

    def emit(self, rhs):
        name = self.names.get(rhs)
        if name is None:
            if len(self.lines) >= STATEMENT_BUDGET:
                raise _OverBudget
            name = self.names[rhs] = f"t{len(self.lines)}"
            self.lines.append(f"{name} = {rhs}")
        return name

    def call(self, op, *args):
        return self.emit(f"{op}({', '.join(map(self.atom, args))})")

    # -- entries: a code name, a number, or None for a structural zero ----------

    def mul(self, a, b):
        if a is None or b is None:
            return None
        if isinstance(a, float) and isinstance(b, float):
            return a * b
        for one, other in ((a, b), (b, a)):
            if isinstance(one, float) and one in (1.0, -1.0):  # exact: only a sign changes
                return other if one == 1.0 else self.neg(other)
        return self.emit(" * ".join(sorted((self.atom(a), self.atom(b)))))

    def add(self, a, b):
        if a is None or b is None:
            return b if a is None else a
        if isinstance(a, float) and isinstance(b, float):
            return a + b
        return self.emit(" + ".join(sorted((self.atom(a), self.atom(b)))))

    def sub(self, a, b):
        if a is None or b is None:
            return self.neg(b) if a is None else a
        if isinstance(a, float) and isinstance(b, float):
            return a - b  # x + (-y), as the jets subtract, rounds alike
        return self.emit(f"{self.atom(a)} - {self.atom(b)}")

    def neg(self, a):
        if a is None or isinstance(a, float):
            return a if a is None else -a
        if a in self.negated:
            return self.negated[a]
        name = self.emit(f"-{a}")
        self.negated[name] = a
        return name

    def power(self, v, p):
        """``jets._power(v, p)`` of a code name: integer powers square and multiply."""
        if not float(p).is_integer():
            return self.call("power", v, p)
        k = abs(int(p))
        if k == 0:
            return 1.0
        out = None
        while True:
            if k & 1:
                out = v if out is None else self.mul(out, v)
            k >>= 1
            if not k:
                return self.emit(f"{self.const(1.0)} / {out}") if p < 0 else out
            v = self.mul(v, v)

    # -- jet slots -----------------------------------------------------------------

    def _pairs(self, d1a, d1b):
        return {(min(i, j), max(i, j)) for i in d1a for j in d1b}

    def jet_add(self, f, g, combine):
        d1 = {i: combine(f.d1.get(i), g.d1.get(i)) for i in sorted(f.d1.keys() | g.d1.keys())}
        d2 = {ij: combine(f.d2.get(ij), g.d2.get(ij)) for ij in sorted(f.d2.keys() | g.d2.keys())}
        return _JetSlot(combine(f.v, g.v), d1, d2)

    def scale(self, f, c, value):
        """``f`` times the number ``c``, with the value ``value``."""
        return _JetSlot(value, {i: self.mul(c, d) for i, d in f.d1.items()},
                        {ij: self.mul(c, d) for ij, d in f.d2.items()})

    def jet_mul(self, f, g):
        d1, d2 = {}, {}
        if self.order >= 1:
            for i in sorted(f.d1.keys() | g.d1.keys()):
                d1[i] = self.add(self.mul(f.v, g.d1.get(i)), self.mul(g.v, f.d1.get(i)))
        if self.order >= 2:
            keys = f.d2.keys() | g.d2.keys() | self._pairs(f.d1, g.d1)
            for i, j in sorted(keys):
                near = self.add(self.mul(f.v, g.d2.get((i, j))), self.mul(g.v, f.d2.get((i, j))))
                cross = self.mul(f.d1.get(i), g.d1.get(j))
                cross_t = cross if i == j else self.mul(f.d1.get(j), g.d1.get(i))
                d2[i, j] = self.add(near, self.add(cross, cross_t))
        return _JetSlot(self.mul(f.v, g.v), d1, d2)

    def compose(self, f, c0, c1, c2):
        """The chain rule through phi, given phi(v), phi'(v), phi''(v) as in ``Jet._compose``."""
        d1, d2 = {}, {}
        if self.order >= 1:
            d1 = {i: self.mul(c1, d) for i, d in f.d1.items()}
        if self.order >= 2:
            for i, j in sorted(f.d2.keys() | self._pairs(f.d1, f.d1)):
                outer = self.mul(f.d1.get(i), f.d1.get(j))
                d2[i, j] = self.add(self.mul(c2, outer), self.mul(c1, f.d2.get((i, j))))
        return _JetSlot(c0, d1, d2)

    def reciprocal(self, f):
        inv = self.emit(f"{self.const(1.0)} / {f.v}")
        c1 = c2 = None
        if self.order >= 1:
            sq = self.mul(inv, inv)
            c1 = self.neg(sq)
            if self.order >= 2:
                c2 = self.mul(2.0, self.mul(inv, sq))
        return self.compose(f, inv, c1, c2)

    def jet_pow(self, f, e):
        if e == 0.0:
            return _JetSlot(self.call("ones", f.v), {}, {})
        if e == 1.0:
            return f
        if not e.is_integer():
            self.call("powbase", f.v, e)
        # a negative integer power divides in all three, which may raise at any order
        every = e.is_integer() and e < 0.0
        c1 = c2 = None
        c0 = self.power(f.v, e)
        if self.order >= 1 or every:
            c1 = self.mul(e, self.power(f.v, e - 1))
        if self.order >= 2 or every:
            c2 = self.mul(e * (e - 1), self.power(f.v, e - 2))
        return self.compose(f, c0, c1, c2)

    def function(self, name, f):
        if name == "exp":
            v = self.call("exp", f.v)
            return self.compose(f, v, v, v)
        if name == "log":
            value = self.call("log", f.v)  # checks the domain first, as jets.log does
            inv = self.emit(f"{self.const(1.0)} / {f.v}") if self.order >= 1 else None
            c2 = self.neg(self.mul(inv, inv)) if self.order >= 2 else None
            return self.compose(f, value, inv, c2)
        if name == "sqrt":
            r = self.call("sqrt", f.v)
            inv = self.emit(f"{self.const(1.0)} / {f.v}")  # raises at 0 on a float, at any order
            c1 = self.mul(self.mul(0.5, r), inv) if self.order >= 1 else None
            c2 = self.mul(self.mul(self.mul(-0.25, r), inv), inv) if self.order >= 2 else None
            return self.compose(f, r, c1, c2)
        s = self.call("sin", f.v) if name == "sin" or self.order >= 1 else None
        c = self.call("cos", f.v) if name == "cos" or self.order >= 1 else None
        if name == "sin":
            return self.compose(f, s, c, self.neg(s) if self.order >= 2 else None)
        return self.compose(f, c, self.neg(s), self.neg(c) if self.order >= 2 else None)

    def op(self, op, args):
        """The slot ``op(*args)``: a number when every argument is one, else a jet."""
        if not any(isinstance(a, _JetSlot) for a in args):
            return float(_OPS[op](*args))
        if op in _FUNCTIONS:
            return self.function(op, args[0])
        if op == "neg":
            return self.scale(args[0], -1.0, self.neg(args[0].v))
        f, g = args
        if op == "+":
            if not isinstance(f, _JetSlot):
                f, g = g, f
            if not isinstance(g, _JetSlot):
                return _JetSlot(self.add(f.v, g), f.d1, f.d2)
            return self.jet_add(f, g, self.add)
        if op == "-":
            if not isinstance(g, _JetSlot):
                return _JetSlot(self.sub(f.v, g), f.d1, f.d2)
            if not isinstance(f, _JetSlot):  # (-g) + f
                return self.scale(g, -1.0, self.sub(f, g.v))
            return self.jet_add(f, g, self.sub)
        if op == "*":
            if not isinstance(f, _JetSlot):
                f, g = g, f
            if not isinstance(g, _JetSlot):
                return self.scale(f, g, self.mul(f.v, g))
            return self.jet_mul(f, g)
        if op == "/":
            if not isinstance(g, _JetSlot):
                c = 1.0 / g
                return self.scale(f, c, self.mul(f.v, c))
            inv = self.reciprocal(g)
            if not isinstance(f, _JetSlot):
                return self.scale(inv, f, self.mul(inv.v, f))
            return self.jet_mul(f, inv)
        # "^": a jet exponent goes through exp(e log b), as Jet.__pow__ and __rpow__ do
        if not isinstance(g, _JetSlot):
            return self.jet_pow(f, g)
        if not isinstance(f, _JetSlot):
            log_base = float(np.log(f))
            return self.function("exp", self.scale(g, log_base, self.mul(g.v, log_base)))
        return self.function("exp", self.jet_mul(g, self.function("log", f)))


class Expression:
    """A parsed expression that keeps its source text verbatim.

    Calling it with a map from variable names to numbers or jets runs its
    one-output :class:`Program`; ``source`` names it in error messages.
    """

    def __init__(self, source):
        self.source = source
        self.ast = parse(source)
        self.program = Program([self.ast])
        self.variables = frozenset(name for _, name in self.program.loads)

    def __call__(self, env):
        return self.program.run(env)[0]

    def __repr__(self):
        return f"Expression({self.source!r})"


class _Unrolled:
    """A program's jets unrolled for one order: the generated function, its
    constants, per order a table gathering each distinct output slot's
    entries, and each output's row among those slots.

    The function returns the entries computed at run time; the constant
    entries, and last a 0.0 for the structural zeros, follow them in the
    vector the tables index.  The tables are kept per distinct slot, not per
    output: entries often repeat one expression (every off-diagonal entry of
    a multinomial metric is the same), so an output table of a dimension-32
    metric would hold 529 rows of 32 x 32 indices for 33 distinct ones.
    """

    __slots__ = ("fn", "consts", "width", "tail", "tables", "rows")

    def __init__(self, fn, consts, width, tail, tables, rows):
        self.fn, self.consts, self.width, self.tail = fn, consts, width, tail
        self.tables, self.rows = tables, rows

    def __call__(self, x):
        """Per order k, every output's k-th parts at ``x``, stacked after the batch axes."""
        if x.ndim == 1:
            entries = np.array(self.fn(x.tolist(), self.consts) + self.tail) + 0.0
            return [entries[t][self.rows] for t in self.tables]
        entries = np.empty((len(x), self.width + len(self.tail)))
        if self.width:
            entries[:, :self.width] = np.array(self.fn(x.T, self.consts)).T
        entries[:, self.width:] = self.tail
        entries += 0.0
        # take, unlike entries[:, t], returns the parts in C order, batch axis first
        return [np.take(np.take(entries, t, axis=1), self.rows, axis=1) for t in self.tables]


def _unroll(program, coord_names, order):
    """``program``'s jets to ``order`` as an :class:`_Unrolled`, or None if it
    is left to the jets: over :data:`STATEMENT_BUDGET`, a number that raises,
    or a variable outside ``coord_names``."""
    n = len(coord_names)
    index = {name: i for i, name in enumerate(coord_names)}
    regs = list(program._init)
    for slot, name in program.loads:
        if name not in index:
            return None
        regs[slot] = _JetSlot(f"x{index[name]}", {index[name]: 1.0} if order >= 1 else {}, {})
    unroller = _Unroller(order)
    try:
        with np.errstate(all="ignore"):
            for slot, op, args in program.code:
                regs[slot] = unroller.op(op, [regs[a] for a in args])
    except (_OverBudget, ArithmeticError, DomainError):
        return None

    slots, rows = np.unique(program.outputs, return_inverse=True)
    # (order, table index, entry) for every entry of a distinct output slot
    # that is not zero by structure; a second partial fills both of its
    # mirrored places
    cells = []
    for r, slot in enumerate(slots):
        reg = regs[slot]
        if not isinstance(reg, _JetSlot):
            cells.append((0, (r,), reg))
            continue
        cells.append((0, (r,), reg.v))
        cells.extend((1, (r, i), e) for i, e in reg.d1.items())
        for (i, j), e in reg.d2.items():
            cells.extend(((2, (r, i, j), e), (2, (r, j, i), e)))
    computed = list(dict.fromkeys(e for _, _, e in cells if isinstance(e, str)))
    tail = list({e.hex(): e for _, _, e in cells if isinstance(e, float)}.values()) + [0.0]
    position = {name: i for i, name in enumerate(computed)}
    position.update({c.hex(): len(computed) + i for i, c in enumerate(tail)})
    zero = len(computed) + len(tail) - 1
    tables = [np.full((len(slots),) + (n,) * k, zero, dtype=np.intp)
              for k in range(order + 1)]
    for k, at, e in cells:
        tables[k][at] = position[e if isinstance(e, str) else e.hex()]

    unpack = [f"{', '.join(f'x{i}' for i in range(n))}, = X"]
    if unroller.consts:
        unpack.append(f"{', '.join(f'k{i}' for i in range(len(unroller.consts)))}, = K")
    body = unpack + unroller.lines + [f"return ({', '.join(computed)}{',' if computed else ''})"]
    namespace = dict(_CODE_OPS)
    exec(compile("def unrolled(X, K):\n    " + "\n    ".join(body), "<unrolled jets>", "exec"),
         namespace)
    return _Unrolled(namespace["unrolled"], tuple(unroller.consts), len(computed), tuple(tail),
                     tables, rows)


_memo = OrderedDict()  # (program key, coordinate names, order) -> _Unrolled, None or _SEEN
_SEEN = "requested once"


def _unrolled(program, coord_names, order):
    """The unrolled code of ``program``'s jets to ``order``, or None to use
    the jets, from a process-wide LRU memo of :data:`COMPILED_MEMO_SIZE` keys.

    The key is the program's instructions, so the models that a suite pass
    rebuilds find the code unrolled for the last pass.  A key's first
    request is left to the jets and only a second one unrolls, so a program
    evaluated once (a one-off query) never pays for unrolling.  The memo
    takes no lock: it is not safe to use from more than one thread.
    """
    key = (program.key, coord_names, order)
    try:
        _memo.move_to_end(key)
    except KeyError:
        _memo[key] = _SEEN
        if len(_memo) > COMPILED_MEMO_SIZE:
            _memo.popitem(last=False)
        return None
    if _memo[key] is _SEEN:
        _memo[key] = _unroll(program, coord_names, order)
    return _memo[key]
