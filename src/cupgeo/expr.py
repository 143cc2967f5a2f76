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
zero by structure.  The code is generated by running :meth:`Program.run`
on :class:`~cupgeo.jets.Jet` values whose values and partials are code
names, so its formulas and association order are those of the jet
arithmetic, which has no second copy here.  It runs IEEE arithmetic at
one point as on the row arrays of a batch (a zero divisor gives inf), and
gives the numbers the jets give, up to the sign of a zero; both routes add
0.0 to every entry, so no entry is a negative zero and a field's jet does
not depend on the route that served it.  The generated source holds only
its own variable names; the numbers and the functions it calls come in a
tuple, never as text of an expression.  Unrolled code is kept in one
process-wide memo keyed by the program's instructions, so rebuilt models
reuse it.  A program is unrolled at its first request at an order.  Only a
program past :data:`STATEMENT_BUDGET`, or one whose numbers fail a domain
check (``log(-1)``, ``(-1)^0.5``), is evaluated by :meth:`Program.run` on
jets instead, which raise its errors in the order the program meets them.
"""

import functools
import operator
from collections import OrderedDict

import numpy as np

from . import jets
from .errors import EvaluationError, ExpressionError

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
    or one operation on earlier slots, and is computed once per run.  A number
    is a float64 scalar, so ``1/0`` in a source is inf.
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
                self._init.append(np.float64(node[1]) if kind == "num" else None)
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
# A program's jets for one order are unrolled into straight-line code on
# numbers (one point) or row arrays (a batch) by running Program.run on
# jets.Jet values traced by name: each value is a _Name, and each partial an
# entry of an object array, a _Name, a number or _ZERO.  Every operation on a
# name emits one statement, once per distinct right-hand side, so the code
# repeats the Jet arithmetic, in its association order, and numbers fold as
# the jets fold them.  The operands of + and * are sorted in a statement, so
# a second partial and its mirror share one, and a + (-b) is written a - b,
# which rounds alike.  A partial that is zero by structure (of a slot that
# does not depend on the variable) is _ZERO, which a sum drops and a product
# returns, and a product with a seeded 1.0 is not formed.  The jets compute
# such a partial as 0.0 or -0.0 and add it to others, so an entry may differ
# from theirs in the sign of a zero, and in nothing else; adding 0.0 to every
# entry of both routes makes them equal.  A number that fails a domain check
# (log(-1)) leaves the program to the jets, which raise it in order.  A
# statement that no entry needs is dropped unless it may raise: a call of a
# value-level function other than a numpy ufunc (the domain checks of log,
# sqrt and a fractional power), so the code raises where the jets raise.
# Everything else follows IEEE rules, a division by zero included.


class _OverBudget(Exception):
    pass


class _Zero:
    """A partial that is zero by structure: a sum drops it, a product is it."""

    __slots__ = ()

    def __add__(self, other):
        return other

    def __mul__(self, other):
        return self

    def __neg__(self):
        return self

    __radd__, __rmul__ = __add__, __mul__


_ZERO = _Zero()


class _Name:
    """A traced value: the name of the code variable that holds it.

    ``row`` is the statement that computes it (None for a coordinate), and
    ``negates`` the name it is the negation of, if it is one.
    """

    __slots__ = ("code", "tape", "row", "negates")

    def __init__(self, code, tape, row=None):
        self.code, self.tape, self.row, self.negates = code, tape, row, None

    def __add__(self, other):
        if other is _ZERO:
            return self
        for a, b in ((self, other), (other, self)):
            if isinstance(b, _Name) and b.negates is not None:
                return self.tape.emit("{} - {}", a, b.negates)
        return self.tape.emit("{} + {}", *sorted((self, other), key=_key))

    def __mul__(self, other):
        if isinstance(other, np.ndarray):  # a name times partials: numpy multiplies each
            return NotImplemented
        if other is _ZERO:
            return other
        if isinstance(other, float) and abs(other) == 1.0:  # exact: only a sign changes
            return self if other == 1.0 else -self
        return self.tape.emit("{} * {}", *sorted((self, other), key=_key))

    __radd__, __rmul__ = __add__, __mul__

    def __rtruediv__(self, other):
        return self.tape.emit("{} / {}", other, self)

    def __neg__(self):
        if self.negates is None:
            name = self.tape.emit("-{}", self)
            name.negates = self
            return name
        return self.negates

    def trace_call(self, fn, *args):
        """``jets._elem(self, fn, *args)`` as a statement, kept though no entry
        needs it unless ``fn`` is a numpy ufunc, which gives inf or nan where it
        fails: the other functions check their argument and may raise."""
        return self.tape.emit("{}({}, {}" + ", {}" * len(args) + ")", jets._elem, self, fn, *args,
                              keep=not isinstance(fn, np.ufunc))


def _key(a):
    """An operand as a statement key holds it: a name, a number's hex, a function."""
    if isinstance(a, _Name):
        return a.code
    return a.hex() if isinstance(a, float) else a


class _Tape:
    """The statements of traced jet arithmetic, one per distinct right-hand side."""

    def __init__(self):
        self.statements = []  # (format, operands, kept though no entry needs it)
        self.names = {}  # statement key -> the _Name holding its value

    def emit(self, form, *args, keep=False):
        key = (form,) + tuple(map(_key, args))
        name = self.names.get(key)
        if name is None:
            if len(self.statements) >= STATEMENT_BUDGET:
                raise _OverBudget
            name = self.names[key] = _Name(f"t{len(self.statements)}", self,
                                           len(self.statements))
            self.statements.append((form, args, keep))
        return name

    def code(self, outputs):
        """The statements that ``outputs`` need or that may raise, the names
        of the numbers and functions they use, and those, in one order."""
        live = [keep for _, _, keep in self.statements]
        for name in outputs:
            if name.row is not None:
                live[name.row] = True
        for row in reversed(range(len(live))):
            if live[row]:
                for a in self.statements[row][1]:
                    if isinstance(a, _Name) and a.row is not None:
                        live[a.row] = True
        consts, values = {}, []

        def atom(a):
            if isinstance(a, _Name):
                return a.code
            key = _key(a)
            if key not in consts:
                consts[key] = f"{'k' if isinstance(a, float) else 'f'}{len(values)}"
                values.append(float(a) if isinstance(a, float) else a)  # faster than float64
            return consts[key]

        lines = [f"t{row} = " + form.format(*map(atom, args))
                 for row, (form, args, _) in enumerate(self.statements) if live[row]]
        return lines, list(consts.values()), tuple(values)


class Expression:
    """A parsed expression that keeps its source text verbatim.

    Calling it with a map from variable names to numbers or jets runs its
    one-output :class:`Program`, compiled at the first call; ``source``
    names it in error messages.
    """

    def __init__(self, source):
        self.source = source
        self.ast = parse(source)
        names, todo = set(), [self.ast]
        while todo:  # its own stack, so a sum of any length is walked
            node = todo.pop()
            if node[0] == "var":
                names.add(node[1])
            todo.extend(arg for arg in node[1:] if isinstance(arg, tuple))
        self.variables = frozenset(names)

    @functools.cached_property
    def program(self):
        return Program([self.ast])

    def __call__(self, env):
        return self.program.run(env)[0]

    def __repr__(self):
        return f"Expression({self.source!r})"


class _Unrolled:
    """A program's jets unrolled for one order: the generated function, the
    numbers and functions it is given, and per order a table gathering each
    output's entries.

    The function returns the entries computed at run time; the constant
    entries, and last a 0.0 for the structural zeros, follow them in the
    vector the tables index.
    """

    __slots__ = ("fn", "consts", "width", "tail", "tables")

    def __init__(self, fn, consts, width, tail, tables):
        self.fn, self.consts, self.width, self.tail, self.tables = fn, consts, width, tail, tables

    def __call__(self, x):
        """Per order k, every output's k-th parts at ``x``, stacked after the batch axes."""
        if x.ndim == 1:
            try:  # Python floats round and overflow as float64 does, and raise at 1/0
                computed = self.fn(x.tolist(), self.consts)
            except ZeroDivisionError:  # float64 scalars give inf, as a batch row does
                computed = self.fn(list(x), self.consts)
            entries = np.array(computed + self.tail) + 0.0
            return [entries[t] for t in self.tables]
        computed = self.fn(x.T, self.consts)  # called for its checks even if it computes none
        entries = np.empty((len(x), self.width + len(self.tail)))
        if self.width:
            entries[:, :self.width] = np.array(computed).T
        entries[:, self.width:] = self.tail
        entries += 0.0
        # take, unlike entries[:, t], returns the parts in C order, batch axis first
        return [np.take(entries, t, axis=1) for t in self.tables]


def _unroll(program, coord_names, order):
    """``program``'s jets to ``order`` as an :class:`_Unrolled`, or None if it
    is left to the jets: over :data:`STATEMENT_BUDGET`, a number outside a
    function's domain, or a variable outside ``coord_names``."""
    n = len(coord_names)
    tape = _Tape()
    seeds = []
    for i in range(n):
        d1, d2 = np.full(n, _ZERO), np.full((n, n), _ZERO)
        d1[i] = 1.0
        seeds.append(jets.Jet(n, order, _Name(f"x{i}", tape), *(d1, d2)[:order]))
    try:
        with np.errstate(all="ignore"):
            values = program.run(dict(zip(coord_names, seeds)))
    except (_OverBudget, ArithmeticError, EvaluationError):
        return None

    # (order, table index, entry) for every entry of an output that is not
    # zero by structure
    cells = []
    for r, value in enumerate(values):
        parts = ([value.deriv(k) for k in range(order + 1)] if isinstance(value, jets.Jet)
                 else [value])
        cells.append((0, (r,), parts[0]))
        for k, part in enumerate(parts[1:], 1):
            cells.extend((k, (r,) + at, e) for at, e in np.ndenumerate(part) if e is not _ZERO)
    computed = list(dict.fromkeys(e for _, _, e in cells if isinstance(e, _Name)))
    tail = list({e.hex(): float(e) for _, _, e in cells if not isinstance(e, _Name)}.values())
    tail.append(0.0)
    position = {name: i for i, name in enumerate(computed)}
    position.update({c.hex(): len(computed) + i for i, c in enumerate(tail)})
    zero = len(computed) + len(tail) - 1
    tables = [np.full((len(values),) + (n,) * k, zero, dtype=np.intp)
              for k in range(order + 1)]
    for k, at, e in cells:
        tables[k][at] = position[e if isinstance(e, _Name) else e.hex()]

    lines, const_names, consts = tape.code(computed)
    unpack = [f"{', '.join(f'x{i}' for i in range(n))}, = X"]
    if consts:
        unpack.append(f"{', '.join(const_names)}, = K")
    names = [name.code for name in computed]
    body = unpack + lines + [f"return ({', '.join(names)}{',' if names else ''})"]
    namespace = {}
    exec(compile("def unrolled(X, K):\n    " + "\n    ".join(body), "<unrolled jets>", "exec"),
         namespace)
    return _Unrolled(namespace["unrolled"], consts, len(computed), tuple(tail), tables)


_memo = OrderedDict()  # (program key, coordinate names, order) -> _Unrolled or None


def _unrolled(program, coord_names, order):
    """The unrolled code of ``program``'s jets to ``order``, or None to use
    the jets, from a process-wide LRU memo of :data:`COMPILED_MEMO_SIZE` keys.

    The key is the program's instructions, so the models that a suite pass
    rebuilds find the code unrolled for the last pass.  A key is unrolled
    at its first request, so a program evaluated only once pays for its
    unrolling then.  The memo takes no lock: it is not safe to use from
    more than one thread.
    """
    key = (program.key, coord_names, order)
    try:
        _memo.move_to_end(key)
    except KeyError:
        _memo[key] = _unroll(program, coord_names, order)
        if len(_memo) > COMPILED_MEMO_SIZE:
            _memo.popitem(last=False)
    return _memo[key]
