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
"""

import operator

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
    return _Parser(source).parse()


_OPS = {**_FUNCTIONS, "+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "^": jets.power, "neg": operator.neg}


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

    def _emit(self, node):
        kind = node[0]
        if kind == "call":
            key = (node[1], self._emit(node[2]))
        else:
            key = node if kind in ("num", "var") else (kind,) + tuple(map(self._emit, node[1:]))
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self._init)
            self._init.append(node[1] if kind == "num" else None)
            if kind == "var":
                self.loads.append((slot, node[1]))
            elif kind != "num":
                self.code.append((slot, key[0], key[1:]))
        return slot

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
