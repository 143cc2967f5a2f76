"""Arithmetic expressions over chart coordinates.

Grammar (``^`` is right-associative and binds tighter than unary minus)::

    expr   : term (('+' | '-') term)*
    term   : unary (('*' | '/') unary)*
    unary  : '-' unary | power
    power  : atom ('^' unary)?
    atom   : NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Known functions: exp, log, sqrt, sin, cos.  Any other identifier is a free
variable, resolved against the evaluation environment.
"""

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


def variables(node, acc=None):
    """The set of free variable names in an AST."""
    if acc is None:
        acc = set()
    kind = node[0]
    if kind == "var":
        acc.add(node[1])
    elif kind == "call":
        variables(node[2], acc)
    elif kind in ("+", "-", "*", "/", "^"):
        variables(node[1], acc)
        variables(node[2], acc)
    elif kind == "neg":
        variables(node[1], acc)
    return acc


def evaluate(node, env):
    """Evaluate an AST in ``env`` (name -> number or jet)."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        try:
            return env[node[1]]
        except KeyError:
            raise EvaluationError(f"unbound variable {node[1]!r}") from None
    if kind == "call":
        return _FUNCTIONS[node[1]](evaluate(node[2], env))
    if kind == "neg":
        return -evaluate(node[1], env)
    a = evaluate(node[1], env)
    b = evaluate(node[2], env)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        return a / b
    if kind == "^":
        return jets.power(a, b)
    raise EvaluationError(f"bad AST node {kind!r}")


class Expression:
    """A parsed expression that keeps its source text verbatim.

    Calling it with a map from variable names to numbers or jets evaluates
    it; ``source`` names it in error messages.
    """

    def __init__(self, source):
        self.source = source
        self.ast = parse(source)
        self.variables = frozenset(variables(self.ast))

    def __call__(self, env):
        return evaluate(self.ast, env)

    def __repr__(self):
        return f"Expression({self.source!r})"
