"""A minimal lambda calculus with application and binary addition.

Exists to host the small binding examples and the randomized property
suites; there is deliberately no evaluator.
"""

from __future__ import annotations

from operator import attrgetter

from . import term
from .graph import Bind, Resolver
from .term import (
    E,
    Compound,
    Const,
    Name,
    Pairs,
    Scanner,
    Term,
    compound,
    literal,
    show_name,
    token_pattern,
)

LAM = Const("lam")
APP = Const("app")
ADD = Const("add")


def lam(binder: Name, body: Term) -> Compound:
    return compound(LAM, binder, body)


def app(f: Term, a: Term) -> Compound:
    return compound(APP, f, a)


def add(left: Term, right: Term) -> Compound:
    return compound(ADD, left, right)


class ParseError(term.ParseError):
    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos

    @classmethod
    def at(cls, message: str, src: str, offset: int) -> "ParseError":
        return cls(message, offset)


_TOKEN = token_pattern(r"[\\.+()]|\d+|[A-Za-z_][A-Za-z0-9_]*(?:@'?\d+)?")


class _Parser(Scanner):
    def __init__(self, src: str) -> None:
        super().__init__(src, _TOKEN, frozenset("\\.+()"), ParseError, len(src))

    def parse_exp(self) -> Term:
        # One loop with a stack of its own, so nesting is bounded by memory
        # only. The locals describe the expression being read: the sum of
        # the applications before the one being read, and that
        # application's function before its next argument. A subexpression
        # pushes a frame whose first field says what ends it:
        #   (")", total, f)    a parenthesised one
        #   ("tail", binder)   a lambda's body
        #   (None,)            the expression read
        kinds = self.kinds
        i = self.i
        stack: list[tuple] = [(None,)]
        push = stack.append
        pop = stack.pop
        total = f = None
        start = True  # at the start of an expression, where a lambda may come
        while True:
            if start:
                while kinds[i] == "\\":
                    self.i = i + 1
                    push(("tail", self.name(self.next("name"))))
                    self.next(".")
                    i = self.i
            # An operand: a name, a constant or a parenthesised expression.
            kind = kinds[i]
            if kind == "name":
                e = self.name(i)
            elif kind == "int":
                e = Const(self.integer(i))
            elif kind == "(":
                i += 1
                push((")", total, f))
                total = f = None
                start = True
                continue
            else:
                self.i = i
                self.next()  # raises at the end of input
                raise self.error(f"unexpected token {self.texts[i]!r}", i)
            i += 1
            # e is an operand read. Apply the function before it, then
            # continue after it with an argument or a `+`, or end the
            # expressions it ends. Application binds tighter than `+` and a
            # lambda: a lambda argument needs parentheses.
            while True:
                if f is not None:
                    e = app(f, e)
                    f = None
                kind = kinds[i]
                if kind == "name" or kind == "int" or kind == "(":
                    f = e
                    break
                if kind == "+":
                    total = e if total is None else add(total, e)
                    i += 1
                    break
                if total is not None:
                    e = add(total, e)
                    total = None
                frame = pop()
                while frame[0] == "tail":
                    e = lam(frame[1], e)
                    frame = pop()
                if frame[0] is None:
                    self.i = i
                    return e
                if kind != ")":
                    self.i = i
                    self.next(")")  # raises
                i += 1
                _, total, f = frame
            start = False


def parse_lambda(src: str) -> Term:
    return _Parser(src).parse(_Parser.parse_exp)


def _lam(t: Compound, env: E, bind: Bind) -> Pairs:
    """A lambda's binder is a declaration, visible in its body, where it
    shadows an outer binder of equal spelling."""
    binder = t.children[1]
    return ((binder, None), (t.children[2], bind(env, (binder,))))


# Binding forms (`graph.Scopes`): only a lambda binds.
SCOPES = {"lam": _lam}


# Lexical scoping: a reference binds to the innermost enclosing binder of
# equal spelling; unbound names get no edge.
LAMBDA_RESOLVER = Resolver("lambda", scopes=SCOPES, top=lambda p: ())
resolve_lambda = LAMBDA_RESOLVER.resolve


def pretty_lambda(p: Term, show_labels: bool = False) -> str:
    """The text of a lambda term, a name or a constant.

    One explicit-stack loop prints top-down, as `simpl.pretty_simpl` does,
    with the precedences 0 = lambda, 1 = add, 2 = app, 3 = atom."""
    name = show_name if show_labels else attrgetter("text")
    out: list[str] = []
    append = out.append
    todo: list = [(p, 0)]
    push = todo.append
    pop = todo.pop
    while todo:
        x = pop()
        if x.__class__ is str:
            append(x)
            continue
        x, level = x
        while True:
            kind = x.__class__
            if kind is Name:
                append(name(x))
                break
            if kind is not Compound:
                append(literal(x.value))
                break
            c = x.children
            t = c[0].value if c and c[0].__class__ is Const else None
            if t == "app":
                if level > 2:
                    append("(")
                    push(")")
                push((c[2], 3))
                push(" ")
                x, level = c[1], 2
            elif t == "lam":
                if level:
                    append("(")
                    push(")")
                append(f"\\{name(c[1])}. ")
                x, level = c[2], 0
            elif t == "add":
                if level > 1:
                    append("(")
                    push(")")
                push((c[2], 2))
                push(" + ")
                x, level = c[1], 1
            else:
                raise ValueError(f"not a lambda term: {x!r}")
    return "".join(out)
