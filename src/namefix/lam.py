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
        # A chain of lambdas is parsed by this loop, so it nests as deep as
        # memory allows.
        binders: list[Name] = []
        while self.at("\\"):
            self.next()
            binders.append(self.name(self.next("name")))
            self.next(".")
        e = self.parse_add()
        while binders:
            e = lam(binders.pop(), e)
        return e

    def parse_add(self) -> Term:
        e = self.parse_app()
        while self.at("+"):
            self.next()
            e = add(e, self.parse_app())
        return e

    def parse_app(self) -> Term:
        # application binds tighter than a lambda; a lambda argument needs parens
        e = self.parse_atom()
        while self.kinds[self.i] in ("name", "int", "("):
            e = app(e, self.parse_atom())
        return e

    def parse_atom(self) -> Term:
        j = self.next()
        kind = self.kinds[j]
        if kind == "name":
            return self.name(j)
        if kind == "int":
            return Const(self.integer(j))
        if kind == "(":
            e = self.parse_exp()
            self.next(")")
            return e
        raise self.error(f"unexpected token {self.texts[j]!r}", j)


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
