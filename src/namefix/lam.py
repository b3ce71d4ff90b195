"""A minimal lambda calculus with application and binary addition.

Exists to host the small binding examples and the randomized property
suites; there is deliberately no evaluator.
"""

from __future__ import annotations

from . import term
from .graph import NameGraph, Resolver
from .term import (
    Compound,
    Const,
    Label,
    Name,
    Scanner,
    Term,
    compound,
    labels_of,
    show_name,
    tag,
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


_TOKEN = token_pattern(
    r"(?P<punct>[\\.+()])|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*(?:@'?\d+)?)"
)


class _Parser(Scanner):
    def __init__(self, src: str) -> None:
        super().__init__(src, _TOKEN, frozenset(), ParseError, len(src))

    def parse_exp(self) -> Term:
        if self.at("\\"):
            self.next()
            binder = self.name(self.next("name"))
            self.next(".")
            return lam(binder, self.parse_exp())
        return self.parse_add()

    def parse_add(self) -> Term:
        e = self.parse_app()
        while self.at("+"):
            self.next()
            e = add(e, self.parse_app())
        return e

    def parse_app(self) -> Term:
        # application binds tighter than a lambda; a lambda argument needs parens
        e = self.parse_atom()
        while self.peek()[0] in ("name", "int", "("):
            e = app(e, self.parse_atom())
        return e

    def parse_atom(self) -> Term:
        tok = self.next()
        if tok[0] == "name":
            return self.name(tok)
        if tok[0] == "int":
            return Const(self.integer(tok))
        if tok[0] == "(":
            e = self.parse_exp()
            self.next(")")
            return e
        raise self.error(f"unexpected token {tok[1]!r}", tok[2])


def parse_lambda(src: str) -> Term:
    return _Parser(src).parse(_Parser.parse_exp)


def resolve_lambda(p: Term) -> NameGraph:
    """Lexical scoping: a reference binds to the innermost enclosing binder
    of equal spelling; unbound names get no edge."""
    edges: set[tuple[Label, Label]] = set()

    def walk(t: Term, env: dict[str, Label]) -> None:
        if isinstance(t, Name):
            decl = env.get(t.text)
            if decl is not None:
                edges.add((t.label, decl))
            return
        if tag(t) == "lam":
            binder = t.children[1]
            assert isinstance(binder, Name)
            walk(t.children[2], {**env, binder.text: binder.label})
            return
        if isinstance(t, Compound):
            for child in t.children[1:] if tag(t) else t.children:
                walk(child, env)

    walk(p, {})
    return NameGraph(labels_of(p), edges)


LAMBDA_RESOLVER = Resolver("lambda", resolve_lambda)


def declarations_of(p: Term) -> frozenset[Label]:
    """Binder labels of every lambda node."""
    out: set[Label] = set()

    def walk(t: Term) -> None:
        if tag(t) == "lam":
            binder = t.children[1]
            assert isinstance(binder, Name)
            out.add(binder.label)
            walk(t.children[2])
        elif isinstance(t, Compound):
            for child in t.children:
                walk(child)

    walk(p)
    return frozenset(out)


def pretty_lambda(p: Term, show_labels: bool = False) -> str:
    def go(t: Term, level: int) -> str:
        # levels: 0 = lambda, 1 = add, 2 = app, 3 = atom
        if isinstance(t, Name):
            return show_name(t, show_labels)
        if isinstance(t, Const):
            return str(t.value)
        kind = tag(t)
        if kind == "lam":
            binder = t.children[1]
            assert isinstance(binder, Name)
            s = f"\\{show_name(binder, show_labels)}. {go(t.children[2], 0)}"
            return s if level <= 0 else f"({s})"
        if kind == "add":
            s = f"{go(t.children[1], 1)} + {go(t.children[2], 2)}"
            return s if level <= 1 else f"({s})"
        if kind == "app":
            s = f"{go(t.children[1], 2)} {go(t.children[2], 3)}"
            return s if level <= 2 else f"({s})"
        raise ValueError(f"not a lambda term: {t!r}")

    return go(p, 0)
