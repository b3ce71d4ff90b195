"""A minimal lambda calculus with application and binary addition.

Exists to host the small binding examples and the randomized property
suites; there is deliberately no evaluator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph import NameGraph, Resolver
from .term import (
    Compound,
    Const,
    DuplicatePin,
    Label,
    Name,
    NameFactory,
    Term,
    compound,
    labels_of,
    show_name,
    tag,
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


class ParseError(Exception):
    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<lambda>\\)|(?P<dot>\.)|(?P<plus>\+)|(?P<lpar>\()|(?P<rpar>\))"
    r"|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*(?:@'?\d+)?))"
)


@dataclass
class _Tok:
    kind: str
    text: str
    pos: int


def _tokenize(src: str) -> list[_Tok]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None or m.lastgroup is None:
            if src[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {src[pos:pos+1]!r}", pos)
        if m.end() == pos and not m.group().strip():
            break
        tokens.append(_Tok(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, src: str) -> None:
        self.tokens = _tokenize(src)
        self.i = 0
        self.end = len(src)
        self.names = NameFactory(src)

    def name(self, tok: _Tok) -> Name:
        try:
            return self.names.make(tok.text)
        except DuplicatePin as exc:
            raise ParseError(str(exc), tok.pos) from None

    def peek(self) -> _Tok | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, kind: str | None = None) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end)
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.pos)
        self.i += 1
        return tok

    def parse_exp(self) -> Term:
        tok = self.peek()
        if tok is not None and tok.kind == "lambda":
            self.next()
            binder = self.name(self.next("name"))
            self.next("dot")
            return lam(binder, self.parse_exp())
        return self.parse_add()

    def parse_add(self) -> Term:
        e = self.parse_app()
        while (tok := self.peek()) is not None and tok.kind == "plus":
            self.next()
            e = add(e, self.parse_app())
        return e

    def parse_app(self) -> Term:
        e = self.parse_atom()
        while (tok := self.peek()) is not None and tok.kind in ("name", "int", "lpar", "lambda"):
            if tok.kind == "lambda":
                # application binds tighter; a lambda argument needs parens
                break
            e = app(e, self.parse_atom())
        return e

    def parse_atom(self) -> Term:
        tok = self.next()
        if tok.kind == "name":
            return self.name(tok)
        if tok.kind == "int":
            return Const(int(tok.text))
        if tok.kind == "lpar":
            e = self.parse_exp()
            self.next("rpar")
            return e
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse_lambda(src: str) -> Term:
    parser = _Parser(src)
    e = parser.parse_exp()
    if parser.peek() is not None:
        raise ParseError(f"trailing input {parser.peek().text!r}", parser.peek().pos)
    return e


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
