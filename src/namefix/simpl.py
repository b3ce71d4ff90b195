"""A small procedural language: global first-order functions, let bindings,
local function definitions, conditionals, and a few operators.

Functions and let-bound variables share one namespace. The module also hosts
the transformations defined over the language: substitution, function
inlining, and lambda lifting, each made capture-avoiding by a final repair
pass against the source program's name graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .fix import name_fix
from .graph import NameGraph, Resolver, pick_declaration
from .term import (
    Compound,
    Const,
    DuplicatePin,
    Label,
    LabelAllocator,
    Name,
    NameFactory,
    Term,
    compound,
    iter_names,
    labels_of,
    show_name,
    spellings,
    tag,
)

# ---------------------------------------------------------------------------
# Term construction and inspection

PROG = Const("prog")
FDEFS = Const("fdefs")
MAIN = Const("main")
FDEF = Const("fdef")
PARAMS = Const("params")
LET = Const("let")
LETFUN = Const("letfun")
IF = Const("if")
EQ = Const("eq")
ADD = Const("add")
MUL = Const("mul")
NOT = Const("not")
CALL = Const("call")
ERROR = Const("error")


def prog(fdefs: Sequence[Term], main: Sequence[Term]) -> Compound:
    return compound(PROG, compound(FDEFS, *fdefs), compound(MAIN, *main))


def fdef(name: Name, params: Sequence[Name], body: Term) -> Compound:
    return compound(FDEF, name, compound(PARAMS, *params), body)


def let(binder: Name, init: Term, body: Term) -> Compound:
    return compound(LET, binder, init, body)


def letfun(fn: Compound, body: Term) -> Compound:
    return compound(LETFUN, fn, body)


def if_(cond: Term, then: Term, els: Term) -> Compound:
    return compound(IF, cond, then, els)


def eq(a: Term, b: Term) -> Compound:
    return compound(EQ, a, b)


def add(a: Term, b: Term) -> Compound:
    return compound(ADD, a, b)


def mul(a: Term, b: Term) -> Compound:
    return compound(MUL, a, b)


def not_(a: Term) -> Compound:
    return compound(NOT, a)


def call(fn: Name, args: Sequence[Term]) -> Compound:
    return compound(CALL, fn, *args)


def error_call() -> Compound:
    return compound(ERROR)


def prog_fdefs(p: Term) -> tuple[Compound, ...]:
    assert tag(p) == "prog"
    return p.children[1].children[1:]  # type: ignore[union-attr,return-value]


def prog_main(p: Term) -> tuple[Term, ...]:
    assert tag(p) == "prog"
    return p.children[2].children[1:]  # type: ignore[union-attr]


def fdef_name(f: Term) -> Name:
    assert tag(f) == "fdef"
    return f.children[1]  # type: ignore[union-attr,return-value]


def fdef_params(f: Term) -> tuple[Name, ...]:
    assert tag(f) == "fdef"
    return f.children[2].children[1:]  # type: ignore[union-attr,return-value]


def fdef_body(f: Term) -> Term:
    assert tag(f) == "fdef"
    return f.children[3]  # type: ignore[union-attr]


class SimplError(Exception):
    pass


class UnknownFunction(SimplError):
    pass


class ArityMismatch(SimplError):
    pass


# ---------------------------------------------------------------------------
# Parsing

class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_KEYWORDS = {"fun", "let", "in", "if", "then", "else", "error"}

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<eqeq>==)"
    r"|(?P<punct>[=;(),+*!])"
    r"|(?P<int>\d+)"
    r"|(?P<str>\"(?:[^\"\\]|\\.)*\")"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_-]*(?:@'?\d+)?)"
)


@dataclass
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    pos = 0
    line, col = 1, 1
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group()
        kind = m.lastgroup or "ws"
        if kind != "ws":
            if kind == "name" and text.split("@")[0] in _KEYWORDS:
                kind = text.split("@")[0]
            elif kind == "punct" or kind == "eqeq":
                kind = text
            tokens.append(_Tok(kind, text, line, col))
        line, col = _advance(line, col, text)
        pos = m.end()
    return tokens


def _advance(line: int, col: int, text: str) -> tuple[int, int]:
    """The position just past `text` when it starts at (line, col)."""
    newlines = text.count("\n")
    if newlines:
        return line + newlines, len(text) - text.rfind("\n")
    return line, col + len(text)


class _Parser:
    def __init__(self, src: str) -> None:
        self.tokens = _tokenize(src)
        self.i = 0
        self.names = NameFactory(src)

    def name(self, tok: _Tok) -> Name:
        try:
            return self.names.make(tok.text)
        except DuplicatePin as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None

    def peek(self, ahead: int = 0) -> _Tok | None:
        j = self.i + ahead
        return self.tokens[j] if j < len(self.tokens) else None

    def next(self, kind: str | None = None) -> _Tok:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Tok("", "", 1, 1)
            raise ParseError("unexpected end of input", *_advance(last.line, last.col, last.text))
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        self.i += 1
        return tok

    def at(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind

    def parse_program(self) -> Compound:
        fdefs: list[Term] = []
        while self.at("fun"):
            fdefs.append(self.parse_fdef())
        main: list[Term] = []
        if self.peek() is not None:
            main.append(self.parse_exp())
        if self.peek() is not None:
            tok = self.peek()
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return prog(fdefs, main)

    def parse_fdef(self) -> Compound:
        self.next("fun")
        name = self.name(self.next("name"))
        params = self.parse_params()
        self.next("=")
        body = self.parse_exp()
        self.next(";")
        return fdef(name, params, body)

    def parse_params(self) -> list[Name]:
        self.next("(")
        params: list[Name] = []
        if not self.at(")"):
            params.append(self.name(self.next("name")))
            while self.at(","):
                self.next()
                params.append(self.name(self.next("name")))
        self.next(")")
        return params

    def parse_exp(self) -> Term:
        if self.at("let"):
            self.next()
            if self.at("fun"):
                self.next()
                name = self.name(self.next("name"))
                params = self.parse_params()
                self.next("=")
                fbody = self.parse_exp()
                self.next("in")
                body = self.parse_exp()
                return letfun(fdef(name, params, fbody), body)
            binder = self.name(self.next("name"))
            self.next("=")
            init = self.parse_exp()
            self.next("in")
            body = self.parse_exp()
            return let(binder, init, body)
        if self.at("if"):
            self.next()
            cond = self.parse_exp()
            self.next("then")
            then = self.parse_exp()
            self.next("else")
            els = self.parse_exp()
            return if_(cond, then, els)
        return self.parse_eq()

    def parse_eq(self) -> Term:
        e = self.parse_add()
        if self.at("=="):
            self.next()
            return eq(e, self.parse_add())
        return e

    def parse_add(self) -> Term:
        e = self.parse_mul()
        while self.at("+"):
            self.next()
            e = add(e, self.parse_mul())
        return e

    def parse_mul(self) -> Term:
        e = self.parse_unary()
        while self.at("*"):
            self.next()
            e = mul(e, self.parse_unary())
        return e

    def parse_unary(self) -> Term:
        if self.at("!"):
            self.next()
            return not_(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Term:
        if self.at("int"):
            return Const(int(self.next().text))
        if self.at("str"):
            raw = self.next().text
            return Const(raw[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
        if self.at("error"):
            self.next()
            self.next("(")
            self.next(")")
            return error_call()
        if self.at("("):
            self.next()
            e = self.parse_exp()
            self.next(")")
            return e
        tok = self.next("name")
        name = self.name(tok)
        if self.at("("):
            self.next()
            args: list[Term] = []
            if not self.at(")"):
                args.append(self.parse_exp())
                while self.at(","):
                    self.next()
                    args.append(self.parse_exp())
            self.next(")")
            return call(name, args)
        return name


def parse_simpl(src: str) -> Compound:
    return _Parser(src).parse_program()


def parse_simpl_exp(src: str) -> Term:
    parser = _Parser(src)
    e = parser.parse_exp()
    if parser.peek() is not None:
        tok = parser.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return e


# ---------------------------------------------------------------------------
# Name resolution

def resolve_simpl(p: Term) -> NameGraph:
    """Single-namespace lexical scoping.

    Top-level function names are visible everywhere (mutual recursion);
    among duplicates of one spelling the last declaration wins, except that
    a reference carrying the same label as one of the duplicates binds to
    that one. Let binds its body only; a local function name is visible in
    its own body and the let body.
    """
    top: dict[str, list[Label]] = {}
    for f in prog_fdefs(p):
        n = fdef_name(f)
        top.setdefault(n.text, []).append(n.label)
    edges: set[tuple[Label, Label]] = set()

    def bind(ref: Name, env: Mapping[str, Label]) -> None:
        decl = env.get(ref.text)
        if decl is None:
            candidates = top.get(ref.text)
            if not candidates:
                return
            decl = pick_declaration(candidates, ref.label)
        edges.add((ref.label, decl))

    def walk(e: Term, env: dict[str, Label]) -> None:
        if isinstance(e, Name):
            bind(e, env)
            return
        if isinstance(e, Const):
            return
        t = tag(e)
        if t == "let":
            binder, init, body = e.children[1], e.children[2], e.children[3]
            assert isinstance(binder, Name)
            walk(init, env)
            walk(body, {**env, binder.text: binder.label})
            return
        if t == "letfun":
            fn, body = e.children[1], e.children[2]
            n = fdef_name(fn)
            inner = {**env, n.text: n.label}
            fn_env = dict(inner)
            for param in fdef_params(fn):
                fn_env[param.text] = param.label
            walk(fdef_body(fn), fn_env)
            walk(body, inner)
            return
        if t == "call":
            fn_name = e.children[1]
            assert isinstance(fn_name, Name)
            bind(fn_name, env)
            for arg in e.children[2:]:
                walk(arg, env)
            return
        assert isinstance(e, Compound)
        for child in e.children[1:] if t else e.children:
            walk(child, env)

    for f in prog_fdefs(p):
        env: dict[str, Label] = {}
        for param in fdef_params(f):
            env[param.text] = param.label
        walk(fdef_body(f), env)
    for e in prog_main(p):
        walk(e, {})
    return NameGraph(labels_of(p), edges)


SIMPL_RESOLVER = Resolver("simpl", resolve_simpl)


def declarations_of(p: Term) -> frozenset[Label]:
    """Labels in declaration position: function names, parameters, and
    let/letfun binders."""
    out: set[Label] = set()

    def walk(e: Term) -> None:
        t = tag(e)
        if t == "fdef":
            out.add(fdef_name(e).label)
            out.update(param.label for param in fdef_params(e))
        elif t == "let":
            binder = e.children[1]
            assert isinstance(binder, Name)
            out.add(binder.label)
        if isinstance(e, Compound):
            for child in e.children[1:] if t else e.children:
                walk(child)

    walk(p)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Pretty printing

def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def pretty_simpl(p: Term, show_labels: bool = False) -> str:
    # levels: 0 = let/if, 1 = eq, 2 = add, 3 = mul, 4 = unary/atom
    def go(e: Term, level: int) -> str:
        if isinstance(e, Name):
            return show_name(e, show_labels)
        if isinstance(e, Const):
            return f'"{_escape(e.value)}"' if isinstance(e.value, str) else str(e.value)
        t = tag(e)
        if t == "let":
            binder, init, body = e.children[1], e.children[2], e.children[3]
            s = f"let {show_name(binder, show_labels)} = {go(init, 0)} in {go(body, 0)}"
            return s if level <= 0 else f"({s})"
        if t == "letfun":
            fn, body = e.children[1], e.children[2]
            params = ", ".join(show_name(q, show_labels) for q in fdef_params(fn))
            s = (
                f"let fun {show_name(fdef_name(fn), show_labels)}({params}) = "
                f"{go(fdef_body(fn), 0)} in {go(body, 0)}"
            )
            return s if level <= 0 else f"({s})"
        if t == "if":
            s = (
                f"if {go(e.children[1], 1)} then {go(e.children[2], 0)} "
                f"else {go(e.children[3], 0)}"
            )
            return s if level <= 0 else f"({s})"
        if t == "eq":
            s = f"{go(e.children[1], 2)} == {go(e.children[2], 2)}"
            return s if level <= 1 else f"({s})"
        if t == "add":
            s = f"{go(e.children[1], 2)} + {go(e.children[2], 3)}"
            return s if level <= 2 else f"({s})"
        if t == "mul":
            s = f"{go(e.children[1], 3)} * {go(e.children[2], 4)}"
            return s if level <= 3 else f"({s})"
        if t == "not":
            return f"!{go(e.children[1], 4)}"
        if t == "call":
            fn_name = e.children[1]
            assert isinstance(fn_name, Name)
            args = ", ".join(go(a, 0) for a in e.children[2:])
            return f"{show_name(fn_name, show_labels)}({args})"
        if t == "error":
            return "error()"
        raise ValueError(f"not an expression: {e!r}")

    if tag(p) != "prog":
        return go(p, 0)

    lines = []
    for f in prog_fdefs(p):
        params = ", ".join(show_name(q, show_labels) for q in fdef_params(f))
        lines.append(f"fun {show_name(fdef_name(f), show_labels)}({params}) = {go(fdef_body(f), 0)};")
    for e in prog_main(p):
        lines.append(go(e, 0))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Evaluation (behavioral oracle for the transformations)

class EvalError(SimplError):
    """The program reached error()."""


class UnboundName(SimplError):
    pass


class OutOfFuel(SimplError):
    pass


@dataclass(frozen=True)
class _Closure:
    fn: Term
    env: Mapping[str, object]


def eval_simpl(p: Term, fuel: int = 100_000) -> object:
    """Call-by-value evaluation of the last main expression.

    Zero is false, any other integer true. error() raises EvalError,
    unresolvable names raise UnboundName, and running past `fuel`
    evaluation steps raises OutOfFuel.
    """
    main = prog_main(p)
    if not main:
        raise SimplError("program has no main expression")
    top: dict[str, Term] = {}
    for f in prog_fdefs(p):
        top[fdef_name(f).text] = f  # last declaration wins
    remaining = [fuel]

    def spend() -> None:
        remaining[0] -= 1
        if remaining[0] < 0:
            raise OutOfFuel("evaluation fuel exhausted")

    def apply(fn: Term, env: Mapping[str, object], args: list[object]) -> object:
        params = fdef_params(fn)
        if len(params) != len(args):
            raise ArityMismatch(
                f"{fdef_name(fn).text} expects {len(params)} args, got {len(args)}"
            )
        call_env = dict(env)
        for param, value in zip(params, args):
            call_env[param.text] = value
        return ev(fdef_body(fn), call_env)

    def ev(e: Term, env: Mapping[str, object]) -> object:
        spend()
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Name):
            if e.text in env:
                value = env[e.text]
                if isinstance(value, _Closure):
                    raise SimplError(f"function {e.text} used as a value")
                return value
            raise UnboundName(e.text)
        t = tag(e)
        if t == "let":
            binder, init, body = e.children[1], e.children[2], e.children[3]
            assert isinstance(binder, Name)
            value = ev(init, env)
            return ev(body, {**env, binder.text: value})
        if t == "letfun":
            fn, body = e.children[1], e.children[2]
            inner: dict[str, object] = dict(env)
            closure = _Closure(fn, inner)
            inner[fdef_name(fn).text] = closure
            return ev(body, inner)
        if t == "if":
            cond = ev(e.children[1], env)
            return ev(e.children[2] if cond != 0 else e.children[3], env)
        if t == "eq":
            return 1 if ev(e.children[1], env) == ev(e.children[2], env) else 0
        if t == "add":
            return ev(e.children[1], env) + ev(e.children[2], env)  # type: ignore[operator]
        if t == "mul":
            return ev(e.children[1], env) * ev(e.children[2], env)  # type: ignore[operator]
        if t == "not":
            return 1 if ev(e.children[1], env) == 0 else 0
        if t == "error":
            raise EvalError("error() reached")
        if t == "call":
            fn_name = e.children[1]
            assert isinstance(fn_name, Name)
            args = [ev(a, env) for a in e.children[2:]]
            bound = env.get(fn_name.text)
            if isinstance(bound, _Closure):
                return apply(bound.fn, bound.env, args)
            if bound is not None:
                raise SimplError(f"{fn_name.text} is not a function")
            fn = top.get(fn_name.text)
            if fn is None:
                raise UnboundName(fn_name.text)
            return apply(fn, {}, args)
        raise SimplError(f"cannot evaluate {e!r}")

    result: object = None
    try:
        for e in main:
            result = ev(e, {})
    except RecursionError:
        raise OutOfFuel("evaluation recursed too deeply") from None
    return result


# ---------------------------------------------------------------------------
# Substitution

def subst_exp_many(e: Term, sub: Mapping[str, Term]) -> Term:
    """Simultaneous name-driven substitution. Deliberately capturing:
    shadowed binders cut off substitution, nothing is renamed."""
    if not sub:
        return e
    if isinstance(e, Name):
        return sub.get(e.text, e)
    if isinstance(e, Const):
        return e
    t = tag(e)
    if t == "let":
        binder, init, body = e.children[1], e.children[2], e.children[3]
        assert isinstance(binder, Name)
        inner = {x: r for x, r in sub.items() if x != binder.text}
        return let(binder, subst_exp_many(init, sub), subst_exp_many(body, inner))
    if t == "letfun":
        fn, body = e.children[1], e.children[2]
        n = fdef_name(fn)
        inner = {x: r for x, r in sub.items() if x != n.text}
        fn_sub = {
            x: r
            for x, r in inner.items()
            if x not in {q.text for q in fdef_params(fn)}
        }
        new_fn = fdef(n, fdef_params(fn), subst_exp_many(fdef_body(fn), fn_sub))
        return letfun(new_fn, subst_exp_many(body, inner))
    if t == "call":
        fn_name = e.children[1]
        assert isinstance(fn_name, Name)
        return Compound(
            (CALL, fn_name) + tuple(subst_exp_many(a, sub) for a in e.children[2:])
        )
    assert isinstance(e, Compound)
    head = e.children[:1] if t else ()
    rest = e.children[1:] if t else e.children
    return Compound(head + tuple(subst_exp_many(c, sub) for c in rest))


def subst_exp(e: Term, x: str, repl: Term) -> Term:
    return subst_exp_many(e, {x: repl})


def subst_fdef(f: Term, x: str, repl: Term) -> Term:
    if x in {q.text for q in fdef_params(f)}:
        return f
    return fdef(fdef_name(f), fdef_params(f), subst_exp(fdef_body(f), x, repl))


def subst_prog(p: Term, x: str, repl: Term) -> Term:
    return prog(
        [subst_fdef(f, x, repl) for f in prog_fdefs(p)],
        [subst_exp(e, x, repl) for e in prog_main(p)],
    )


def subst(p: Term, x: str, repl: Term) -> Term:
    """Capture-avoiding substitution: substitute first, repair afterwards."""
    return name_fix(resolve_simpl(p), subst_prog(p, x, repl), SIMPL_RESOLVER).term


# ---------------------------------------------------------------------------
# Inlining

def _relabel_copy(body: Term, graph: NameGraph, alloc: LabelAllocator) -> Term:
    """Copy a function body for one call site: declarations inside the copy
    and the references bound to them get one fresh label per original."""
    fresh: dict[Label, Label] = {
        d: alloc.fresh() for d in sorted(declarations_of(body), key=lambda l: l.id)
    }

    def go(e: Term) -> Term:
        if isinstance(e, Name):
            new = fresh.get(e.label)
            if new is None:
                for bound in sorted(graph.bindings(e.label), key=lambda l: l.id):
                    if bound in fresh:
                        new = fresh[bound]
                        break
            return Name(e.text, new) if new is not None else e
        if isinstance(e, Compound):
            return Compound(tuple(go(c) for c in e.children))
        return e

    return go(body)


def inline_prog(p: Term, fname: str, graph: NameGraph) -> Term:
    """Naive inlining: expand every call bound to the named top-level
    function, given the name graph of p. Nothing is renamed.

    Each call site is expanded exactly once; calls inside inserted copies
    (recursion) are left alone.
    """
    target: Term | None = None
    for f in prog_fdefs(p):
        if fdef_name(f).text == fname:
            target = f  # last declaration wins, matching resolution
    if target is None:
        raise UnknownFunction(fname)
    target_label = fdef_name(target).label
    params = fdef_params(target)
    alloc = LabelAllocator.after(p)

    def go(e: Term) -> Term:
        if not isinstance(e, Compound):
            return e
        if tag(e) == "call":
            fn_name = e.children[1]
            assert isinstance(fn_name, Name)
            args = [go(a) for a in e.children[2:]]
            if target_label in graph.bindings(fn_name.label):
                if len(args) != len(params):
                    raise ArityMismatch(
                        f"{fname} expects {len(params)} args, got {len(args)}"
                    )
                body = _relabel_copy(fdef_body(target), graph, alloc)
                return subst_exp_many(
                    body, {q.text: a for q, a in zip(params, args)}
                )
            return Compound((e.children[0], fn_name) + tuple(args))
        return Compound(tuple(go(c) for c in e.children))

    return prog(
        [fdef(fdef_name(f), fdef_params(f), go(fdef_body(f))) for f in prog_fdefs(p)],
        [go(e) for e in prog_main(p)],
    )


def inline(p: Term, fname: str) -> Term:
    """Capture-avoiding inlining: expand first, repair afterwards."""
    gs = resolve_simpl(p)
    return name_fix(gs, inline_prog(p, fname, gs), SIMPL_RESOLVER).term


# ---------------------------------------------------------------------------
# Lambda lifting

def lift_prog(p: Term, graph: NameGraph) -> Term:
    """Naive lambda lifting: hoist every local function to the top level,
    given the name graph of p. Nothing is renamed.

    Let- and parameter-bound variables used (transitively) by a local
    function are passed as extra trailing arguments. Every binding fact
    comes from `graph`: a local function needs the declarations that the
    names in its body are bound to, less functions and the declarations it
    makes itself.
    """
    local: dict[Label, Term] = {}  # local functions in preorder

    def scan(e: Term) -> None:
        if tag(e) == "letfun":
            local[fdef_name(e.children[1]).label] = e.children[1]
        if isinstance(e, Compound):
            for c in e.children:
                scan(c)

    scan(p)
    if not local:
        return p

    functions = local.keys() | {fdef_name(f).label for f in prog_fdefs(p)}
    inside = {f: declarations_of(fn) for f, fn in local.items()}
    need: dict[Label, set[Label]] = {}
    calls: dict[Label, set[Label]] = {}
    for f, fn in local.items():
        bound = {d for n in iter_names(fdef_body(fn)) for d in graph.bindings(n.label)}
        need[f] = bound - functions - inside[f]
        calls[f] = (bound & local.keys()) - {f}

    # Transitive closure: a caller must be able to supply what its callees need.
    changed = True
    while changed:
        changed = False
        for f, called in calls.items():
            for g in called:
                extra = need[g] - inside[f] - need[f]
                if extra:
                    need[f] |= extra
                    changed = True

    spell = spellings(p)
    extra_args: dict[Label, list[Name]] = {
        f: [Name(spell[d], d) for d in sorted(needed, key=lambda l: l.id)]
        for f, needed in need.items()
    }

    lifted: list[Term] = []

    def go(e: Term) -> Term:
        if not isinstance(e, Compound):
            return e
        t = tag(e)
        if t == "letfun":
            fn = e.children[1]
            new_params = tuple(fdef_params(fn)) + tuple(extra_args[fdef_name(fn).label])
            lifted.append(fdef(fdef_name(fn), new_params, go(fdef_body(fn))))
            return go(e.children[2])
        if t == "call":
            fn_name = e.children[1]
            assert isinstance(fn_name, Name)
            args = [go(a) for a in e.children[2:]]
            for bound in sorted(graph.bindings(fn_name.label), key=lambda l: l.id):
                if bound in extra_args:
                    args += extra_args[bound]
                    break
            return Compound((e.children[0], fn_name) + tuple(args))
        return Compound(tuple(go(c) for c in e.children))

    new_fdefs = [
        fdef(fdef_name(f), fdef_params(f), go(fdef_body(f))) for f in prog_fdefs(p)
    ]
    new_main = [go(e) for e in prog_main(p)]
    return prog(new_fdefs + lifted, new_main)


def lambda_lift(p: Term) -> Term:
    """Capture-avoiding lambda lifting: lift first, repair afterwards."""
    gs = resolve_simpl(p)
    return name_fix(gs, lift_prog(p, gs), SIMPL_RESOLVER).term
