"""A small procedural language: global first-order functions, let bindings,
local function definitions, conditionals, and a few operators.

Functions and let-bound variables share one namespace. The module also hosts
the transformations defined over the language: substitution, function
inlining, and lambda lifting, each made capture-avoiding by a final repair
pass against the source program's name graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import attrgetter
from typing import Callable, Iterator, Mapping, Sequence

from . import term
from .fix import name_fix
from .graph import Bind, NameGraph, Resolver
from .term import (
    END,
    E,
    Compound,
    Const,
    Label,
    LabelAllocator,
    Name,
    Pairs,
    Scanner,
    Term,
    compound,
    descend,
    fold,
    iter_names,
    share,
    operand,
    show_name,
    spellings,
    subterms,
    tag,
    token_pattern,
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

class ParseError(term.ParseError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col

    @classmethod
    def at(cls, message: str, src: str, offset: int) -> "ParseError":
        line = src.count("\n", 0, offset) + 1
        return cls(message, line, offset - src.rfind("\n", 0, offset))


_KEYWORDS = frozenset({"fun", "let", "in", "if", "then", "else", "error"})

_TOKEN = token_pattern(
    r"(?P<punct>==|[=;(),+*!])"
    r"|(?P<int>\d+)"
    r"|(?P<str>\"(?:[^\"\\]|\\.)*\")"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_-]*(?:@'?\d+)?)"
)


def is_plain_name(text: str) -> bool:
    """Whether text scans whole as one name token, unpinned and no keyword."""
    m = _TOKEN.fullmatch(text)
    return m is not None and m.lastgroup == "name" and "@" not in text and text not in _KEYWORDS


class _Parser(Scanner):
    def __init__(self, src: str) -> None:
        # end of input is reported just past the last token
        super().__init__(src, _TOKEN, _KEYWORDS, ParseError, len(src.rstrip()))

    def parse_program(self) -> Compound:
        fdefs: list[Term] = []
        while self.at("fun"):
            fdefs.append(self.parse_fdef())
        main: list[Term] = []
        if not self.at(END):
            main.append(self.parse_exp())
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
        # The tail of a let, a let fun or an if, its last part, is parsed by
        # this loop: a chain of them nests as deep as memory allows. Every
        # other part recurses.
        heads: list[Callable[[Term], Compound]] = []
        while self.at("let") or self.at("if"):
            if self.next()[0] == "let":
                if self.at("fun"):
                    self.next()
                    name = self.name(self.next("name"))
                    params = self.parse_params()
                    self.next("=")
                    fbody = self.parse_exp()
                    self.next("in")
                    heads.append(partial(letfun, fdef(name, params, fbody)))
                else:
                    binder = self.name(self.next("name"))
                    self.next("=")
                    init = self.parse_exp()
                    self.next("in")
                    heads.append(partial(let, binder, init))
            else:
                cond = self.parse_exp()
                self.next("then")
                then = self.parse_exp()
                self.next("else")
                heads.append(partial(if_, cond, then))
        e = self.parse_eq()
        while heads:
            e = heads.pop()(e)
        return e

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
        nots = 0
        while self.at("!"):
            self.next()
            nots += 1
        e = self.parse_atom()
        while nots:
            e = not_(e)
            nots -= 1
        return e

    def parse_atom(self) -> Term:
        if self.at("int"):
            return Const(self.integer(self.next()))
        if self.at("str"):
            raw = self.next()[1]
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
    return _Parser(src).parse(_Parser.parse_program)


def parse_simpl_exp(src: str) -> Term:
    return _Parser(src).parse(_Parser.parse_exp)


# ---------------------------------------------------------------------------
# Name resolution

def scopes(e: Compound, env: E, bind: Bind) -> Pairs:
    """Binding forms (`graph.Scopes`), in one namespace. A let binds its
    body only; a local function's name is visible in its own definition and
    the let body; a function's parameters are visible in its body. Function
    names, parameters and let binders are declarations."""
    t = tag(e)
    if t == "let":
        binder = e.children[1]
        return ((binder, None), (e.children[2], env), (e.children[3], bind(env, (binder,))))
    if t == "letfun":
        _, fn, body = e.children
        inner = bind(env, (fn.children[1],))
        return ((fn, inner), (body, inner))
    if t == "fdef":
        _, n, params, body = e.children
        names = params.children[1:]
        return ((n, None), *zip(names, repeat(None)), (body, bind(env, names)))
    return zip(e.children[1:] if t else e.children, repeat(env))


def top_declarations(p: Term) -> Iterator[Name]:
    """The names of p's top-level functions, visible everywhere (mutual
    recursion)."""
    return map(fdef_name, prog_fdefs(p))


# Single-namespace lexical scoping.
SIMPL_RESOLVER = Resolver("simpl", scopes=scopes, top=top_declarations)
resolve_simpl = SIMPL_RESOLVER.resolve


def declarations_of(p: Term) -> frozenset[Label]:
    """Labels in declaration position: function names, parameters, and
    let/letfun binders."""
    out: set[Label] = set()

    def rule(e: Term, env: tuple | None) -> Pairs:
        if e.__class__ is Compound:
            return scopes(e, env, _no_scope)
        if env is None:
            out.add(e.label)
        return ()

    descend(p, (), rule)
    return frozenset(out)


def _no_scope(env: tuple, names: Sequence[Name]) -> tuple:
    """A `bind` for a walk that tells declarations from the rest only."""
    return env


# ---------------------------------------------------------------------------
# Pretty printing

def pretty_simpl(p: Term, show_labels: bool = False) -> str:
    return operand(fold(p, show_name if show_labels else attrgetter("text"), _print), 0)


def _print(e: Compound, parts: list) -> object:
    """fold rule of pretty_simpl. An expression prints as (text,
    precedence), with 0 = let/if, 1 = eq, 2 = add, 3 = mul, 4 = unary/atom;
    a function definition as (name, parameters, body); a program as its
    text."""
    t = parts[0].value
    if t == "if":
        return f"if {operand(parts[1], 1)} then {operand(parts[2], 0)} else {operand(parts[3], 0)}", 0
    if t == "eq":
        return f"{operand(parts[1], 2)} == {operand(parts[2], 2)}", 1
    if t == "call":
        return f"{parts[1]}({', '.join([operand(a, 0) for a in parts[2:]])})", 4
    if t == "let":
        return f"let {parts[1]} = {operand(parts[2], 0)} in {operand(parts[3], 0)}", 0
    if t == "add":
        return f"{operand(parts[1], 2)} + {operand(parts[2], 3)}", 2
    if t == "mul":
        return f"{operand(parts[1], 3)} * {operand(parts[2], 4)}", 3
    if t == "not":
        return f"!{operand(parts[1], 4)}", 4
    if t == "letfun":
        fname, params, body = parts[1]
        return f"let fun {fname}({params}) = {body} in {operand(parts[2], 0)}", 0
    if t == "fdef":
        return parts[1], parts[2], operand(parts[3], 0)
    if t == "params":
        return ", ".join(parts[1:])
    if t == "error":
        return "error()", 4
    if t in ("fdefs", "main"):
        return parts[1:]
    if t == "prog":
        lines = [f"fun {fname}({params}) = {body};" for fname, params, body in parts[1]]
        return "\n".join(lines + [operand(x, 0) for x in parts[2]]) + "\n"
    raise ValueError(f"not an expression: {e!r}")


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
        # The taken branch of an if and the body of a let or letfun run in
        # this frame: only operands and calls deepen the Python stack.
        while True:
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
                e, env = body, {**env, binder.text: value}
                continue
            if t == "letfun":
                fn, body = e.children[1], e.children[2]
                inner: dict[str, object] = dict(env)
                closure = _Closure(fn, inner)
                inner[fdef_name(fn).text] = closure
                e, env = body, inner
                continue
            if t == "if":
                cond = ev(e.children[1], env)
                e = e.children[2] if cond != 0 else e.children[3]
                continue
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
    shadowed binders cut off substitution, nothing is renamed. A reference
    is replaced, unless it names a called function or a local binder above
    it (`scopes`; top-level functions do not count) declares its spelling."""
    if not sub:
        return e
    # What replaces a name depends on the binders above it, which descend
    # tracks. The result is rebuilt by fold, which meets the names in the
    # same order, as long as the rule below visits every name in order.
    replacements: list[Term] = []

    def hide(env: frozenset[str], names: Sequence[Name]) -> frozenset[str]:
        """The spellings of sub that `names` declare, on top of `env`'s:
        the only ones a scope needs here."""
        hidden = [n.text for n in names if n.text in sub]
        return env.union(hidden) if hidden else env

    def rule(x: Term, env: frozenset[str] | None) -> Pairs:
        kind = x.__class__
        if kind is Name:
            replacements.append(x if env is None or x.text in env else sub.get(x.text, x))
            return ()
        if kind is Const:
            return ()
        if tag(x) == "call":
            return ((x.children[1], None), *zip(x.children[2:], repeat(env)))
        return scopes(x, env, hide)

    descend(e, frozenset(), rule)
    substituted = iter(replacements)
    return fold(e, lambda _: next(substituted))


def subst_prog(p: Term, x: str, repl: Term) -> Term:
    """Naive substitution of repl for x in the program p."""
    return subst_exp_many(p, {x: repl})


def subst(p: Term, x: str, repl: Term) -> Term:
    """Capture-avoiding substitution: substitute first, repair afterwards."""
    return name_fix(resolve_simpl(p), subst_prog(p, x, repl), SIMPL_RESOLVER).term


# ---------------------------------------------------------------------------
# Inlining

def _relabel_copy(body: Term, graph: NameGraph, alloc: LabelAllocator) -> Term:
    """Copy a function body for one call site: declarations inside the copy
    and the references bound to them get one fresh label per original."""
    fresh: dict[Label, Label] = {
        d: alloc.fresh() for d in sorted(declarations_of(body))
    }

    def relabel(n: Name) -> Name:
        new = fresh.get(n.label)
        if new is None:
            for bound in sorted(graph.bindings(n.label)):
                if bound in fresh:
                    new = fresh[bound]
                    break
        return Name(n.text, new) if new is not None else n

    return fold(body, relabel)


def inline_prog(p: Term, fname: str, graph: NameGraph) -> Term:
    """Naive inlining: expand every call to a top-level function spelled
    fname with the function `graph` (the name graph of p) binds its head
    to. Nothing is renamed. Each call site is expanded exactly once; calls
    inside inserted copies (recursion) are left alone.
    """
    # By label, last to first: of two sharing a label the first stays, as the resolver binds.
    targets = {
        fdef_name(f).label: f for f in reversed(prog_fdefs(p)) if fdef_name(f).text == fname
    }
    if not targets:
        raise UnknownFunction(fname)
    # reference label -> the function the graph binds it to
    callee = {r: targets[d] for r, d in graph.edges if d in targets}
    alloc = LabelAllocator.after(graph.labels)

    # Post-order, so a call's arguments are expanded before the call is.
    def expand(e: Compound, parts: list[Term]) -> Term:
        target = callee.get(e.children[1].label) if tag(e) == "call" else None
        if target is None:
            return share(e, parts)
        params = fdef_params(target)
        args = parts[2:]
        if len(args) != len(params):
            raise ArityMismatch(f"{fname} expects {len(params)} args, got {len(args)}")
        body = _relabel_copy(fdef_body(target), graph, alloc)
        return subst_exp_many(body, {q.text: a for q, a in zip(params, args)})

    return fold(p, node=expand)


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
    # local functions in preorder
    local = {fdef_name(e.children[1]).label: e.children[1] for e in subterms(p) if tag(e) == "letfun"}
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
        f: [Name(spell[d], d) for d in sorted(needed)]
        for f, needed in need.items()
    }

    lifted: list[Term] = []

    # Post-order, so a local function is lifted after the functions local
    # to its body, and before those of the let body it scopes over.
    def hoist(e: Compound, parts: list[Term]) -> Term:
        t = tag(e)
        if t == "fdef" and fdef_name(e).label in extra_args:
            _, name, params, body = parts
            lifted.append(fdef(name, params.children[1:] + tuple(extra_args[name.label]), body))
        elif t == "letfun":
            return parts[2]
        elif t == "call":
            fn_name = e.children[1]
            assert isinstance(fn_name, Name)
            for bound in sorted(graph.bindings(fn_name.label)):
                if bound in extra_args:
                    return Compound((*parts, *extra_args[bound]))
        elif t == "prog":
            _, fdefs, main = parts
            return prog(fdefs.children[1:] + tuple(lifted), main.children[1:])
        return share(e, parts)

    return fold(p, node=hoist)


def lambda_lift(p: Term) -> Term:
    """Capture-avoiding lambda lifting: lift first, repair afterwards."""
    gs = resolve_simpl(p)
    return name_fix(gs, lift_prog(p, gs), SIMPL_RESOLVER).term
