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
from functools import partial
from itertools import repeat
from operator import attrgetter
from typing import Iterator, Mapping, Sequence

from . import term
from .fix import name_fix
from .graph import Bind, NameGraph, Resolver, scoped_names
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
    fold,
    iter_names,
    literal,
    share,
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
_PUNCT = frozenset({"==", "=", ";", "(", ")", ",", "+", "*", "!"})  # as in _TOKEN
_WORD = r"[A-Za-z_][A-Za-z0-9_-]*"
_TOKEN = token_pattern(rf"==|[=;(),+*!]|\d+|\"(?:[^\"\\]|\\.)*\"|{_WORD}(?:@'?\d+)?")


def is_plain_name(text: str) -> bool:
    """Whether text scans whole as one name token, unpinned and no keyword."""
    return re.fullmatch(_WORD, text) is not None and text not in _KEYWORDS


class _Parser(Scanner):
    def __init__(self, src: str) -> None:
        # end of input is reported just past the last token
        super().__init__(src, _TOKEN, _KEYWORDS | _PUNCT, ParseError, len(src.rstrip()))

    def parse_program(self) -> Compound:
        fdefs: list[Term] = []
        while self.kinds[self.i] == "fun":
            fdefs.append(self.parse_fdef())
        main: list[Term] = []
        if self.kinds[self.i] != END:
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
        if self.kinds[self.i] != ")":
            params.append(self.name(self.next("name")))
            while self.kinds[self.i] == ",":
                self.i += 1
                params.append(self.name(self.next("name")))
        self.next(")")
        return params

    def parse_exp(self) -> Term:
        # One loop with a stack of its own, so nesting is bounded by memory
        # only. The locals describe the expression being read: the left side
        # of its `==`, the sum of the products before the one being read,
        # that product's left factor before a `*`, and the number of `!`s
        # before the operand being read. A subexpression pushes a frame
        # whose first field says what ends it:
        #   (")", lhs, total, left, nots)             a parenthesised one
        #   (",", lhs, total, left, nots, fn, args)   a call argument
        #   ("in", binder) / ("in", name, params)     a let initializer / a
        #                                             local function's body
        #   ("then",) / ("else", cond)                an if's condition / branch
        #   ("tail", head)                            what follows a let, a let
        #                                             fun or an if: head(e) is
        #                                             the enclosing expression
        #   (None,)                                   the expression read
        kinds = self.kinds
        i = self.i
        stack: list[tuple] = [(None,)]
        push = stack.append
        pop = stack.pop
        lhs = total = left = None
        nots = 0
        start = True  # at the start of an expression, where a head may come
        while True:
            if start:
                kind = kinds[i]
                while kind == "let" or kind == "if":
                    if kind == "if":
                        i += 1
                        push(("then",))
                    else:
                        self.i = i + 1
                        if kinds[i + 1] == "fun":
                            self.i = i + 2
                            name = self.name(self.next("name"))
                            push(("in", name, self.parse_params()))
                        else:
                            push(("in", self.name(self.next("name"))))
                        self.next("=")
                        i = self.i
                    kind = kinds[i]
            # An operand: any `!`s, then a constant, name, call, error() or
            # parenthesised expression.
            j = i
            while kinds[j] == "!":
                j += 1
            nots = j - i
            kind = kinds[j]
            i = j + 1
            if kind == "name":
                e = self.name(j)
                if kinds[i] == "(":
                    i += 1
                    if kinds[i] != ")":
                        push((",", lhs, total, left, nots, e, []))
                        lhs = total = left = None
                        start = True
                        continue
                    i += 1
                    e = call(e, ())
            elif kind == "int":
                e = Const(self.integer(j))
            elif kind == "(":
                push((")", lhs, total, left, nots))
                lhs = total = left = None
                start = True
                continue
            elif kind == "str":
                e = Const(self.texts[j][1:-1].replace('\\"', '"').replace("\\\\", "\\"))
            elif kind == "error":
                self.i = i
                self.next("(")
                self.next(")")
                i = self.i
                e = error_call()
            else:
                self.i = j
                self.next("name")  # raises: no operand starts here
            # e is an operand read. Apply what precedes it, then continue
            # after it with an operator, or end the expressions it ends.
            while True:
                while nots:
                    e = not_(e)
                    nots -= 1
                if left is not None:
                    e = mul(left, e)
                    left = None
                kind = kinds[i]
                if kind == "*":
                    left = e
                elif kind == "+":
                    total = e if total is None else add(total, e)
                elif lhs is None and kind == "==":
                    # `==` does not associate: a second one ends the expression.
                    lhs = e if total is None else add(total, e)
                    total = None
                else:
                    if total is not None:
                        e = add(total, e)
                        total = None
                    if lhs is not None:
                        e = eq(lhs, e)
                        lhs = None
                    frame = pop()
                    while frame[0] == "tail":
                        e = frame[1](e)
                        frame = pop()
                    ends = frame[0]
                    if ends is None:
                        self.i = i
                        return e
                    if ends == ",":
                        frame[6].append(e)
                        if kind == ",":
                            i += 1
                            push(frame)
                            start = True
                            break
                        e = call(frame[5], frame[6])
                        ends = ")"
                    if kind != ends:
                        self.i = i
                        self.next(ends)  # raises
                    i += 1
                    if ends == ")":
                        _, lhs, total, left, nots = frame[:5]
                        continue
                    if ends == "then":
                        push(("else", e))
                    elif ends == "else":
                        push(("tail", partial(if_, frame[1], e)))
                    elif len(frame) == 2:
                        push(("tail", partial(let, frame[1], e)))
                    else:
                        push(("tail", partial(letfun, fdef(frame[1], frame[2], e))))
                    start = True
                    break
                i += 1
                start = False
                break


def parse_simpl(src: str) -> Compound:
    return _Parser(src).parse(_Parser.parse_program)


def parse_simpl_exp(src: str) -> Term:
    return _Parser(src).parse(_Parser.parse_exp)


# ---------------------------------------------------------------------------
# Name resolution

# Binding forms (`graph.Scopes`), in one namespace. Function names,
# parameters and let binders are declarations. A let binds its body only; a
# local function's name is visible in its own definition and the let body;
# a function's parameters are visible in its body.

def _let(e: Compound, env: E, bind: Bind) -> Pairs:
    binder = e.children[1]
    return ((binder, None), (e.children[2], env), (e.children[3], bind(env, (binder,))))


def _letfun(e: Compound, env: E, bind: Bind) -> Pairs:
    _, fn, body = e.children
    inner = bind(env, (fn.children[1],))
    return ((fn, inner), (body, inner))


def _fdef(e: Compound, env: E, bind: Bind) -> Pairs:
    _, n, params, body = e.children
    names = params.children[1:]
    return ((n, None), *zip(names, repeat(None)), (body, bind(env, names)))


SCOPES = {"let": _let, "letfun": _letfun, "fdef": _fdef}


def top_declarations(p: Term) -> Iterator[Name]:
    """The names of p's top-level functions, visible everywhere (mutual
    recursion)."""
    return map(fdef_name, prog_fdefs(p))


# Single-namespace lexical scoping.
SIMPL_RESOLVER = Resolver("simpl", scopes=SCOPES, top=top_declarations)
resolve_simpl = SIMPL_RESOLVER.resolve


def declarations_of(p: Term) -> frozenset[Label]:
    """Labels in declaration position: function names, parameters, and
    let/letfun binders."""
    return frozenset([n.label for n, env in scoped_names(p, (), SCOPES, _no_scope) if env is None])


def _no_scope(env: tuple, names: Sequence[Name]) -> tuple:
    """A `bind` for a walk that tells declarations from the rest only."""
    return env


# ---------------------------------------------------------------------------
# Pretty printing

def pretty_simpl(p: Term, show_labels: bool = False) -> str:
    """The text of a program (its function definitions, then its main
    expressions, one a line), of an expression, a name or a constant.

    One explicit-stack loop prints top-down. At each compound it decides
    the parentheses from the compound's tag and the precedence its
    position needs (0 = let/if, 1 = eq, 2 = add, 3 = mul, 4 = unary/atom),
    then prints the compound's first part at once and stacks the rest, in
    reverse: pieces of text, and (term, precedence) pairs. The pieces go to
    one list, joined once."""
    name = show_name if show_labels else attrgetter("text")

    def header(f: Compound) -> str:
        """`name(params) = `: a function definition up to its body."""
        _, fname, params, _ = f.children
        return f"{name(fname)}({', '.join(map(name, params.children[1:]))}) = "

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
            if t == "if":
                if level:
                    append("(")
                    push(")")
                append("if ")
                push((c[3], 0))
                push(" else ")
                push((c[2], 0))
                push(" then ")
                x, level = c[1], 1
            elif t == "eq":
                if level > 1:
                    append("(")
                    push(")")
                push((c[2], 2))
                push(" == ")
                x, level = c[1], 2
            elif t == "call":
                append(f"{name(c[1])}(")
                push(")")
                if len(c) == 2:
                    break
                for a in reversed(c[3:]):
                    push((a, 0))
                    push(", ")
                x, level = c[2], 0
            elif t == "add":
                if level > 2:
                    append("(")
                    push(")")
                push((c[2], 3))
                push(" + ")
                x, level = c[1], 2
            elif t == "let":
                if level:
                    append("(")
                    push(")")
                append(f"let {name(c[1])} = ")
                push((c[3], 0))
                push(" in ")
                x, level = c[2], 0
            elif t == "mul":
                if level > 3:
                    append("(")
                    push(")")
                push((c[2], 4))
                push(" * ")
                x, level = c[1], 3
            elif t == "not":
                append("!")
                x, level = c[1], 4
            elif t == "error":
                append("error()")
                break
            elif t == "letfun":
                if level:
                    append("(")
                    push(")")
                append("let fun " + header(c[1]))
                push((c[2], 0))
                push(" in ")
                x, level = c[1].children[3], 0
            elif t == "prog":
                fdefs, main = c[1].children[1:], c[2].children[1:]
                if not fdefs and not main:
                    append("\n")
                for e in reversed(main):
                    push("\n")
                    push((e, 0))
                for f in reversed(fdefs):
                    push(";\n")
                    push((f.children[3], 0))
                    push("fun " + header(f))
                break
            else:
                raise ValueError(f"not an expression: {x!r}")
    return "".join(out)


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

def _call(e: Compound, env: E, bind: Bind) -> Pairs:
    """A called function's name is kept apart, as a declaration is."""
    return ((e.children[1], None), *zip(e.children[2:], repeat(env)))


# The binding forms, and a call's head, which substitution leaves alone.
_SUBST_SCOPES = {**SCOPES, "call": _call}


def subst_exp_many(e: Term, sub: Mapping[str, Term]) -> Term:
    """Simultaneous name-driven substitution. Deliberately capturing:
    shadowed binders cut off substitution, nothing is renamed. A reference
    is replaced, unless it names a called function or a local binder above
    it (`SCOPES`; top-level functions do not count) declares its spelling."""
    if not sub:
        return e

    def hide(env: frozenset[str], names: Sequence[Name]) -> frozenset[str]:
        """The spellings of sub that `names` declare, on top of `env`'s:
        the only ones a scope needs here."""
        hidden = [n.text for n in names if n.text in sub]
        return env.union(hidden) if hidden else env

    # fold meets the names in the order scoped_names lists them.
    substituted = iter([
        n if env is None or n.text in env else sub.get(n.text, n)
        for n, env in scoped_names(e, frozenset(), _SUBST_SCOPES, hide)
    ])
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
