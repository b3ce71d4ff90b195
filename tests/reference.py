"""Reference versions of the repair loop and of the tree walks.

Each query here walks the whole term or scans the whole graph on every
call, which is the plain reading of the paper's definitions. The library
answers the same queries from one spelling map per term and one index per
graph; the differential suite in test_oracle.py requires both to agree.
It also keeps the lambda lifting that derived its scoping by itself, as
the oracle for the library's version, which reads it off the name graph,
and the state-machine resolver as two loops over the states, as the oracle
for the library's, which `Resolver` derives from the machine's binding
forms through the shared `graph.BindingFrames`, as it does every bundled
resolver. Each resolver here rejects a term that carries one label id
with two spellings or under both provenances (`resolved_labels`), as the
library's resolve does, by a walk of its own.

The tree walks below are plain recursive functions, one per walk, as the
library had them before it ran every walk through the explicit-stack
traversal of `namefix.term`. They overflow the Python stack on deep terms,
so the differential suite gives them terms of ordinary depth. Last come
the helpers only tests use.
"""

from __future__ import annotations

from namefix.fix import (
    CaptureEdge,
    CaptureKind,
    CaptureSet,
    FixResult,
    FixStep,
    FixTrace,
    IterationBudgetExceeded,
    RenamingPair,
)
from typing import Callable, Mapping, Sequence

from namefix import term
from namefix.graph import NameGraph, Resolver
from namefix.simpl import (
    CALL,
    FDEFS,
    ArityMismatch,
    UnknownFunction,
    fdef,
    fdef_body,
    fdef_name,
    fdef_params,
    let,
    letfun,
    prog,
    prog_fdefs,
    prog_main,
)
from namefix.statemachine import machine_states, state_name, state_transitions, trans_target
from namefix.term import (
    Compound,
    Const,
    InconsistentLabel,
    Label,
    LabelAllocator,
    LabelNotFound,
    Name,
    Provenance,
    Term,
    compound,
    fold,
    iter_names,
    show_name,
    spellings,
    tag,
)


# ---------------------------------------------------------------------------
# Term and graph queries, one walk or scan per call

def name_at(t: Term, v: Label) -> str:
    text: str | None = None
    for node in iter_names(t):
        if node.label == v:
            if text is None:
                text = node.text
            elif text != node.text:
                raise InconsistentLabel(
                    f"label {v!r} occurs as both {text!r} and {node.text!r}"
                )
    if text is None:
        raise LabelNotFound(f"label {v!r} does not occur in term")
    return text


def labels_of(t: Term) -> frozenset[Label]:
    seen: dict[int, tuple[Label, str]] = {}
    for node in iter_names(t):
        prior = seen.get(node.label.id)
        if prior is None:
            seen[node.label.id] = (node.label, node.text)
        elif prior[1] != node.text:
            raise InconsistentLabel(
                f"label {node.label!r} occurs as both {prior[1]!r} and {node.text!r}"
            )
    return frozenset(label for label, _ in seen.values())


def resolved_labels(t: Term) -> frozenset[Label]:
    """The labels of t, as a resolver gives them: each id must occur with
    one spelling and one provenance, else InconsistentLabel."""
    seen: dict[int, Name] = {}
    for node in iter_names(t):
        prior = seen.setdefault(node.label.id, node)
        if prior.text != node.text:
            raise InconsistentLabel(
                f"label {prior.label!r} occurs as both {prior.text!r} and {node.text!r}"
            )
        if prior.label.provenance is not node.label.provenance:
            raise InconsistentLabel(
                f"label id {node.label.id} occurs as both {prior.label!r} and {node.label!r}"
            )
    return frozenset(node.label for node in seen.values())


def names_of(t: Term) -> frozenset[str]:
    return frozenset(node.text for node in iter_names(t))


def bindings(g: NameGraph, ref: Label) -> frozenset[Label]:
    return frozenset(d for r, d in g.edges if r == ref)


def find(g: NameGraph, label_id: int) -> Label | None:
    for lbl in g.labels:
        if lbl.id == label_id:
            return lbl
    return None


def counts_as_source(g: NameGraph, v: Label) -> bool:
    w = find(g, v.id)
    return w is not None and w.provenance is v.provenance


# ---------------------------------------------------------------------------
# The repair loop built on those queries

def gensym(base: str, used: frozenset[str] | set[str]) -> str:
    """base plus the smallest decimal suffix avoiding `used`: never base."""
    k = 0
    while True:
        candidate = f"{base}{k}"
        if candidate not in used:
            return candidate
        k += 1


def find_capture(gs: NameGraph, gt: NameGraph) -> CaptureSet:
    edges: set[CaptureEdge] = set()
    for v, target in gt.edges:
        if counts_as_source(gs, v):
            bound = bindings(gs, v)
            if bound:
                if target not in bound:
                    edges.add(CaptureEdge(v, target, CaptureKind.SOURCE_REBOUND))
            elif v != target:
                edges.add(CaptureEdge(v, target, CaptureKind.SOURCE_FREE_CAPTURED))
        elif counts_as_source(gs, target):
            edges.add(CaptureEdge(v, target, CaptureKind.SYNTHESIZED_CAPTURED))
    return CaptureSet(frozenset(edges))


def comp_renaming(
    gs: NameGraph, gt: NameGraph, t: Term, capture: CaptureSet
) -> RenamingPair:
    if not capture:
        raise ValueError("comp_renaming requires a nonempty capture set")
    pi_src: dict[Label, str] = {}
    pi_syn: dict[Label, str] = {}
    term_names = names_of(t)
    walked: dict[Label, str] = {}

    def spelled(v: Label) -> str:
        # name_at(t, v), walking t at most once per label: machines with
        # many captures ask for every label once per capture.
        if v not in walked:
            walked[v] = name_at(t, v)
        return walked[v]

    for v_d in sorted(capture.captured_declarations, key=lambda l: l.id):
        used = term_names | set(pi_src.values()) | set(pi_syn.values())
        fresh = gensym(spelled(v_d), used)
        if counts_as_source(gs, v_d):
            if v_d not in pi_src:
                pi_src[v_d] = fresh
                for v_r, bound in gs.edges:
                    if bound == v_d:
                        pi_src[v_r] = fresh
        elif v_d not in pi_syn:
            target_name = spelled(v_d)
            for v in gt.labels:
                if not counts_as_source(gs, v) and spelled(v) == target_name:
                    pi_syn[v] = fresh
    return RenamingPair(pi_src, pi_syn)


def rename(t: Term, pi: Mapping[Label, str]) -> Term:
    """A fold over the whole term per call."""
    if not pi:
        return t

    def respell(n: Name) -> Name:
        new_text = pi.get(n.label)
        return n if new_text is None or new_text == n.text else Name(new_text, n.label)

    return fold(t, respell)


def name_fix(gs: NameGraph, t: Term, r: Resolver) -> FixResult:
    budget = len(labels_of(t))
    steps: list[FixStep] = []
    current = t
    while True:
        gt = r.resolve(current)
        capture = find_capture(gs, gt)
        if not capture:
            return FixResult(current, FixTrace(tuple(steps)))
        if len(steps) >= budget:
            raise IterationBudgetExceeded(
                f"capture repair did not converge within {budget} rounds"
            )
        pair = comp_renaming(gs, gt, current, capture)
        current = rename(current, pair.combined())
        steps.append(FixStep(capture, pair, current))


# ---------------------------------------------------------------------------
# Lambda lifting with its own scope analysis: a walk that tells references
# from declarations and hand-built declaration sets per local function

def lift_prog(p: Term, graph: NameGraph) -> Term:
    """Naive lambda lifting: hoist every local function to the top level,
    given the name graph of p. Nothing is renamed.

    Let- and parameter-bound variables used (transitively) by a local
    function are passed as extra trailing arguments; the binding structure
    is read off the name graph of the unlifted program.
    """
    # Gather local functions with the declarations made inside each.
    locals_: list[Term] = []
    inside: dict[Label, frozenset[Label]] = {}

    def scan(e: Term) -> None:
        if tag(e) == "letfun":
            fn = e.children[1]
            locals_.append(fn)
            fn_decls = {fdef_name(fn).label} | {q.label for q in fdef_params(fn)}
            inside[fdef_name(fn).label] = frozenset(
                fn_decls | declarations_of(compound(FDEFS, fdef_body(fn)))
            )
            scan(fdef_body(fn))
            scan(e.children[2])
        elif isinstance(e, Compound):
            for c in e.children:
                scan(c)

    scan(p)
    if not locals_:
        return p

    local_fns = {fdef_name(fn).label for fn in locals_}
    var_decls = declarations_of(p) - local_fns - {fdef_name(f).label for f in prog_fdefs(p)}

    def refs_in(e: Term) -> list[Name]:
        out: list[Name] = []

        def walk(x: Term) -> None:
            if isinstance(x, Name):
                out.append(x)
            elif tag(x) == "let":
                walk(x.children[2])
                walk(x.children[3])
            elif tag(x) == "letfun":
                walk(fdef_body(x.children[1]))
                walk(x.children[2])
            elif tag(x) == "call":
                fn_name = x.children[1]
                assert isinstance(fn_name, Name)
                out.append(fn_name)
                for a in x.children[2:]:
                    walk(a)
            elif isinstance(x, Compound):
                for c in x.children[1:] if tag(x) else x.children:
                    walk(c)

        walk(e)
        return out

    direct: dict[Label, set[Label]] = {}
    calls: dict[Label, set[Label]] = {}
    for fn in locals_:
        f_label = fdef_name(fn).label
        needs: set[Label] = set()
        called: set[Label] = set()
        for ref in refs_in(fdef_body(fn)):
            for bound in graph.bindings(ref.label):
                if bound in var_decls and bound not in inside[f_label]:
                    needs.add(bound)
                elif bound in local_fns and bound != f_label:
                    called.add(bound)
        direct[f_label] = needs
        calls[f_label] = called

    # Transitive closure: a caller must be able to supply what its callees need.
    need = {f: set(s) for f, s in direct.items()}
    changed = True
    while changed:
        changed = False
        for f, called in calls.items():
            for g in called:
                extra = need[g] - inside[f] - need[f]
                if extra:
                    need[f] |= extra
                    changed = True

    extra_params: dict[Label, list[Label]] = {
        f: sorted((d for d in needed if d not in inside[f]), key=lambda l: l.id)
        for f, needed in need.items()
    }
    decl_text = spellings(p)

    lifted: list[Term] = []

    def go(e: Term) -> Term:
        if not isinstance(e, Compound):
            return e
        t = tag(e)
        if t == "letfun":
            fn = e.children[1]
            f_label = fdef_name(fn).label
            new_params = tuple(fdef_params(fn)) + tuple(
                Name(decl_text[d], d) for d in extra_params[f_label]
            )
            new_body = go(fdef_body(fn))
            lifted.append(fdef(fdef_name(fn), new_params, new_body))
            return go(e.children[2])
        if t == "call":
            fn_name = e.children[1]
            assert isinstance(fn_name, Name)
            args = [go(a) for a in e.children[2:]]
            for bound in sorted(graph.bindings(fn_name.label), key=lambda l: l.id):
                if bound in extra_params:
                    args += [Name(decl_text[d], d) for d in extra_params[bound]]
                    break
            return Compound((e.children[0], fn_name) + tuple(args))
        return Compound(tuple(go(c) for c in e.children))

    new_fdefs = [
        fdef(fdef_name(f), fdef_params(f), go(fdef_body(f))) for f in prog_fdefs(p)
    ]
    new_main = [go(e) for e in prog_main(p)]
    return prog(new_fdefs + lifted, new_main)


# ---------------------------------------------------------------------------
# The resolvers' pick among same-spelled top-level declarations, as a scan

def pick_declaration(candidates: Sequence[Label], ref: Label) -> Label:
    """The resolvers' rule for same-spelled duplicate declarations: the one
    carrying the reference's id, else the last one."""
    return next((c for c in candidates if c.id == ref.id), candidates[-1])


# ---------------------------------------------------------------------------
# The state-machine resolver with its own loops

def resolve_machine(m: Term) -> NameGraph:
    decls: dict[str, list[Label]] = {}
    for s in machine_states(m):
        n = state_name(s)
        decls.setdefault(n.text, []).append(n.label)
    edges: set[tuple[Label, Label]] = set()
    for s in machine_states(m):
        for t in state_transitions(s):
            target = trans_target(t)
            candidates = decls.get(target.text)
            if candidates:
                edges.add((target.label, pick_declaration(candidates, target.label)))
    return NameGraph(resolved_labels(m), edges)


# ---------------------------------------------------------------------------
# Recursive tree walks

def map_names(t: Term, f: Callable[[Name], Name]) -> Term:
    if isinstance(t, Name):
        return f(t)
    if isinstance(t, Compound):
        new_children = tuple(map_names(c, f) for c in t.children)
        if all(a is b for a, b in zip(new_children, t.children)):
            return t
        return Compound(new_children)
    return t


def label_equiv(t1: Term, t2: Term) -> bool:
    if isinstance(t1, Const) and isinstance(t2, Const):
        return t1.value == t2.value
    if isinstance(t1, Name) and isinstance(t2, Name):
        return t1.label == t2.label
    if isinstance(t1, Compound) and isinstance(t2, Compound):
        return len(t1.children) == len(t2.children) and all(
            label_equiv(a, b) for a, b in zip(t1.children, t2.children)
        )
    return False


def term_eq(t1: Term, t2: Term) -> bool:
    """Structural equality, as the dataclass-generated Compound.__eq__ had it."""
    if isinstance(t1, Compound) and isinstance(t2, Compound):
        return len(t1.children) == len(t2.children) and all(
            term_eq(a, b) for a, b in zip(t1.children, t2.children)
        )
    return type(t1) is type(t2) and not isinstance(t1, Compound) and t1 == t2


class _Shown(str):
    """A string that is its own repr."""

    __repr__ = str.__str__


def term_repr(t: Term) -> str:
    """repr, as Compound's dataclass-style `"Compound" + repr(children)` had it."""
    if isinstance(t, Compound):
        return "Compound" + repr(tuple(_Shown(term_repr(c)) for c in t.children))
    return repr(t)


def alpha_equiv_relabel(p1: Term, p2: Term, r: Resolver) -> bool:
    mapping: dict[int, int] = {}
    reverse: dict[int, int] = {}

    def match(a: Term, b: Term) -> bool:
        if isinstance(a, Const) and isinstance(b, Const):
            return a.value == b.value
        if isinstance(a, Name) and isinstance(b, Name):
            fwd = mapping.setdefault(a.label.id, b.label.id)
            bwd = reverse.setdefault(b.label.id, a.label.id)
            return fwd == b.label.id and bwd == a.label.id
        if isinstance(a, Compound) and isinstance(b, Compound):
            return len(a.children) == len(b.children) and all(
                match(x, y) for x, y in zip(a.children, b.children)
            )
        return False

    if not match(p1, p2):
        return False
    edges1 = {(r1.id, d1.id) for r1, d1 in r.resolve(p1).edges}
    edges2 = {(r2.id, d2.id) for r2, d2 in r.resolve(p2).edges}
    return {(mapping[a], mapping[b]) for a, b in edges1} == edges2


def resolve_simpl(p: Term) -> NameGraph:
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
    return NameGraph(resolved_labels(p), edges)


def declarations_of(p: Term) -> frozenset[Label]:
    """simpl.declarations_of"""
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


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def pretty_simpl(p: Term, show_labels: bool = False) -> str:
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


def subst_exp_many(e: Term, sub: Mapping[str, Term]) -> Term:
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


def _relabel_copy(body: Term, graph: NameGraph, alloc: LabelAllocator) -> Term:
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
    """simpl.inline_prog: each call is expanded with the first top-level
    function spelled fname whose label the call's head is bound to."""
    targets = [f for f in prog_fdefs(p) if fdef_name(f).text == fname]
    if not targets:
        raise UnknownFunction(fname)
    alloc = LabelAllocator.after(term.labels_of(p))

    def go(e: Term) -> Term:
        if not isinstance(e, Compound):
            return e
        if tag(e) == "call":
            fn_name = e.children[1]
            assert isinstance(fn_name, Name)
            args = [go(a) for a in e.children[2:]]
            bound = graph.bindings(fn_name.label)
            for target in targets:
                if fdef_name(target).label in bound:
                    params = fdef_params(target)
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


def resolve_lambda(p: Term) -> NameGraph:
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
    return NameGraph(resolved_labels(p), edges)


def lam_declarations_of(p: Term) -> frozenset[Label]:
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


# ---------------------------------------------------------------------------
# Helpers only tests use

def fresh_label() -> Label:
    """A synthesized label distinct from every label produced so far."""
    return Label(term._SESSION.next_id(), Provenance.SYNTHESIZED)


def rho(g: NameGraph) -> dict[Label, Label]:
    """Functional view of the edges, for graphs where every reference has
    one binding (resolver output on freshly parsed programs)."""
    out: dict[Label, Label] = {}
    for r, d in sorted(g.edges, key=lambda e: (e[0].id, e[1].id)):
        if r in out and out[r] != d:
            raise ValueError(f"reference {r!r} has multiple bindings")
        out[r] = d
    return out


def lookup(g: NameGraph, ref: Label) -> Label | None:
    """The unique binding of ref, or None if unbound. Raises on an
    ambiguously bound reference."""
    ds = g.bindings(ref)
    if not ds:
        return None
    if len(ds) > 1:
        raise ValueError(f"reference {ref!r} has multiple bindings")
    return next(iter(ds))


def mark(s: str, t: Term) -> Term:
    """Flip every name spelled s to synthesized provenance (ids preserved).

    Marked names are treated like transformation-invented names downstream,
    which lets a transformation opt out of capture repair for them.
    """

    def flip(n: Name) -> Name:
        if n.text == s and not n.label.synthesized:
            return Name(n.text, Label(n.label.id, Provenance.SYNTHESIZED))
        return n

    return term.fold(t, flip)
