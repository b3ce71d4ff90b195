"""Output checks, independent of the repair code under test.

Each check takes an operation's output text and judges it against the
generator's own transition table, against evaluation, or against the
paper's guarantees: the output is capture-free and sub-alpha-equivalent to
the naive output. Scoping is recomputed here by explicit-stack walks rather
than taken from `find_capture`, so a fault in capture detection cannot hide
itself. Outputs are compared as unlabelled text: a printed program is parsed
again and matched node by node against the naive target, whose labels are
known.
"""

from __future__ import annotations

import re
from typing import Iterable

from namefix import fix, lam, simpl, statemachine
from namefix.graph import NameGraph, sub_alpha_equiv
from namefix.term import Compound, Const, Label, Name, Term, labels_of, rename

Edge = tuple[Label, Label]


class CheckFailed(Exception):
    """An operation produced a wrong output."""


def respelled(naive: Term, printed: Term) -> Term:
    """The naive target spelled the way the printed output spells it.

    The two terms must have the same shape and constants; every label of the
    naive target must be printed with one spelling throughout.
    """
    spelling: dict[Label, str] = {}
    stack = [(naive, printed)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Name) and isinstance(b, Name):
            prior = spelling.setdefault(a.label, b.text)
            if prior != b.text:
                raise CheckFailed(f"label {a.label!r} printed as {prior!r} and {b.text!r}")
        elif isinstance(a, Const) and isinstance(b, Const):
            if a.value != b.value or type(a.value) is not type(b.value):
                raise CheckFailed(f"constant {a.value!r} printed as {b.value!r}")
        elif isinstance(a, Compound) and isinstance(b, Compound):
            if len(a.children) != len(b.children):
                raise CheckFailed("output shape differs from the naive target")
            stack.extend(zip(a.children, b.children))
        else:
            raise CheckFailed(f"output has {b!r} where the naive target has {a!r}")
    return rename(naive, spelling)


def simpl_edges(p: Term) -> set[Edge]:
    """Binding edges of a procedural program: one namespace, lexical scope,
    top-level functions visible everywhere with the last duplicate winning
    unless a reference carries one duplicate's own label."""
    top: dict[str, list[Label]] = {}
    for f in simpl.prog_fdefs(p):
        n = simpl.fdef_name(f)
        top.setdefault(n.text, []).append(n.label)
    edges: set[Edge] = set()

    def bind(ref: Name, env: dict[str, Label]) -> None:
        decl = env.get(ref.text)
        if decl is None:
            candidates = top.get(ref.text, [])
            same = [c for c in candidates if c.id == ref.label.id]
            decl = same[0] if same else (candidates[-1] if candidates else None)
        if decl is not None:
            edges.add((ref.label, decl))

    stack: list[tuple[Term, dict[str, Label]]] = []
    for f in simpl.prog_fdefs(p):
        stack.append((simpl.fdef_body(f), {q.text: q.label for q in simpl.fdef_params(f)}))
    stack.extend((e, {}) for e in simpl.prog_main(p))
    while stack:
        e, env = stack.pop()
        if isinstance(e, Name):
            bind(e, env)
            continue
        if not isinstance(e, Compound):
            continue
        kind = simpl.tag(e)
        if kind == "let":
            binder, init, body = e.children[1:]
            stack.append((init, env))
            stack.append((body, {**env, binder.text: binder.label}))
        elif kind == "letfun":
            fn, body = e.children[1:]
            name = simpl.fdef_name(fn)
            inner = {**env, name.text: name.label}
            params = {q.text: q.label for q in simpl.fdef_params(fn)}
            stack.append((simpl.fdef_body(fn), {**inner, **params}))
            stack.append((body, inner))
        elif kind == "call":
            bind(e.children[1], env)
            stack.extend((a, env) for a in e.children[2:])
        else:
            stack.extend((c, env) for c in (e.children[1:] if kind else e.children))
    return edges


def lambda_edges(t: Term) -> set[Edge]:
    """Binding edges of a lambda term: innermost binder of equal spelling."""
    edges: set[Edge] = set()
    stack: list[tuple[Term, dict[str, Label]]] = [(t, {})]
    while stack:
        e, env = stack.pop()
        if isinstance(e, Name):
            if e.text in env:
                edges.add((e.label, env[e.text]))
        elif isinstance(e, Compound):
            if e.children[0] == lam.LAM:
                binder = e.children[1]
                stack.append((e.children[2], {**env, binder.text: binder.label}))
            else:
                stack.extend((c, env) for c in e.children[1:])
    return edges


def capture_errors(
    src_labels: Iterable[Label], src_edges: set[Edge], tgt_labels: Iterable[Label], tgt_edges: set[Edge]
) -> list[str]:
    """Violations of capture-freedom of a target against its source.

    A source reference must keep its source binding, a name free in the
    source must stay free, and a name the transformation invented must not
    be bound by a source declaration. Every source edge whose two ends both
    occur in the target must still be an edge there.
    """
    provenance = {v.id: v.provenance for v in src_labels}

    def from_source(v: Label) -> bool:
        return provenance.get(v.id) is v.provenance

    src_binds: dict[Label, set[Label]] = {}
    for r, d in src_edges:
        src_binds.setdefault(r, set()).add(d)
    errors = []
    for r, d in sorted(tgt_edges, key=lambda e: (e[0].id, e[1].id)):
        if from_source(r):
            bound = src_binds.get(r)
            if bound and d not in bound:
                errors.append(f"source reference {r!r} rebound to {d!r}")
            elif not bound and r != d:
                errors.append(f"free source name {r!r} captured by {d!r}")
        elif from_source(d):
            errors.append(f"invented reference {r!r} captured by source declaration {d!r}")
    present = set(tgt_labels)
    for r, d in src_edges:
        if r in present and d in present and (r, d) not in tgt_edges:
            errors.append(f"source binding {r!r} -> {d!r} lost")
    return errors


def _require_capture_free(
    source: Term, naive: Term, repaired: Term, edges_of
) -> None:
    src_labels = labels_of(source)
    src_edges = edges_of(source)
    errors = capture_errors(src_labels, src_edges, labels_of(repaired), edges_of(repaired))
    if errors:
        raise CheckFailed(f"{len(errors)} capture violations, first: {errors[0]}")
    if not sub_alpha_equiv(naive, repaired, NameGraph(src_labels, src_edges)):
        raise CheckFailed("output is not sub-alpha-equivalent to the naive output")


def check_subst_output(src: str, var: str, repl: str, out: str) -> None:
    p = simpl.parse_simpl(src)
    naive = simpl.subst_prog(p, var, simpl.parse_simpl_exp(repl))
    repaired = respelled(naive, simpl.parse_simpl(out))
    _require_capture_free(p, naive, repaired, simpl_edges)


def check_lambda_output(s: Term, t: Term, out: str, result: fix.FixResult) -> None:
    budget = len(labels_of(t))
    if len(result.trace) > budget:
        raise CheckFailed(f"{len(result.trace)} repair rounds exceed the budget of {budget}")
    repaired = respelled(t, lam.parse_lambda(out))
    _require_capture_free(s, t, repaired, lambda_edges)


def check_machine_output(
    out: str,
    names: tuple[str, ...],
    table: dict[tuple[int, str], int],
    sample: list[int],
    events: tuple[str, ...],
) -> None:
    """Run the compiled machine on sampled (state, event) pairs and compare
    with the transition table; state names must keep their spelling."""
    fdefs = simpl.prog_fdefs(simpl.parse_simpl(out))
    if len(fdefs) != 2 * len(names) + 1:
        raise CheckFailed(f"{len(fdefs)} functions for {len(names)} states")
    for i, name in enumerate(names):
        f = fdefs[i]
        if simpl.fdef_name(f).text != name or simpl.fdef_params(f) or simpl.fdef_body(f) != Const(i):
            raise CheckFailed(f"state {i} is not compiled as `fun {name}() = {i};`")
    for k in sample:
        for event in events:
            call = simpl.parse_simpl_exp(f'main({k}, "{event}")')
            try:
                got: object = simpl.eval_simpl(simpl.prog(fdefs, [call]))
            except simpl.EvalError:
                got = None
            except simpl.SimplError as exc:
                raise CheckFailed(f"main({k}, {event!r}) raised {type(exc).__name__}: {exc}")
            if got != table.get((k, event)):
                raise CheckFailed(f"main({k}, {event!r}) gave {got}, expected {table.get((k, event))}")


def check_clean_identity(text: str) -> None:
    """Repair of a capture-free compilation returns the naive object itself."""
    m = statemachine.parse_stm(text)
    naive = statemachine.compile_machine(m)
    result = fix.name_fix(statemachine.resolve_machine(m), naive, simpl.SIMPL_RESOLVER)
    if result.term is not naive or result.trace.steps:
        raise CheckFailed("repair changed a capture-free compilation")


def check_same_value(out: str, value: object) -> None:
    """The transformed program evaluates to the input program's value."""
    try:
        got = simpl.eval_simpl(simpl.parse_simpl(out))
    except simpl.SimplError as exc:
        raise CheckFailed(f"output raised {type(exc).__name__}: {exc}")
    if got != value:
        raise CheckFailed(f"output evaluates to {got!r}, input to {value!r}")


_TOKEN = re.compile(r"[A-Za-z0-9_-]+|[^\s()]")


def check_tokens(out: str, expected: str) -> None:
    """Same tokens, ignoring whitespace and parentheses."""
    if _TOKEN.findall(out) != _TOKEN.findall(expected):
        raise CheckFailed("output text differs from the expected program")
