"""Seeded random generators shared by the property suites.

Everything here returns plain terms/programs built through the public
constructors or parsers, so generated artifacts obey the same label
discipline as hand-written ones: parsed names carry fresh source labels,
names invented by a fake transformation carry synthesized labels, and
copied names keep their labels.
"""

from __future__ import annotations

import random
from typing import Iterator

from namefix.graph import NameGraph
from namefix.lam import add as ladd
from namefix.lam import app, lam
from namefix.term import (
    Compound,
    Const,
    Label,
    LabelAllocator,
    Name,
    Provenance,
    Term,
    fold,
    fresh_source_label,
    iter_names,
    labels_of,
    rename,
    share,
    subterms,
    tag,
)

NAME_POOL = ["x", "y", "z", "f", "g"]


# ---------------------------------------------------------------------------
# Lambda terms

def gen_lambda(rng: random.Random, depth: int = 4, bound: int = 0) -> Term:
    """Random lambda term; names from a small pool so shadowing is common."""
    choice = rng.random()
    if depth <= 0 or choice < 0.3:
        if bound and rng.random() < 0.8:
            return Name(rng.choice(NAME_POOL), fresh_source_label())
        return Const(rng.randrange(10))
    if choice < 0.55:
        binder = Name(rng.choice(NAME_POOL), fresh_source_label())
        return lam(binder, gen_lambda(rng, depth - 1, bound + 1))
    if choice < 0.8:
        return app(gen_lambda(rng, depth - 1, bound), gen_lambda(rng, depth - 1, bound))
    return ladd(gen_lambda(rng, depth - 1, bound), gen_lambda(rng, depth - 1, bound))


def mutate_lambda(rng: random.Random, s: Term) -> Term:
    """A naive 'transformation' output: copies of s's subterms mixed with
    synthesized binders and references whose names clash with s's names.
    Copied names keep their labels; invented ones are synthesized."""
    syn = LabelAllocator.after(labels_of(s))
    subterms: list[Term] = []

    def collect(t: Term) -> None:
        subterms.append(t)
        if isinstance(t, Compound):
            for c in t.children[1:]:
                collect(c)

    collect(s)

    def pick_name() -> str:
        return rng.choice(NAME_POOL)

    t = s
    for _ in range(rng.randrange(1, 4)):
        op = rng.random()
        if op < 0.35:
            t = lam(Name(pick_name(), syn.fresh()), t)
        elif op < 0.6:
            t = app(t, Name(pick_name(), syn.fresh()))
        elif op < 0.85:
            t = app(t, rng.choice(subterms))
        else:
            t = ladd(Name(pick_name(), syn.fresh()), t)
    return t


# ---------------------------------------------------------------------------
# Every small lambda term, and naive outputs planted in each

SMALL_POOL = ("x", "y")


def every_lambda(n: int) -> Iterator[Term]:
    """Every lambda term of at most n nodes, smallest first, with names
    spelled from SMALL_POOL and labelled 1, 2, ... (source) in the order
    they stand. A node is a name, the constant 0, an `app`, an `add`, or a
    `lam` together with its binder."""
    by_size: list[list[Term]] = [[]]
    for size in range(1, n + 1):
        if size == 1:
            terms: list[Term] = [Name(s, Label(0)) for s in SMALL_POOL] + [Const(0)]
        else:
            terms = [lam(Name(s, Label(0)), body) for s in SMALL_POOL for body in by_size[size - 1]]
            for i in range(1, size - 1):
                for a in by_size[i]:
                    for b in by_size[size - 1 - i]:
                        terms += [app(a, b), ladd(a, b)]
        by_size.append(terms)
        for t in terms:
            ids = iter(range(1, size + 1))
            yield fold(t, lambda name: Name(name.text, Label(next(ids))))


def planted_targets(s: Term) -> Iterator[Term]:
    """Naive outputs of s that copy its names: under each `lam` of s, its
    body plus a copy of one subterm of s, as it is (the same node) or with
    every name flipped to synthesized, ids kept; each target then also
    under a synthesized outer binder spelled SMALL_POOL[0]. A flipped copy
    of a subterm with names carries their ids under the other provenance
    too."""
    nodes = subterms(s)
    copies: list[Term] = []
    for u in nodes:
        flipped = fold(u, lambda name: Name(name.text, Label(name.label.id, Provenance.SYNTHESIZED)))
        copies += [u] if flipped is u else [u, flipped]
    outer = Name(SMALL_POOL[0], LabelAllocator.after(labels_of(s)).fresh())
    for site in nodes:
        if tag(site) != "lam":
            continue
        binder, body = site.children[1], site.children[2]
        for copy in copies:
            planted = lam(binder, ladd(body, copy))
            t = fold(s, node=lambda c, parts: planted if c is site else share(c, parts))
            yield t
            yield lam(outer, t)


# ---------------------------------------------------------------------------
# Sub-alpha-preserving renamings

def sub_alpha_variant(
    rng: random.Random, t: Term, gs: NameGraph, pool: list[str] | None = None
) -> Term:
    """A consistent, possibly capturing respelling of t that stays
    name-sharing-equivalent to t relative to gs.

    Renames whole binding classes of gs (declaration plus its references)
    and whole spelled-alike groups of labels outside gs, choosing names
    that may collide with unrelated names (that is what makes the renaming
    capturing) but never merging two outside-gs groups.
    """
    pool = pool or NAME_POOL
    t_labels = labels_of(t)
    spell = {n.label: n.text for n in iter_names(t)}
    pi: dict[Label, str] = {}

    outside = [v for v in t_labels if v not in gs.labels]
    outside_groups: dict[str, list[Label]] = {}
    for v in outside:
        outside_groups.setdefault(spell[v], []).append(v)

    # Binding classes of the source graph.
    for d in sorted(gs.declarations, key=lambda l: l.id):
        if d not in t_labels or rng.random() < 0.5:
            continue
        members = [d] + [r for r, dd in gs.edges if dd == d and r in t_labels]
        if len({spell[m] for m in members}) != 1:
            continue  # renaming must preserve the sharing pattern exactly
        new = rng.choice(pool + [f"{spell[d]}{rng.randrange(3)}"])
        for m in members:
            pi[m] = new

    # Unbound/undeclared source labels carry no sharing constraint.
    constrained = gs.declarations | gs.references
    for v in sorted(t_labels, key=lambda l: l.id):
        if v in gs.labels and v not in constrained and rng.random() < 0.3:
            pi[v] = rng.choice(pool)

    # Outside groups: keep them pairwise distinct among themselves.
    taken = set(outside_groups)
    for old, members in sorted(outside_groups.items()):
        if rng.random() < 0.5:
            continue
        candidates = [n for n in pool if n not in taken or n == old]
        if not candidates:
            continue
        new = rng.choice(candidates)
        taken.discard(old)
        taken.add(new)
        for m in members:
            pi[m] = new

    return rename(t, pi)


# ---------------------------------------------------------------------------
# SIMPL programs (generated as source text, then parsed by the caller)

def gen_simpl_source(
    rng: random.Random,
    closed: bool = False,
    with_letfun: bool = True,
    n_fdefs: int | None = None,
) -> str:
    """Random program text. With closed=True the program has no free names
    and no recursion (function calls go strictly to earlier definitions),
    so evaluation terminates."""
    if n_fdefs is None:
        n_fdefs = rng.randrange(1, 4)
    fnames: list[tuple[str, int]] = []
    lines: list[str] = []
    counter = [0]

    def pick_fname() -> str:
        # Closed programs must keep every call's arity valid, so function
        # names may not shadow each other there.
        if not closed:
            return rng.choice(NAME_POOL)
        counter[0] += 1
        return f"{rng.choice(NAME_POOL)}{counter[0]}"

    def gen_exp(env: list[str], depth: int, callable_fns: list[tuple[str, int]]) -> str:
        r = rng.random()
        if depth <= 0 or r < 0.25:
            if env and (closed or rng.random() < 0.8):
                return rng.choice(env)
            if not closed and rng.random() < 0.3:
                return rng.choice(NAME_POOL)
            return str(rng.randrange(10))
        if r < 0.4:
            v = rng.choice(NAME_POOL)
            init = gen_exp(env, depth - 1, callable_fns)
            body = gen_exp(env + [v], depth - 1, callable_fns)
            return f"(let {v} = {init} in {body})"
        if r < 0.5:
            cond = gen_exp(env, depth - 1, callable_fns)
            a = gen_exp(env, depth - 1, callable_fns)
            b = gen_exp(env, depth - 1, callable_fns)
            return f"(if {cond} then {a} else {b})"
        if r < 0.62 and callable_fns:
            fname, arity = rng.choice(callable_fns)
            args = ", ".join(
                gen_exp(env, depth - 1, callable_fns) for _ in range(arity)
            )
            return f"{fname}({args})"
        if r < 0.7 and with_letfun:
            fname = pick_fname()
            params = rng.sample(NAME_POOL, rng.randrange(1, 3))
            fbody = gen_exp(params + (env if closed else []), depth - 1, callable_fns)
            body = gen_exp(env, depth - 1, callable_fns + [(fname, len(params))])
            return (
                f"(let fun {fname}({', '.join(params)}) = {fbody} in {body})"
            )
        op = rng.choice(["+", "*", "=="])
        a = gen_exp(env, depth - 1, callable_fns)
        b = gen_exp(env, depth - 1, callable_fns)
        return f"({a} {op} {b})"

    for _ in range(n_fdefs):
        fname = pick_fname()
        params = rng.sample(NAME_POOL, rng.randrange(0, 3))
        body = gen_exp(list(params), 3, list(fnames))
        lines.append(f"fun {fname}({', '.join(params)}) = {body};")
        fnames.append((fname, len(params)))
    lines.append(gen_exp([], 3, list(fnames)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# State machines

ADVERSARIAL_STATE_NAMES = ["main", "event", "state"]


def gen_machine_source(rng: random.Random) -> str:
    n = rng.randrange(1, 5)
    names = []
    for _ in range(n):
        base = rng.choice(NAME_POOL + ["opened", "closed"])
        if rng.random() < 0.2:
            base = f"{base}-dispatch"
        elif rng.random() < 0.1:
            base = rng.choice(ADVERSARIAL_STATE_NAMES)
        names.append(base)
    lines = []
    events = ["go", "stop", "reset"]
    for name in names:
        lines.append(f"state {name}")
        for _ in range(rng.randrange(0, 3)):
            target = rng.choice(names + (["nowhere"] if rng.random() < 0.1 else []))
            lines.append(f"  {rng.choice(events)} => {target}")
    return "\n".join(lines) + "\n"


def machine_renaming(rng: random.Random, m: Term) -> dict[Label, str]:
    """Consistent respelling: all occurrences of one state name move to one
    new name, including adversarial choices that collide with synthesized
    names like "<state>-dispatch" or "main". Distinct state names stay
    distinct, so the renaming never changes the machine's own binding
    structure."""
    pool = NAME_POOL + [f"{n}-dispatch" for n in NAME_POOL] + ADVERSARIAL_STATE_NAMES
    spell = {n.label: n.text for n in iter_names(m)}
    pi: dict[Label, str] = {}
    by_name: dict[str, list[Label]] = {}
    for v in labels_of(m):
        by_name.setdefault(spell[v], []).append(v)
    taken = set(by_name)
    for old, members in sorted(by_name.items()):
        if rng.random() < 0.6:
            candidates = [n for n in pool if n not in taken or n == old]
            if not candidates:
                continue
            new = rng.choice(candidates)
            taken.discard(old)
            taken.add(new)
            for v in members:
                pi[v] = new
    return pi


def gen_dispatch_clash_machine(rng: random.Random, n: int) -> str:
    """A machine with n states in which every odd-numbered state is spelled
    like the dispatch function of the state before it (`s<i-1>-dispatch`),
    so that its naive compilation captures about n/2 declarations in one
    repair round. Every state has a `go` transition to the next state and a
    `stop` transition to a random one."""
    names = [f"s{i - 1}-dispatch" if i % 2 else f"s{i}" for i in range(n)]
    lines = []
    for i, name in enumerate(names):
        lines.append(f"state {name}")
        lines.append(f"  go => {names[(i + 1) % n]}")
        lines.append(f"  stop => {rng.choice(names)}")
    return "\n".join(lines) + "\n"
