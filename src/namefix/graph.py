"""Name graphs, resolver contracts, and equivalence relations.

A name graph pairs the set of labels occurring in a program with the set of
binding edges from reference labels to the declaration labels that bind
them. Transformations may duplicate a label, and the duplicated occurrences
can end up in different scopes, so the edges form a relation rather than a
function. A language front end states its binding forms (`Scopes`).
`BindingFrames` runs them in one walk that keeps each scope as a frame
(its parent and its own binders) and looks each reference up its frame
chain, memoised per frame and spelling: that walk computes this graph, as
the `resolve` of every `Resolver` stated by binding forms, and the same
lookup re-binds it after repair respells the term. The rest is
language-independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .term import (
    E,
    Compound,
    Label,
    Name,
    Pairs,
    Term,
    descend,
    label_equiv,
    lockstep,
    note_spelling,
    rename,
    show_name,
    spellings,
)

Edge = tuple[Label, Label]


@dataclass(frozen=True, init=False, repr=False)
class NameGraph:
    """Label set plus binding edges (reference label, declaration label)."""

    labels: frozenset[Label]
    edges: frozenset[Edge]

    def __init__(
        self,
        labels: Iterable[Label],
        edges: Mapping[Label, Label] | Iterable[Edge],
    ) -> None:
        object.__setattr__(self, "labels", frozenset(labels))
        # Not isinstance(edges, Mapping): that ABC check costs about a tenth
        # of resolving a small lambda term.
        pairs = edges.items() if hasattr(edges, "items") else edges
        object.__setattr__(self, "edges", frozenset(pairs))

    def __repr__(self) -> str:
        edges = ", ".join(
            f"{r!r}->{d!r}" for r, d in sorted(self.edges)
        )
        return f"NameGraph(|V|={len(self.labels)}, {{{edges}}})"

    @property
    def references(self) -> frozenset[Label]:
        return frozenset(r for r, _ in self.edges)

    @property
    def declarations(self) -> frozenset[Label]:
        return frozenset(d for _, d in self.edges)

    @cached_property
    def _index(
        self,
    ) -> tuple[dict[Label, Label], dict[Label, frozenset[Label]], dict[Label, list[Label]]]:
        """Lookups keyed by label, so by id: the graph's label of that id (with
        its provenance), a reference's declarations and a declaration's
        references. Built on the first query: a graph only iterated, as repair
        iterates a target's edges, or only drawn, never builds one."""
        decls: dict[Label, set[Label]] = {}
        refs: dict[Label, list[Label]] = {}
        for r, d in self.edges:
            decls.setdefault(r, set()).add(d)
            refs.setdefault(d, []).append(r)
        by_id = {v: v for v in self.labels}
        return by_id, {r: frozenset(ds) for r, ds in decls.items()}, refs

    def bindings(self, ref: Label) -> frozenset[Label]:
        return self._index[1].get(ref, _NOTHING)

    def references_to(self, decl: Label) -> Sequence[Label]:
        """The references bound to decl: the inverse of `bindings`."""
        return self._index[2].get(decl, ())

    def find(self, label_id: int) -> Label | None:
        return self._index[0].get(label_id)

    def counts_as_source(self, v: Label) -> bool:
        """Whether v, as it occurs in a target program, originates here.

        Membership is by id, but a provenance flip (a marked name) makes a
        label count as synthesized even when its id is known to this graph.
        """
        w = self._index[0].get(v)
        return w is not None and w.provenance is v.provenance


# What a language states about its binding forms. `scopes(c, env, bind)`
# pairs each child of the compound c with the scope it sees, or with None if
# it is a declaration. A child sees either `env`, the scope of c, or
# `bind(env, names)`: the scope `env` with the declarations `names` (Name
# nodes, each also a child paired with None) on top, a later one shadowing
# an earlier one of the same spelling. The scope is opaque to the rule:
# `BindingFrames` makes it a frame.
#
# The rule decides by the shape of c alone, never by a spelling, so a
# respelling leaves every reference in the same scope, under the same
# binders: `BindingFrames.rebind` relies on that.
Bind = Callable[[E, Sequence[Name]], E]
Scopes = Callable[[Compound, E, Bind], Pairs]


_UNSEEN = object()
_NOTHING: frozenset[Label] = frozenset()


class BindingFrames:
    """The scopes of one term and the name graph they give it, kept to
    re-bind its references after a respelling without resolving the whole
    term again.

    A frame is one `bind` of the term's `Scopes`: its parent frame and its
    binders in order, duplicates included. Frame 0 is the outermost scope
    and binds nothing. A reference binds to the innermost binder of its
    spelling up its frame's chain, else to a `top` declaration (visible
    everywhere) of its spelling, else to nothing. Of several such top
    declarations, it binds to the first that carries its label, else to the
    last. Kept with the frames: each reference occurrence with its frame,
    `graph`, the name graph of t, which holds each reference's
    declarations, and `spelling`, every label of t mapped to its spelling,
    which repair respells in place (`LabelIndex`) and `rebind` reads.
    Built by one walk, which raises InconsistentLabel; nothing here
    recurses.
    """

    __slots__ = (
        "graph", "spelling", "_frames", "_top", "_tops", "_first",
        "_occurrences", "_occurs", "_bound", "_referrers",
    )

    def __init__(self, t: Term, scopes: Scopes, top: Iterable[Name]) -> None:
        # frame -> (its parent frame, its binders)
        frames: list[tuple[int, Sequence[Name]]] = [(-1, ())]
        self._frames = frames
        # The top declarations in order, the positions there of those of
        # each spelling, and by label id the first one carrying it.
        declared: list[Label] = []
        at: dict[str, list[int]] = {}
        first: dict[Label, Label] = {}
        for n in top:
            at.setdefault(n.text, []).append(len(declared))
            first.setdefault(n.label, n.label)
            declared.append(n.label)
        self._top, self._tops, self._first = declared, at, first
        spell: dict[Label, str] = {}
        self.spelling = spell
        # (label, frame) of each reference occurrence
        occurrences: list[tuple[Label, int]] = []
        self._occurrences = occurrences
        edges: set[Edge] = set()
        # Built by the first rebind, from the occurrences and the graph's
        # edges, and kept up to date by each: reference label -> that label
        # as the term carries it, then the frames of its occurrences, and ->
        # its declarations; declaration label -> the references bound to it.
        self._bound: dict[Label, set[Label]] | None = None
        # spelling -> what it means at frame 0, at each frame binding it
        # and at each frame _lookup passed, for every spelling that a binder
        # met so far has; no other is bound in any scope
        memos: dict[str, dict[int, Label | None]] = {}

        def bind(env: int, names: Sequence[Name]) -> int:
            if not names:
                return env
            f = len(frames)
            for n in names:  # a later one shadows an earlier one
                memo = memos.get(n.text)
                if memo is None:
                    memos[n.text] = {0: None, f: n.label}
                else:
                    memo[f] = n.label
            frames.append((env, names))
            return f

        def rule(x: Term, env: int | None) -> Pairs:
            kind = x.__class__
            if kind is Name:
                label, text = x.label, x.text
                if spell.setdefault(label, text) != text:
                    note_spelling(spell, x)  # raises InconsistentLabel
                if env is not None:
                    memo = memos.get(text)
                    decl = None if memo is None else memo.get(env, _UNSEEN)
                    if decl is _UNSEEN:
                        decl = self._lookup(env, text, memo)
                    if decl is None:
                        positions = at.get(text)
                        if positions:
                            decl = first.get(label, declared[positions[-1]])
                    occurrences.append((label, env))
                    if decl is not None:
                        edges.add((label, decl))
                return ()
            return scopes(x, env, bind) if kind is Compound else ()

        descend(t, 0, rule)
        self.graph = NameGraph(spell, edges)

    def _lookup(self, f: int, s: str, memo: dict[int, Label | None]) -> Label | None:
        """The innermost binder spelled s up the chain of frame f, or None.
        `memo` holds what s means at frames looked up before, frame 0 (which
        binds nothing) among them: the answer is noted there for every frame
        passed, and read from it where the chain meets such a frame, so each
        frame is looked up once per spelling. A binder the walk has not met
        yet, and so is missing from `spelling`, is spelled as its Name node
        says."""
        frames, spelling = self._frames, self.spelling
        path = []
        decl = _UNSEEN
        while decl is _UNSEEN:
            path.append(f)
            f, binders = frames[f]
            for b in reversed(binders):  # a later one shadows an earlier one
                if spelling.get(b.label, b.text) == s:
                    decl = b.label
                    break
            else:
                decl = memo.get(f, _UNSEEN)
        for f in path:
            memo[f] = decl
        return decl

    def rebind(self, respelled: Mapping[Label, str]) -> tuple[set[Edge], set[Edge]]:
        """The edges to drop from the graph and to add to it after a
        respelling of the term, given the labels `respelled`, each mapped to
        its previous spelling, with `spelling` respelled in place (as
        `LabelIndex.rename` does both). Each new spelling must be fresh: no
        label outside `respelled` has it. A reference not respelled then
        keeps its spelling and every binder of it but the respelled ones, so
        only a respelled reference or one bound to a respelled label can
        bind differently, and only those are looked up. From then on the
        frames describe the respelled term; `graph` is left as it was."""
        spelling, tops, top = self.spelling, self._tops, self._top
        bound = self._bound
        if bound is None:
            occurs: dict[Label, list] = {}
            for v, f in self._occurrences:
                occurs.setdefault(v, [v]).append(f)
            bound = {}
            referrers: dict[Label, set[Label]] = {}
            for v, d in self.graph.edges:
                bound.setdefault(v, set()).add(d)
                referrers.setdefault(d, set()).add(v)
            self._occurs, self._bound, self._referrers = occurs, bound, referrers
            self._occurrences = []
        else:
            occurs, referrers = self._occurs, self._referrers
        for i in [i for s in set(respelled.values()) for i in tops.pop(s, ())]:
            tops.setdefault(spelling[top[i]], []).append(i)
        first, lookup = self._first, self._lookup
        drop: set[Edge] = set()
        add: set[Edge] = set()
        memos: dict[str, dict[int, Label | None]] = {}
        for v in {v for v in respelled if v in occurs}.union(
            *[referrers.get(d, ()) for d in respelled]
        ):
            # v as the term carries it: a respelled label may come with
            # another provenance, as the source graph gives it
            v, *frames = occurs[v]
            s = spelling[v]
            memo = memos.setdefault(s, {0: None})
            at = tops.get(s)
            last = top[max(at)] if at else None
            decls: set[Label] = set()
            for f in frames:
                decl = memo.get(f, _UNSEEN)
                if decl is _UNSEEN:
                    decl = lookup(f, s, memo)
                if decl is None:
                    if last is None:
                        continue
                    decl = first.get(v, last)
                decls.add(decl)
            old = bound.get(v, _NOTHING)
            if decls != old:
                for d in old - decls:
                    drop.add((v, d))
                    referrers[d].discard(v)
                for d in decls - old:
                    add.add((v, d))
                    referrers.setdefault(d, set()).add(v)
                bound[v] = decls
        return drop, add


def is_bipartite(g: NameGraph) -> bool:
    """No label is both a reference and a declaration."""
    return not (g.references & g.declarations)


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


def validate_graph(p: Term, g: NameGraph) -> list[Violation]:
    """Check g against p: exact label set and name agreement on every edge."""
    spell = spellings(p)
    violations = [Violation("MissingLabel", f"label {v!r} of program not in graph")
                  for v in sorted(spell.keys() - g.labels)]
    violations += [Violation("ExtraLabel", f"graph label {v!r} not in program")
                   for v in sorted(g.labels - spell.keys())]
    for ref, decl in g.edges:
        if ref not in g.labels or decl not in g.labels:
            violations.append(Violation("DanglingEdge", f"edge {ref!r} -> {decl!r} leaves label set"))
        elif ref in spell and decl in spell and spell[ref] != spell[decl]:
            names = f"names {spell[ref]!r} and {spell[decl]!r}"
            violations.append(Violation("NameMismatch", f"edge {ref!r} -> {decl!r} connects {names}"))
    return violations


@dataclass(frozen=True)
class Resolver:
    """A language's name analysis: term -> name graph, pure and deterministic.

    A resolver stated by binding forms is given its `scopes` and `top`
    declarations, and no `resolve`: its `resolve(p)` is then the graph of
    `BindingFrames(p, scopes, top(p))`. Repair builds those frames as its
    resolve of the target and re-binds through them instead of resolving
    every round. A resolver given only `resolve` is resolved in full every
    round."""

    language: str
    resolve: Callable[[Term], NameGraph] = None  # type: ignore[assignment]
    scopes: Scopes | None = None
    top: Callable[[Term], Iterable[Name]] | None = None

    def __post_init__(self) -> None:
        if self.resolve is None:
            scopes, top = self.scopes, self.top

            def resolve(p: Term) -> NameGraph:
                return BindingFrames(p, scopes, top(p)).graph

            object.__setattr__(self, "resolve", resolve)


def alpha_equiv(p1: Term, p2: Term, r: Resolver) -> bool:
    """Label-equivalent with identical binding structure."""
    if not label_equiv(p1, p2):
        return False
    return r.resolve(p1).edges == r.resolve(p2).edges


def alpha_equiv_relabel(p1: Term, p2: Term, r: Resolver) -> bool:
    """Alpha-equivalence up to a bijective relabeling.

    Useful when the two programs were produced by independent parses, so
    their labels cannot be compared directly.
    """
    mapping: dict[Label, Label] = {}
    reverse: dict[Label, Label] = {}

    def bijective(a: Name, b: Name) -> bool:
        fwd = mapping.setdefault(a.label, b.label)
        bwd = reverse.setdefault(b.label, a.label)
        return fwd == b.label and bwd == a.label

    if not lockstep(p1, p2, bijective):
        return False
    edges1 = r.resolve(p1).edges
    return {(mapping[a], mapping[b]) for a, b in edges1} == r.resolve(p2).edges


def sub_alpha_equiv(p1: Term, p2: Term, g: NameGraph) -> bool:
    """Name-sharing agreement relative to g.

    For edges of g inside the programs, both must agree on whether reference
    and declaration are spelled alike; for labels outside g, both must induce
    the same spelled-alike partition.
    """
    if not label_equiv(p1, p2):
        return False
    spell1 = spellings(p1)
    spell2 = spellings(p2)
    common = set(spell1)
    for ref, decl in g.edges:
        if ref in common and decl in common:
            if (spell1[ref] == spell1[decl]) != (spell2[ref] == spell2[decl]):
                return False
    outside = [v for v in common if v not in g.labels]
    partition1: dict[str, set[Label]] = {}
    partition2: dict[str, set[Label]] = {}
    for v in outside:
        partition1.setdefault(spell1[v], set()).add(v)
        partition2.setdefault(spell2[v], set()).add(v)
    return sorted(map(sorted, partition1.values())) == sorted(
        map(sorted, partition2.values())
    )


@dataclass
class AssumptionReport:
    trials: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_resolver_assumptions(
    r: Resolver, p: Term, trials: int, seed: int = 0
) -> AssumptionReport:
    """Statistically test the resolver contract on respellings of p.

    Each trial respells labels of p (the first trial is the identity) and
    checks that resolution keeps the label set, keeps references resolvable
    when a matching declaration is still spelled alike, and picks binding
    targets deterministically.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    report = AssumptionReport(trials)
    g1 = r.resolve(p)
    for bad in validate_graph(p, g1):
        report.violations.append(f"base graph invalid: {bad.kind}: {bad.message}")
    spell_p = spellings(p)
    labels = sorted(spell_p)
    base_names = sorted(set(spell_p.values()))
    pool = base_names + [f"v{k}" for k in range(max(2, len(base_names)))]

    for trial in range(trials):
        if trial == 0:
            pi: dict[Label, str] = {}
        else:
            pi = {
                v: rng.choice(pool)
                for v in labels
                if rng.random() < 0.7
            }
        q = rename(p, pi)
        g2 = r.resolve(q)
        for bad in validate_graph(q, g2):
            report.violations.append(
                f"trial {trial}: variant graph invalid: {bad.kind}: {bad.message}"
            )
        if g1.labels != g2.labels:
            report.violations.append(f"trial {trial}: label sets differ")
            continue
        spell_q = spellings(q)
        _check_pair(spell_p, g1, spell_q, g2, trial, report)
        _check_pair(spell_q, g2, spell_p, g1, trial, report)
    return report


def _check_pair(
    spell_a: Mapping[Label, str],
    ga: NameGraph,
    spell_b: Mapping[Label, str],
    gb: NameGraph,
    trial: int,
    report: AssumptionReport,
) -> None:
    gb_refs = gb.references
    for ref, decl in ga.edges:
        # Resolvability must carry over when the names still agree.
        if spell_b[ref] == spell_b[decl] and ref not in gb_refs:
            report.violations.append(
                f"trial {trial}: reference {ref!r} resolvable in one variant "
                f"but dropped in the other"
            )
            continue
        for other in gb.bindings(ref):
            if other == decl:
                continue
            # Two candidate targets spelled alike in both programs must not
            # be chosen differently.
            if spell_a[decl] == spell_a[other] and spell_b[decl] == spell_b[other]:
                report.violations.append(
                    f"trial {trial}: reference {ref!r} resolved to {decl!r} "
                    f"in one variant and {other!r} in the other"
                )


def to_dot(
    g: NameGraph,
    p: Term,
    capture: Iterable[Edge] = (),
    title: str | None = None,
) -> str:
    """Graphviz rendering: declarations boxed, references round, synthesized
    labels shaded, capture edges dashed."""
    decls = g.declarations
    lines = ["digraph names {"]
    if title:
        escaped = title.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  label="{escaped}";')
    lines.append("  node [fontname=monospace];")
    spell = spellings(p)
    for v in sorted(g.labels):
        text = show_name(Name(spell.get(v, "?"), v))
        shape = "box" if v in decls else "ellipse"
        style = ', style=filled, fillcolor="gray80"' if v.synthesized else ""
        lines.append(f'  n{v.id} [label="{text}", shape={shape}{style}];')
    capture_pairs = set(capture)
    for ref, decl in sorted(g.edges):
        style = " [style=dashed]" if (ref, decl) in capture_pairs else ""
        lines.append(f"  n{ref.id} -> n{decl.id}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
