"""Name graphs, resolver contracts, and equivalence relations.

A name graph pairs the set of labels occurring in a program with the set of
binding edges from reference labels to the declaration labels that bind
them. Transformations may duplicate a label, and the duplicated occurrences
can end up in different scopes, so the edges form a relation rather than a
function. A language front end states its binding forms as a table
(`Scopes`): the tag of each compound that binds maps to its rule, and
every other compound lets its children see its own scope.
`BindingFrames` runs the table in one explicit-stack walk that hands the
language only the compounds it has a rule for, keeps each scope as a
frame (its parent and its own binders) and looks each reference up its
frame chain, memoised per frame and spelling: that walk computes this
graph, as the `resolve` of every `Resolver` stated by binding forms, and
the same lookup re-binds it after repair respells the term. The rest is
language-independent.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .term import (
    E,
    Compound,
    Const,
    InconsistentLabel,
    Label,
    LabelIndex,
    Name,
    Pairs,
    Term,
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
    def _index(self) -> tuple[dict[Label, Label], dict[Label, frozenset[Label]]]:
        """Lookups keyed by label, so by id: the graph's label of that id (with
        its provenance) and a reference's declarations. Built on the first
        query: a graph only iterated, or only drawn, never builds one."""
        decls: dict[Label, set[Label]] = {}
        for r, d in self.edges:
            decls.setdefault(r, set()).add(d)
        by_id = {v: v for v in self.labels}
        return by_id, {r: frozenset(ds) for r, ds in decls.items()}

    def bindings(self, ref: Label) -> frozenset[Label]:
        return self._index[1].get(ref, _NOTHING)

    def references_to(self, decl: Label) -> Sequence[Label]:
        """The references bound to decl: the inverse of `bindings`. The map
        from each declaration to its references is built on the first call,
        which only repair makes, when a source declaration is captured."""
        refs = self.__dict__.get("_references")
        if refs is None:
            refs = {}
            for r, d in self.edges:
                refs.setdefault(d, []).append(r)
            object.__setattr__(self, "_references", refs)
        return refs.get(decl, ())

    def find(self, label_id: int) -> Label | None:
        return self._index[0].get(label_id)

    def counts_as_source(self, v: Label) -> bool:
        """Whether v, as it occurs in a target program, originates here.

        Membership is by id, but a provenance flip (a marked name) makes a
        label count as synthesized even when its id is known to this graph.
        """
        w = self._index[0].get(v)
        return w is not None and w.provenance is v.provenance

    def unintended(self, edges: Iterable[Edge]) -> tuple[list[Edge], list[Edge], list[Edge]]:
        """The edges among `edges`, those of a transformation's target with
        this graph the source's, that this graph does not intend, in one
        query, as three lists: a reference that counts as source bound to a
        declaration other than its declarations here; one that counts as
        source, with none here, bound to a label other than itself; and
        one that does not count as source bound to a declaration that does.
        """
        by_id, decls = self._index[0], self._index[1]
        rebound: list[Edge] = []
        free: list[Edge] = []
        synthesized: list[Edge] = []
        for v, d in edges:
            w = by_id.get(v)
            if w is not None and w.provenance is v.provenance:
                bound = decls.get(v)
                if bound is not None:
                    if d not in bound:
                        rebound.append((v, d))
                elif v != d:
                    free.append((v, d))
            else:
                w = by_id.get(d)
                if w is not None and w.provenance is d.provenance:
                    synthesized.append((v, d))
        return rebound, free, synthesized

    def foreign(self, labels: Iterable[Label]) -> list[Label]:
        """The labels among `labels` that do not count as source here, in
        order, in one query."""
        by_id = self._index[0]
        return [
            v for v in labels
            if (w := by_id.get(v)) is None or w.provenance is not v.provenance
        ]


# What a language states about its binding forms: a table from the tag of
# a compound (its leading string constant) to the compound's rule.
# `rule(c, env, bind)` pairs each child of c with the scope it sees, or with
# None if it is a declaration. A child sees either `env`, the scope of c, or
# `bind(env, names)`: the scope `env` with the declarations `names` (Name
# nodes, each also a child paired with None) on top, a later one shadowing
# an earlier one of the same spelling. The scope is opaque to the rule:
# `BindingFrames` makes it a frame. A compound whose tag has no rule, or
# that has no tag, is transparent: each of its children sees its scope.
#
# The rule decides by the shape of c alone, never by a spelling, so a
# respelling leaves every reference in the same scope, under the same
# binders: `BindingFrames.rebind` relies on that.
Bind = Callable[[E, Sequence[Name]], E]
Rule = Callable[[Compound, E, Bind], Pairs]
Scopes = Mapping[str, Rule]

_PAIRS = object()  # the nodes of a rule's pairs each come with their own scope


def scoped_names(t: Term, env: E, scopes: Scopes, bind: Bind) -> list[tuple[Name, E | None]]:
    """Every name of t, left to right, with the scope it sees under the
    binding forms `scopes` (t itself sees env), or with None if it is a
    declaration. One explicit-stack walk; a transparent compound is not
    handed to the language."""
    out: list[tuple[Name, E | None]] = []
    rules = scopes.get
    stack: list[tuple[Iterator, object]] = []
    nodes: Iterator = iter(((t, env),))
    scope: object = _PAIRS  # what every node of `nodes` sees, or _PAIRS
    while True:
        for x in nodes:
            if scope is _PAIRS:
                x, env = x
            else:
                env = scope
            kind = x.__class__
            if kind is Name:
                out.append((x, env))
            elif kind is Compound:
                children = x.children
                rule = (
                    rules(children[0].value)
                    if children and children[0].__class__ is Const
                    else None
                )
                stack.append((nodes, scope))
                if rule is None:
                    nodes, scope = iter(children), env
                else:
                    nodes, scope = iter(rule(x, env, bind)), _PAIRS
                break
        else:
            if not stack:
                return out
            nodes, scope = stack.pop()


_UNSEEN = object()
_SEVERAL = object()  # a spelling of more than one top declaration
_NOTHING: frozenset[Label] = frozenset()


class BindingFrames:
    """The resolve of one term under its binding forms: its binding edges,
    and the scopes they came from, kept to re-bind the term's references
    after a respelling without resolving the whole term again.

    A frame is one `bind` of the term's `Scopes`: its parent frame and its
    binders in order, duplicates included. Frame 0 is the outermost scope
    and binds nothing. A reference binds to the innermost binder of its
    spelling up its frame's chain, else to a `top` declaration (visible
    everywhere) of its spelling, else to nothing. Of several such top
    declarations, it binds to the first that carries its label, else to the
    last. The resolve keeps only what its lookups need and what repair
    reads: `edges`, the binding edges of t, as (reference, declaration)
    pairs; `names`, every label of t mapped to the first name carrying it,
    from which repair makes the spelling map of its `LabelIndex`; the
    frames, the lookup memos and the top declarations; and `met`, the frame
    of every name of t in the order the walk meets them, None for a
    declaration. Every rule lists its names left to right, so that order is
    the term's own: `met[k]` is the frame of the occurrence a `LabelIndex`
    of t numbers k.

    The term must carry each label id with one spelling and one
    provenance: the walk compares each name with the first of its id, and
    raises InconsistentLabel when either differs. Built by one
    explicit-stack walk over the table of binding forms; nothing recurses.
    """

    __slots__ = (
        "edges", "names", "met", "_spelling", "_frames", "_top", "_tops", "_first",
        "_refs", "_referrers", "_top_at",
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
        # spelling -> its one top declaration, which every reference of it
        # that no binder sees binds to, or _SEVERAL
        picks: dict[str, object] = {}
        for n in top:
            at.setdefault(n.text, []).append(len(declared))
            first.setdefault(n.label, n.label)
            declared.append(n.label)
            picks[n.text] = _SEVERAL if n.text in picks else n.label
        self._top, self._tops, self._first = declared, at, first
        names: dict[Label, Name] = {}
        self.names = names
        self._spelling: dict[Label, str] = {}  # the last rebind's index's
        self.met: list[int | None] = []
        note = self.met.append
        edges: set[Edge] = set()
        self.edges = edges
        # Built by the first rebind, from the edges and the top
        # declarations, and kept up to date by each: reference label -> its
        # record, [its occurrence frames by the binder each sees, or None
        # until a rebind looks them up, then its declarations]; declaration
        # label -> the references bound to it; top declaration label -> its
        # positions in `_top`.
        self._refs: dict[Label, list] | None = None
        self._referrers: dict[Label, set[Label]]
        self._top_at: dict[Label, list[int]]
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

        # The walk of `scoped_names`, with each name handled where it is
        # met: a loop over that function's list made resolving small lambda
        # terms 1.1-1.3x slower. A transparent compound's tag is skipped.
        rules, pick = scopes.get, picks.get
        stack: list[tuple[Iterator, object]] = []
        nodes: Iterator = iter(((t, 0),))
        scope: object = _PAIRS
        while True:
            for x in nodes:
                if scope is _PAIRS:
                    x, env = x
                else:
                    env = scope
                kind = x.__class__
                if kind is Name:
                    label, text = x.label, x.text
                    n = names.setdefault(label, x)
                    if n is not x and (n.text != text or n.label.__class__ is not label.__class__):
                        note_spelling({label: n.text}, x)  # raises InconsistentLabel
                        raise InconsistentLabel(f"label id {label.id} occurs as both {n.label!r} and {label!r}")
                    note(env)
                    if env is None:
                        continue
                    memo = memos.get(text)
                    decl = None if memo is None else memo.get(env, _UNSEEN)
                    if decl is _UNSEEN:
                        decl = self._lookup(env, text, memo)
                    if decl is None:
                        decl = pick(text)
                        if decl is None:
                            continue
                        if decl is _SEVERAL:
                            decl = first.get(label, declared[at[text][-1]])
                    edges.add((label, decl))
                elif kind is Compound:
                    children = x.children
                    stack.append((nodes, scope))
                    if children and children[0].__class__ is Const:
                        rule = rules(children[0].value)
                        if rule is None:
                            nodes, scope = iter(children), env
                            next(nodes)  # the tag
                        else:
                            nodes, scope = iter(rule(x, env, bind)), _PAIRS
                    else:
                        nodes, scope = iter(children), env
                    break
            else:
                if not stack:
                    break
                nodes, scope = stack.pop()

    def _lookup(self, f: int, s: str, memo: dict[int, Label | None]) -> Label | None:
        """The innermost binder spelled s up the chain of frame f, or None.
        `memo` holds what s means at frames looked up before, frame 0 (which
        binds nothing) among them: the answer is noted there for every frame
        passed, and read from it where the chain meets such a frame, so each
        frame is looked up once per spelling. A binder is spelled as the
        spelling map of the last rebind's index says, else as its Name node
        says."""
        frames, spelling = self._frames, self._spelling
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

    def rebind(self, index: LabelIndex) -> tuple[set[Edge], set[Edge]]:
        """The edges to drop from the term's edges and to add to them after
        `index`, a `LabelIndex` of the term, respelled it: `index.respelled`
        maps each label respelled, as the term carries it, to its previous
        spelling, and `index.spelling` gives every label's spelling now.
        Each new spelling must be fresh: no label outside `respelled` has
        it. A reference not respelled then keeps its spelling and every
        binder of it but the respelled ones, so only a respelled reference
        or one bound to a respelled label can bind differently, and only
        those are looked up. From then on the frames describe the respelled
        term; `edges` is left as it was.

        Each reference has one record, made from the edges at the first
        rebind: its declarations, and its occurrence frames grouped by the
        binder each sees, or under None when none binds its spelling there:
        those bind to the top declaration its spelling picks, if any, all
        alike. The frames are read from `met`, by the occurrences' numbers
        in `index`, when a rebind first looks the reference up, or again
        when it is respelled; a later rebind looks up only the frames of a
        respelled binder, and picks the top declaration again. Only the
        respelled top declarations move to the bucket of their new
        spelling; each bucket stays sorted, so its last position is the
        last declaration of the spelling."""
        respelled = index.respelled
        spelling, tops, top = index.spelling, self._tops, self._top
        self._spelling = spelling
        refs = self._refs
        if refs is None:
            refs = {}
            referrers: dict[Label, set[Label]] = {}
            for v, d in self.edges:
                refs.setdefault(v, [None]).append(d)
                vs = referrers.get(d)  # not setdefault: that makes a set per edge
                if vs is None:
                    referrers[d] = {v}
                else:
                    vs.add(v)
            top_at: dict[Label, list[int]] = {}
            for i, d in enumerate(top):
                positions = top_at.get(d)
                if positions is None:
                    top_at[d] = [i]
                else:
                    positions.append(i)
            self._refs, self._referrers, self._top_at = refs, referrers, top_at
        else:
            referrers, top_at = self._referrers, self._top_at
        for d, was in respelled.items():
            positions = top_at.get(d)
            if positions:
                out, into = tops[was], tops.setdefault(spelling[d], [])
                for i in positions:
                    del out[bisect_left(out, i)]
                    insort(into, i)
                if not out:
                    del tops[was]
        first, lookup, met = self._first, self._lookup, self.met
        drop: set[Edge] = set()
        add: set[Edge] = set()
        memos: dict[str, dict[int, Label | None]] = {}
        for v in respelled.keys() | set().union(*[referrers.get(d, ()) for d in respelled]):
            record = refs.setdefault(v, [None])
            by_binder = record[0]
            if by_binder is None or v in respelled:
                frames = [f for f in map(met.__getitem__, index.occurrences(v)) if f is not None]
                by_binder = record[0] = {}
            else:
                stale = [d for d in by_binder if d in respelled]
                frames = [f for d in stale for f in by_binder.pop(d)]
            s = spelling[v]
            memo = memos.setdefault(s, {0: None})
            for f in frames:
                decl = memo.get(f, _UNSEEN)
                if decl is _UNSEEN:
                    decl = lookup(f, s, memo)
                by_binder.setdefault(decl, []).append(f)
            decls = {d for d in by_binder if d is not None}
            if None in by_binder and (at := tops.get(s)):
                decls.add(first.get(v, top[at[-1]]))
            old = set(record[1:])
            if decls != old:
                for d in old - decls:
                    drop.add((v, d))
                    referrers[d].discard(v)
                for d in decls - old:
                    add.add((v, d))
                    referrers.setdefault(d, set()).add(v)
                record[1:] = decls
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
    `BindingFrames(p, scopes, top(p))`, its spelling map's labels and its
    edges. Repair builds those frames as its resolve of the target, finds
    capture on their edges without a graph, and re-binds through them
    instead of resolving every round. A resolver given only `resolve` is
    resolved in full every round."""

    language: str
    resolve: Callable[[Term], NameGraph] = None  # type: ignore[assignment]
    scopes: Scopes | None = None
    top: Callable[[Term], Iterable[Name]] | None = None

    def __post_init__(self) -> None:
        if self.resolve is None:
            scopes, top = self.scopes, self.top

            def resolve(p: Term) -> NameGraph:
                frames = BindingFrames(p, scopes, top(p))
                return NameGraph(frames.names, frames.edges)

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
