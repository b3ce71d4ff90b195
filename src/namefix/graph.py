"""Name graphs, resolver contracts, and equivalence relations.

A name graph pairs the set of labels occurring in a program with the set of
binding edges from reference labels to the declaration labels that bind
them. Transformations may duplicate a label, and the duplicated occurrences
can end up in different scopes, so the edges form a relation rather than a
function. Language front ends supply a resolver that computes this graph;
everything downstream is language-independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .term import (
    Compound,
    Const,
    Label,
    Name,
    Term,
    label_equiv,
    rename,
    show_name,
    spellings,
)

Edge = tuple[Label, Label]


class NameGraph:
    """Label set plus binding edges (reference label, declaration label)."""

    def __init__(
        self,
        labels: Iterable[Label],
        edges: Mapping[Label, Label] | Iterable[Edge],
    ) -> None:
        object.__setattr__(self, "labels", frozenset(labels))
        pairs = edges.items() if isinstance(edges, Mapping) else edges
        object.__setattr__(self, "edges", frozenset(pairs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("NameGraph is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NameGraph)
            and self.labels == other.labels
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.edges))

    def __repr__(self) -> str:
        edges = ", ".join(
            f"{r!r}->{d!r}" for r, d in sorted(self.edges, key=lambda e: (e[0].id, e[1].id))
        )
        return f"NameGraph(|V|={len(self.labels)}, {{{edges}}})"

    @property
    def references(self) -> frozenset[Label]:
        return frozenset(r for r, _ in self.edges)

    @property
    def declarations(self) -> frozenset[Label]:
        return frozenset(d for _, d in self.edges)

    @property
    def rho(self) -> dict[Label, Label]:
        """Functional view of the edges, for graphs where every reference
        has one binding (resolver output on freshly parsed programs)."""
        out: dict[Label, Label] = {}
        for r, d in sorted(self.edges, key=lambda e: (e[0].id, e[1].id)):
            if r in out and out[r] != d:
                raise ValueError(f"reference {r!r} has multiple bindings")
            out[r] = d
        return out

    @cached_property
    def _index(self) -> tuple[dict[int, Label], dict[Label, frozenset[Label]]]:
        """id -> label and reference -> its declarations, built on the first
        query: graphs only kept, like each FixStep's, never build one."""
        decls: dict[Label, set[Label]] = {}
        for r, d in self.edges:
            decls.setdefault(r, set()).add(d)
        by_id = {v.id: v for v in self.labels}
        return by_id, {r: frozenset(ds) for r, ds in decls.items()}

    def bindings(self, ref: Label) -> frozenset[Label]:
        return self._index[1].get(ref, frozenset())

    def lookup(self, ref: Label) -> Label | None:
        """The unique binding of ref, or None if unbound. Raises on an
        ambiguously bound reference."""
        ds = self.bindings(ref)
        if not ds:
            return None
        if len(ds) > 1:
            raise ValueError(f"reference {ref!r} has multiple bindings")
        return next(iter(ds))

    def find(self, label_id: int) -> Label | None:
        return self._index[0].get(label_id)

    def counts_as_source(self, v: Label) -> bool:
        """Whether v, as it occurs in a target program, originates here.

        Membership is by id, but a provenance flip (a marked name) makes a
        label count as synthesized even when its id is known to this graph.
        """
        w = self.find(v.id)
        return w is not None and w.provenance is v.provenance


def pick_declaration(candidates: Sequence[Label], ref: Label) -> Label:
    """The resolvers' rule for same-spelled duplicate declarations: the one
    carrying the reference's id, else the last one."""
    return next((c for c in candidates if c.id == ref.id), candidates[-1])


def is_bipartite(g: NameGraph) -> bool:
    """No label is both a reference and a declaration."""
    return not (g.references & g.declarations)


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


def validate_graph(p: Term, g: NameGraph) -> list[Violation]:
    """Check g against p: exact label set and name agreement on every edge."""
    violations: list[Violation] = []
    spell = spellings(p)
    for missing in sorted(spell.keys() - g.labels, key=lambda l: l.id):
        violations.append(
            Violation("MissingLabel", f"label {missing!r} of program not in graph")
        )
    for extra in sorted(g.labels - spell.keys(), key=lambda l: l.id):
        violations.append(
            Violation("ExtraLabel", f"graph label {extra!r} not in program")
        )
    for ref, decl in g.edges:
        if ref not in g.labels or decl not in g.labels:
            violations.append(
                Violation("DanglingEdge", f"edge {ref!r} -> {decl!r} leaves label set")
            )
            continue
        if ref not in spell or decl not in spell:
            continue
        if spell[ref] != spell[decl]:
            violations.append(
                Violation(
                    "NameMismatch",
                    f"edge {ref!r} -> {decl!r} connects names "
                    f"{spell[ref]!r} and {spell[decl]!r}",
                )
            )
    return violations


@dataclass(frozen=True)
class Resolver:
    """A language's name analysis: term -> name graph, pure and deterministic."""

    language: str
    resolve: Callable[[Term], NameGraph]


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
    partition1: dict[str, set[int]] = {}
    partition2: dict[str, set[int]] = {}
    for v in outside:
        partition1.setdefault(spell1[v], set()).add(v.id)
        partition2.setdefault(spell2[v], set()).add(v.id)
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
    labels = sorted(spell_p, key=lambda l: l.id)
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
        lines.append(f'  label="{title}";')
    lines.append("  node [fontname=monospace];")
    spell = spellings(p)
    for v in sorted(g.labels, key=lambda l: l.id):
        text = show_name(Name(spell.get(v, "?"), v))
        shape = "box" if v in decls else "ellipse"
        style = ', style=filled, fillcolor="gray80"' if v.synthesized else ""
        lines.append(f'  n{v.id} [label="{text}", shape={shape}{style}];')
    capture_pairs = {(ref.id, decl.id) for ref, decl in capture}
    for ref, decl in sorted(g.edges, key=lambda e: (e[0].id, e[1].id)):
        style = " [style=dashed]" if (ref.id, decl.id) in capture_pairs else ""
        lines.append(f"  n{ref.id} -> n{decl.id}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
