"""Capture detection and repair.

Compares the name graph of a transformation's source program against the
graph of its output, and iteratively renames the capturing declarations
(together with the references that legitimately share their name) until the
output is capture-free.

Cost of a repair round. For a resolver stated by binding forms, the
target's resolve is `BindingFrames`: one walk that gives its frames, its
graph and its spelling map. Renaming never changes a term's shape, so at
the first capture a second walk builds a `LabelIndex` of the label
positions, and every round respells the resolve's spelling map through
it. Each round yields an edge delta, from `BindingFrames.rebind`, which
re-binds only the references spelled like a respelled label (their old
or new spelling): no other reference can see a different declaration of
its spelling. One rule applies the delta: dropped edges leave the graph
and the capture set, and added edges join the graph and are classified,
since capture is classified edge by edge. A round then costs a
`comp_renaming` whose lookups are by label, a respelling that rebuilds
only the compounds above the renamed names, a re-binding that looks each
frame up at most once per changed spelling, and set operations on the
edges. A capture-free input costs one resolve and one `find_capture`. A
resolver without binding forms is resolved in full every round, its
delta the difference of two graphs, its spelling map `spellings(t)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .graph import BindingFrames, Edge, NameGraph, Resolver
from .term import Label, LabelIndex, Term, spellings


class CaptureKind(Enum):
    # A source reference no longer bound by its source declaration.
    SOURCE_REBOUND = "source-reference-rebound"
    # A source name, free or a declaration in the source, bound by a
    # declaration other than itself.
    SOURCE_FREE_CAPTURED = "free-source-name-captured"
    # A synthesized reference bound by a source declaration.
    SYNTHESIZED_CAPTURED = "synthesized-reference-captured"


@dataclass(frozen=True)
class CaptureEdge:
    ref: Label
    decl: Label
    kind: CaptureKind


@dataclass(frozen=True)
class CaptureSet:
    edges: frozenset[CaptureEdge]

    def __bool__(self) -> bool:
        return bool(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def captured_declarations(self) -> frozenset[Label]:
        return frozenset(e.decl for e in self.edges)

    def format(self) -> str:
        parts = [
            f"{e.ref!r} -> {e.decl!r} ({e.kind.value})"
            for e in sorted(self.edges, key=lambda e: (e.ref, e.decl))
        ]
        return "{" + ", ".join(parts) + "}"


@dataclass(frozen=True)
class RenamingPair:
    pi_src: Mapping[Label, str]
    pi_syn: Mapping[Label, str]

    def combined(self) -> dict[Label, str]:
        merged = dict(self.pi_src)
        merged.update(self.pi_syn)
        return merged


@dataclass(frozen=True)
class FixStep:
    capture: CaptureSet
    renaming: RenamingPair
    term: Term
    graph: NameGraph  # graph that exhibited the capture, before renaming


@dataclass(frozen=True)
class FixTrace:
    steps: tuple[FixStep, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def format(self) -> str:
        lines = []
        for i, step in enumerate(self.steps, start=1):
            src = {f"{v!r}": s for v, s in sorted(step.renaming.pi_src.items())}
            syn = {f"{v!r}": s for v, s in sorted(step.renaming.pi_syn.items())}
            lines.append(
                f"iteration {i}: capture={step.capture.format()} "
                f"pi_src={src} pi_syn={syn}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class FixResult:
    term: Term
    trace: FixTrace
    graph: NameGraph | None = None  # capture-free name graph of term


class FixError(Exception):
    pass


class IterationBudgetExceeded(FixError):
    """More repair rounds than declarations: a resolver contract violation."""


def gensym(base: str, used: frozenset[str] | set[str]) -> str:
    """base plus the smallest decimal suffix avoiding `used` and base itself."""
    k = 0
    while True:
        candidate = f"{base}{k}"
        if candidate not in used and candidate != base:
            return candidate
        k += 1


def find_capture(gs: NameGraph, gt: NameGraph) -> CaptureSet:
    """Edges of the target graph that break reference intent or
    declaration extent relative to the source graph."""
    if not gt.edges:  # nothing to check: leave gs's index unbuilt
        return CaptureSet(frozenset())
    return CaptureSet(frozenset(_captures(gs, gt.edges)))


def _captures(gs: NameGraph, edges: Iterable[Edge]) -> set[CaptureEdge]:
    """The capture edges among `edges`: each edge is classified on its own,
    against the source graph alone."""
    by_id, decls, _ = gs._index
    out: set[CaptureEdge] = set()
    for v, target in edges:
        # gs.counts_as_source(v), inline: this loop runs once per edge.
        w = by_id.get(v)
        if w is not None and w.provenance is v.provenance:
            bound = decls.get(v)
            if bound:
                if target not in bound:
                    out.add(CaptureEdge(v, target, CaptureKind.SOURCE_REBOUND))
            elif v != target:
                out.add(CaptureEdge(v, target, CaptureKind.SOURCE_FREE_CAPTURED))
        else:
            w = by_id.get(target)
            if w is not None and w.provenance is target.provenance:
                out.add(CaptureEdge(v, target, CaptureKind.SYNTHESIZED_CAPTURED))
    return out


def comp_renaming(
    gs: NameGraph, gt: NameGraph, spell: Mapping[Label, str], capture: CaptureSet
) -> RenamingPair:
    """Fresh spellings for every captured-into declaration, given the
    spelling of every label of the target term (as its resolve gives it).

    A source declaration is renamed together with its source references; a
    synthesized declaration drags along every synthesized label that shares
    its spelling, since the target graph cannot be trusted to tell intended
    references apart while capture is present.
    """
    if not capture:
        raise ValueError("comp_renaming requires a nonempty capture set")
    pi_src: dict[Label, str] = {}
    pi_syn: dict[Label, str] = {}
    by_id, _, refs = gs._index
    used = set(spell.values())  # every spelling of t, plus each fresh one assigned
    synthesized: dict[str, list[Label]] | None = None  # spelling -> labels, when needed
    for v_d in sorted(capture.captured_declarations):
        if gs.counts_as_source(v_d):
            if v_d not in pi_src:
                fresh = gensym(spell[v_d], used)
                pi_src[v_d] = fresh
                used.add(fresh)
                for v_r in refs.get(v_d, ()):
                    pi_src[v_r] = fresh
        elif v_d not in pi_syn:
            if synthesized is None:
                synthesized = {}
                for v in gt.labels:
                    # not gs.counts_as_source(v), inline: once per label
                    w = by_id.get(v)
                    if w is None or w.provenance is not v.provenance:
                        synthesized.setdefault(spell[v], []).append(v)
            group = synthesized.get(spell[v_d])
            if group:
                fresh = gensym(spell[v_d], used)
                used.add(fresh)
                for v in group:
                    pi_syn[v] = fresh
    return RenamingPair(pi_src, pi_syn)


def name_fix(gs: NameGraph, t: Term, r: Resolver) -> FixResult:
    """Repair loop: resolve, detect capture, rename, repeat until clean.
    Every round respells the spelling map of the target's resolve, and
    applies its edge delta to the graph and the capture set.

    Capture-free input comes back as the very same term object. The
    iteration budget is the label count of the input, read off its first
    resolved graph (a resolver's graph holds exactly the term's labels);
    the repair argument guarantees each declaration is renamed at most
    once, so running past the budget means a resolver assumption does not
    hold.
    """
    frames: BindingFrames | None = None
    if r.scopes is None:
        gt = r.resolve(t)
    else:
        frames = BindingFrames(t, r.scopes, r.top(t))
        gt = frames.graph
    budget = len(gt.labels)
    capture = find_capture(gs, gt)
    steps: list[FixStep] = []
    index: LabelIndex | None = None
    current = t
    while capture:
        if len(steps) >= budget:
            raise IterationBudgetExceeded(
                f"capture repair did not converge within {budget} rounds"
            )
        if index is None:
            index = LabelIndex(t, spellings(t) if frames is None else frames.spelling)
        spelling = index.spelling
        pair = comp_renaming(gs, gt, spelling, capture)
        pi = pair.combined()
        changed: set[str] = set()  # the old and new spelling of each respelled label
        for v, text in pi.items():
            old = spelling.get(v)
            if old is not None and old != text:
                changed.update((old, text))
        current = index.rename(pi)
        steps.append(FixStep(capture, pair, current, gt))
        if frames is None:
            edges = r.resolve(current).edges
            drop, add = gt.edges - edges, edges - gt.edges
        else:
            drop, add = frames.rebind(spelling, changed)
        # Edges the round leaves alone keep their classification.
        gt = NameGraph(gt.labels, gt.edges - drop | add)
        kept = [e for e in capture.edges if (e.ref, e.decl) not in drop]
        capture = CaptureSet(frozenset(_captures(gs, add).union(kept)))
    return FixResult(current, FixTrace(tuple(steps)), gt)
