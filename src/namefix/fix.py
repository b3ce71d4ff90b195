"""Capture detection and repair.

Compares the name graph of a transformation's source program against the
graph of its output, and iteratively renames the capturing declarations
(together with the references that legitimately share their name), each at
most once, until the output is capture-free.

Cost of a repair round. For a resolver stated by binding forms, the
target's resolve is `BindingFrames`: one walk over the term that calls
into the language only at the compounds its table of binding forms has a
rule for, and gives the frames, the graph, the spelling map and each
reference's occurrence frames grouped by label. Renaming never changes a
term's shape, so at the first capture a second walk builds a
`LabelIndex` of the label positions, and every round respells the
resolve's spelling map through it. The index notes each label it
respelled; `comp_renaming` spells them fresh, so `BindingFrames.rebind`
re-binds only those labels and the references bound to them, reading
their occurrence frames as the walk grouped them: no other reference can
see a different declaration of its spelling. The edge delta this yields
updates the capture set by one rule: dropped edges leave it, and added
edges are classified, since the source graph classifies capture edge by
edge (`NameGraph.unintended`, one query per edge set). No round builds a
graph. A round then costs a `comp_renaming` whose lookups are by label, a
respelling that rebuilds only the compounds above the renamed names, a
re-binding that looks each frame up at most once per spelling, and set
operations on the delta and the capture set. A capture-free input costs
one resolve and one `find_capture`. A resolver without binding forms is
resolved in full every round, its delta the difference of two edge sets,
its spelling map `spellings(t)`.
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

    def __str__(self) -> str:
        return f"{self.ref!r} -> {self.decl!r} ({self.kind.value})"


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
        return "{" + ", ".join(map(str, sorted(self.edges, key=lambda e: (e.ref, e.decl)))) + "}"


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
    """One repair round: the capture it found, its renaming, the new term."""

    capture: CaptureSet
    renaming: RenamingPair
    term: Term


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
    """The repaired term and its rounds; its graph is the resolver's to give."""

    term: Term
    trace: FixTrace


class FixError(Exception):
    pass


class IterationBudgetExceeded(FixError):
    """A declaration captured again after repair renamed it: a resolver contract violation."""


def gensym(base: str, used: frozenset[str] | set[str]) -> str:
    """base plus the smallest decimal suffix avoiding `used`: never base."""
    k = 0
    while True:
        candidate = f"{base}{k}"
        if candidate not in used:
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
    rebound, free, synthesized = gs.unintended(edges)
    return {
        *[CaptureEdge(v, d, CaptureKind.SOURCE_REBOUND) for v, d in rebound],
        *[CaptureEdge(v, d, CaptureKind.SOURCE_FREE_CAPTURED) for v, d in free],
        *[CaptureEdge(v, d, CaptureKind.SYNTHESIZED_CAPTURED) for v, d in synthesized],
    }


def comp_renaming(
    gs: NameGraph, spell: Mapping[Label, str], capture: CaptureSet
) -> RenamingPair:
    """Fresh spellings for every captured-into declaration, given the
    spelling of every label of the target term (as its resolve gives it):
    spellings no label of the term has, each handed out once.

    A source declaration is renamed together with its source references; a
    synthesized declaration drags along every synthesized label that shares
    its spelling, since the target graph cannot be trusted to tell intended
    references apart while capture is present.
    """
    if not capture:
        raise ValueError("comp_renaming requires a nonempty capture set")
    pi_src: dict[Label, str] = {}
    pi_syn: dict[Label, str] = {}
    used = set(spell.values())  # every spelling of t, plus each fresh one assigned
    synthesized: dict[str, list[Label]] | None = None  # spelling -> labels, when needed
    for v_d in sorted(capture.captured_declarations):
        if gs.counts_as_source(v_d):
            if v_d not in pi_src:
                fresh = gensym(spell[v_d], used)
                pi_src[v_d] = fresh
                used.add(fresh)
                for v_r in gs.references_to(v_d):
                    pi_src[v_r] = fresh
        elif v_d not in pi_syn:
            if synthesized is None:
                synthesized = {}
                for v in gs.foreign(spell):
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
    applies its edge delta to the capture set. No round builds or keeps a
    graph: the binding frames hold the binding relation they re-bind, and
    a resolver without binding forms leaves only its last edge set, to
    diff the next resolve against.

    Capture-free input comes back as the very same term object. A round
    renames every declaration its capture set holds, each at most once by
    the repair argument: one captured again raises, so the loop ends.
    """
    frames: BindingFrames | None = None
    if r.scopes is None:
        gt = r.resolve(t)
        edges = gt.edges
    else:
        frames = BindingFrames(t, r.scopes, r.top(t))
        gt = frames.graph
    capture = find_capture(gs, gt)
    steps: list[FixStep] = []
    renamed: dict[Label, int] = {}  # captured declaration -> the round renaming it
    index: LabelIndex | None = None
    current = t
    while capture:
        if again := [e for e in capture.edges if e.decl in renamed]:
            e = min(again, key=lambda e: (e.ref, e.decl))
            raise IterationBudgetExceeded(
                f"declaration {e.decl!r}, renamed in round {renamed[e.decl]}, "
                f"is captured again in round {len(steps) + 1}: {e}"
            )
        if index is None:
            index = LabelIndex(t, spellings(t) if frames is None else frames.spelling)
        pair = comp_renaming(gs, index.spelling, capture)
        current = index.rename(pair.combined())
        steps.append(FixStep(capture, pair, current))
        renamed.update(dict.fromkeys(capture.captured_declarations, len(steps)))
        if frames is None:
            resolved = r.resolve(current).edges
            drop, add = edges - resolved, resolved - edges
            edges = resolved
        else:
            drop, add = frames.rebind(index.respelled)
        # Edges the round leaves alone keep their classification.
        kept = [e for e in capture.edges if (e.ref, e.decl) not in drop]
        capture = CaptureSet(frozenset(_captures(gs, add).union(kept)))
    return FixResult(current, FixTrace(tuple(steps)))
