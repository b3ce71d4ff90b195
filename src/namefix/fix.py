"""Capture detection and repair.

Compares the name graph of a transformation's source program against the
graph of its output, and iteratively renames the capturing declarations
(together with the references that legitimately share their name), each at
most once, until the output is capture-free.

Cost of a repair round. For a resolver stated by binding forms, the
target's resolve is `BindingFrames`, one walk that fills a map from each
reference to its declaration; `find_capture` classifies that map against
the source graph, whose queries read the maps of its own resolve, so no
graph is built on either side. At the first capture one walk builds a
`LabelIndex`, the one owner of the repair's spellings: it spells and
groups every label, hands out fresh spellings, respells the term round
after round and notes each label it respelled. `comp_renaming` spells
those fresh, so `BindingFrames.rebind` re-binds only them and the
references bound to them, each reference from a record made when it is
first looked up. Its edge delta updates the capture set: dropped edges
leave it and added ones are classified (`NameGraph.unintended`). A round
thus costs what it changes: lookups by label and by spelling in
`comp_renaming` (whose fresh spellings resume at a cursor per base), a
respelling of the compounds above the renamed names, a re-binding that
moves only renamed top declarations and looks each stale frame up once
per spelling, and set operations on the delta. A capture-free input
costs one resolve and one `find_capture`, builds no index and shares one
empty trace. A resolver without binding forms is resolved in full every
round, its delta the difference of two edge sets; its index is built
right after its first resolve, so that the index's walk checks the
term's label ids even when no capture is found.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, Mapping

from .graph import BindingFrames, Edge, NameGraph, Resolver
from .term import Label, LabelIndex, Term


class CaptureKind(Enum):
    # A source reference no longer bound by its source declaration.
    SOURCE_REBOUND = "source-reference-rebound"
    # A source name, free or a declaration in the source, bound by a
    # declaration other than itself.
    SOURCE_FREE_CAPTURED = "free-source-name-captured"
    # A synthesized reference bound by a source declaration.
    SYNTHESIZED_CAPTURED = "synthesized-reference-captured"


@dataclass(frozen=True, slots=True)
class CaptureEdge:
    ref: Label
    decl: Label
    kind: CaptureKind

    def __str__(self) -> str:
        return f"{self.ref!r} -> {self.decl!r} ({self.kind.value})"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class RenamingPair:
    pi_src: Mapping[Label, str]
    pi_syn: Mapping[Label, str]

    def combined(self) -> dict[Label, str]:
        merged = dict(self.pi_src)
        merged.update(self.pi_syn)
        return merged


@dataclass(frozen=True, slots=True)
class FixStep:
    """One repair round: the capture it found, its renaming, the new term."""

    capture: CaptureSet
    renaming: RenamingPair
    term: Term


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class FixResult:
    """The repaired term and its rounds; its graph is the resolver's to give."""

    term: Term
    trace: FixTrace


class FixError(Exception):
    pass


class IterationBudgetExceeded(FixError):
    """A declaration captured again after repair renamed it: a resolver contract violation."""


_NO_CAPTURE = CaptureSet(frozenset())
_NO_STEPS = FixTrace()


def find_capture(gs: NameGraph, gt: NameGraph | BindingFrames) -> CaptureSet:
    """Edges of the target graph that break reference intent or
    declaration extent relative to the source graph. The target's
    `BindingFrames` will do for its graph: its map from each reference to
    a declaration is classified as it is."""
    edges = gt.bound.items() if gt.__class__ is BindingFrames and not gt.several else gt.edges
    if not edges:
        return _NO_CAPTURE
    return _captures(gs, edges)


def _captures(gs: NameGraph, edges: Iterable[Edge], kept: Collection[CaptureEdge] = ()) -> CaptureSet:
    """The capture edges among `edges`, and those `kept`: each edge is
    classified on its own, against the source graph alone. No capture
    found and none kept is one shared empty set."""
    rebound, free, synthesized = gs.unintended(edges)
    if not (rebound or free or synthesized or kept):
        return _NO_CAPTURE
    return CaptureSet(frozenset([
        *kept,
        *[CaptureEdge(v, d, CaptureKind.SOURCE_REBOUND) for v, d in rebound],
        *[CaptureEdge(v, d, CaptureKind.SOURCE_FREE_CAPTURED) for v, d in free],
        *[CaptureEdge(v, d, CaptureKind.SYNTHESIZED_CAPTURED) for v, d in synthesized],
    ]))


def comp_renaming(gs: NameGraph, index: LabelIndex, capture: CaptureSet) -> RenamingPair:
    """Fresh spellings, handed out by `index.fresh`, for every captured
    declaration of the term that `index` spells.

    A source declaration is renamed together with its source references; a
    synthesized declaration drags along every synthesized label that shares
    its spelling, since the target graph cannot be trusted to tell intended
    references apart while capture is present.
    """
    if not capture:
        raise ValueError("comp_renaming requires a nonempty capture set")
    spell, spelled = index.spelling, index.spelled
    pi_src: dict[Label, str] = {}
    pi_syn: dict[Label, str] = {}
    for v_d in sorted(capture.captured_declarations):
        if gs.counts_as_source(v_d):
            if v_d not in pi_src:
                fresh = pi_src[v_d] = index.fresh(spell[v_d])
                for v_r in gs.references_to(v_d):
                    pi_src[v_r] = fresh
        elif v_d not in pi_syn:
            group = gs.foreign(spelled[spell[v_d]])
            if group:
                fresh = index.fresh(spell[v_d])
                for v in group:
                    pi_syn[v] = fresh
    return RenamingPair(pi_src, pi_syn)


def name_fix(gs: NameGraph, t: Term, r: Resolver) -> FixResult:
    """Repair loop: resolve, detect capture, rename, repeat until clean.
    A round is `comp_renaming` on the term's `LabelIndex`, built once, and
    that index's `rename`. No round builds or keeps a graph (see the cost
    of a round above): a resolver without binding forms leaves only its
    last edge set, to diff the next resolve against.

    Capture-free input comes back as the very same term object. A round
    renames every declaration its capture set holds, each at most once by
    the repair argument: one captured again raises, so the loop ends.
    """
    frames: BindingFrames | None = None
    index: LabelIndex | None = None
    if r.scopes is None:
        gt = r.resolve(t)
        edges = gt.edges
        index = LabelIndex(t)
    else:
        gt = frames = BindingFrames(t, r.scopes, r.top(t))
    capture = find_capture(gs, gt)
    steps: list[FixStep] = []
    renamed: dict[Label, int] = {}  # captured declaration -> the round renaming it
    current = t
    while capture:
        if renamed and (again := [e for e in capture.edges if e.decl in renamed]):
            e = min(again, key=lambda e: (e.ref, e.decl))
            raise IterationBudgetExceeded(
                f"declaration {e.decl!r}, renamed in round {renamed[e.decl]}, "
                f"is captured again in round {len(steps) + 1}: {e}"
            )
        if index is None:
            index = LabelIndex(t)
        pair = comp_renaming(gs, index, capture)
        current = index.rename(pair.combined())
        steps.append(FixStep(capture, pair, current))
        for e in capture.edges:
            renamed[e.decl] = len(steps)
        if frames is None:
            resolved = r.resolve(current).edges
            drop, add = edges - resolved, resolved - edges
            edges = resolved
        else:
            drop, add = frames.rebind(index)
        # Edges the round leaves alone keep their classification.
        kept = [e for e in capture.edges if (e.ref, e.decl) not in drop]
        capture = _captures(gs, add, kept)
    return FixResult(current, FixTrace(tuple(steps)) if steps else _NO_STEPS)
