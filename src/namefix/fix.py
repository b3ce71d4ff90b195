"""Capture detection and repair.

Compares the name graph of a transformation's source program against the
graph of its output, and iteratively renames the capturing declarations
(together with the references that legitimately share their name) until the
output is capture-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .graph import NameGraph, Resolver
from .term import Label, Term, rename, spellings


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
            for e in sorted(self.edges, key=lambda e: (e.ref.id, e.decl.id))
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
            src = {f"{v!r}": s for v, s in sorted(step.renaming.pi_src.items(), key=lambda kv: kv[0].id)}
            syn = {f"{v!r}": s for v, s in sorted(step.renaming.pi_syn.items(), key=lambda kv: kv[0].id)}
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
    edges: set[CaptureEdge] = set()
    for v, target in gt.edges:
        if gs.counts_as_source(v):
            bound = gs.bindings(v)
            if bound:
                if target not in bound:
                    edges.add(CaptureEdge(v, target, CaptureKind.SOURCE_REBOUND))
            elif v != target:
                edges.add(CaptureEdge(v, target, CaptureKind.SOURCE_FREE_CAPTURED))
        elif gs.counts_as_source(target):
            edges.add(CaptureEdge(v, target, CaptureKind.SYNTHESIZED_CAPTURED))
    return CaptureSet(frozenset(edges))


def comp_renaming(
    gs: NameGraph, gt: NameGraph, t: Term, capture: CaptureSet
) -> RenamingPair:
    """Fresh spellings for every captured-into declaration.

    A source declaration is renamed together with its source references; a
    synthesized declaration drags along every synthesized label that shares
    its spelling, since the target graph cannot be trusted to tell intended
    references apart while capture is present.
    """
    if not capture:
        raise ValueError("comp_renaming requires a nonempty capture set")
    pi_src: dict[Label, str] = {}
    pi_syn: dict[Label, str] = {}
    spell = spellings(t)
    used = set(spell.values())  # every spelling of t, plus each fresh one assigned
    for v_d in sorted(capture.captured_declarations, key=lambda l: l.id):
        fresh = gensym(spell[v_d], used)
        if gs.counts_as_source(v_d):
            if v_d not in pi_src:
                pi_src[v_d] = fresh
                used.add(fresh)
                for v_r, bound in gs.edges:
                    if bound == v_d:
                        pi_src[v_r] = fresh
        elif v_d not in pi_syn:
            for v in gt.labels:
                if not gs.counts_as_source(v) and spell[v] == spell[v_d]:
                    pi_syn[v] = fresh
                    used.add(fresh)
    return RenamingPair(pi_src, pi_syn)


def name_fix(gs: NameGraph, t: Term, r: Resolver) -> FixResult:
    """Repair loop: resolve, detect capture, rename, repeat until clean.

    Capture-free input comes back as the very same term object. The
    iteration budget is the label count of the input, read off its first
    resolved graph (a resolver's graph holds exactly the term's labels);
    the repair argument guarantees each declaration is renamed at most
    once, so running past the budget means a resolver assumption does not
    hold.
    """
    gt = r.resolve(t)
    budget = len(gt.labels)
    steps: list[FixStep] = []
    current = t
    while True:
        capture = find_capture(gs, gt)
        if not capture:
            return FixResult(current, FixTrace(tuple(steps)), gt)
        if len(steps) >= budget:
            raise IterationBudgetExceeded(
                f"capture repair did not converge within {budget} rounds"
            )
        pair = comp_renaming(gs, gt, current, capture)
        current = rename(current, pair.combined())
        steps.append(FixStep(capture, pair, current, gt))
        gt = r.resolve(current)
