"""Scan-based reference versions of the repair loop.

Each query here walks the whole term or scans the whole graph on every
call, which is the plain reading of the paper's definitions. The library
answers the same queries from one spelling map per term and one index per
graph; the differential suite in test_oracle.py requires both to agree.
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
    gensym,
)
from namefix.graph import NameGraph, Resolver
from namefix.term import (
    InconsistentLabel,
    Label,
    LabelNotFound,
    Term,
    iter_names,
    rename,
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
    for v_d in sorted(capture.captured_declarations, key=lambda l: l.id):
        used = term_names | set(pi_src.values()) | set(pi_syn.values())
        fresh = gensym(name_at(t, v_d), used)
        if counts_as_source(gs, v_d):
            if v_d not in pi_src:
                pi_src[v_d] = fresh
                for v_r, bound in gs.edges:
                    if bound == v_d:
                        pi_src[v_r] = fresh
        elif v_d not in pi_syn:
            target_name = name_at(t, v_d)
            for v in gt.labels:
                if not counts_as_source(gs, v) and name_at(t, v) == target_name:
                    pi_syn[v] = fresh
    return RenamingPair(pi_src, pi_syn)


def name_fix(gs: NameGraph, t: Term, r: Resolver) -> FixResult:
    budget = len(labels_of(t))
    steps: list[FixStep] = []
    current = t
    while True:
        gt = r.resolve(current)
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
