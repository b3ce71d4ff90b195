"""Scan-based reference versions of the repair loop.

Each query here walks the whole term or scans the whole graph on every
call, which is the plain reading of the paper's definitions. The library
answers the same queries from one spelling map per term and one index per
graph; the differential suite in test_oracle.py requires both to agree.
It also keeps the lambda lifting that derived its scoping by itself, as
the oracle for the library's version, which reads it off the name graph.
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
from namefix.simpl import (
    FDEFS,
    declarations_of,
    fdef,
    fdef_body,
    fdef_name,
    fdef_params,
    prog,
    prog_fdefs,
    prog_main,
)
from namefix.term import (
    Compound,
    InconsistentLabel,
    Label,
    LabelNotFound,
    Name,
    Term,
    compound,
    iter_names,
    rename,
    spellings,
    tag,
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


# ---------------------------------------------------------------------------
# Lambda lifting with its own scope analysis: a walk that tells references
# from declarations and hand-built declaration sets per local function

def lift_prog(p: Term, graph: NameGraph) -> Term:
    """Naive lambda lifting: hoist every local function to the top level,
    given the name graph of p. Nothing is renamed.

    Let- and parameter-bound variables used (transitively) by a local
    function are passed as extra trailing arguments; the binding structure
    is read off the name graph of the unlifted program.
    """
    # Gather local functions with the declarations made inside each.
    locals_: list[Term] = []
    inside: dict[Label, frozenset[Label]] = {}

    def scan(e: Term) -> None:
        if tag(e) == "letfun":
            fn = e.children[1]
            locals_.append(fn)
            fn_decls = {fdef_name(fn).label} | {q.label for q in fdef_params(fn)}
            inside[fdef_name(fn).label] = frozenset(
                fn_decls | declarations_of(compound(FDEFS, fdef_body(fn)))
            )
            scan(fdef_body(fn))
            scan(e.children[2])
        elif isinstance(e, Compound):
            for c in e.children:
                scan(c)

    scan(p)
    if not locals_:
        return p

    local_fns = {fdef_name(fn).label for fn in locals_}
    var_decls = declarations_of(p) - local_fns - {fdef_name(f).label for f in prog_fdefs(p)}

    def refs_in(e: Term) -> list[Name]:
        out: list[Name] = []

        def walk(x: Term) -> None:
            if isinstance(x, Name):
                out.append(x)
            elif tag(x) == "let":
                walk(x.children[2])
                walk(x.children[3])
            elif tag(x) == "letfun":
                walk(fdef_body(x.children[1]))
                walk(x.children[2])
            elif tag(x) == "call":
                fn_name = x.children[1]
                assert isinstance(fn_name, Name)
                out.append(fn_name)
                for a in x.children[2:]:
                    walk(a)
            elif isinstance(x, Compound):
                for c in x.children[1:] if tag(x) else x.children:
                    walk(c)

        walk(e)
        return out

    direct: dict[Label, set[Label]] = {}
    calls: dict[Label, set[Label]] = {}
    for fn in locals_:
        f_label = fdef_name(fn).label
        needs: set[Label] = set()
        called: set[Label] = set()
        for ref in refs_in(fdef_body(fn)):
            for bound in graph.bindings(ref.label):
                if bound in var_decls and bound not in inside[f_label]:
                    needs.add(bound)
                elif bound in local_fns and bound != f_label:
                    called.add(bound)
        direct[f_label] = needs
        calls[f_label] = called

    # Transitive closure: a caller must be able to supply what its callees need.
    need = {f: set(s) for f, s in direct.items()}
    changed = True
    while changed:
        changed = False
        for f, called in calls.items():
            for g in called:
                extra = need[g] - inside[f] - need[f]
                if extra:
                    need[f] |= extra
                    changed = True

    extra_params: dict[Label, list[Label]] = {
        f: sorted((d for d in needed if d not in inside[f]), key=lambda l: l.id)
        for f, needed in need.items()
    }
    decl_text = spellings(p)

    lifted: list[Term] = []

    def go(e: Term) -> Term:
        if not isinstance(e, Compound):
            return e
        t = tag(e)
        if t == "letfun":
            fn = e.children[1]
            f_label = fdef_name(fn).label
            new_params = tuple(fdef_params(fn)) + tuple(
                Name(decl_text[d], d) for d in extra_params[f_label]
            )
            new_body = go(fdef_body(fn))
            lifted.append(fdef(fdef_name(fn), new_params, new_body))
            return go(e.children[2])
        if t == "call":
            fn_name = e.children[1]
            assert isinstance(fn_name, Name)
            args = [go(a) for a in e.children[2:]]
            for bound in sorted(graph.bindings(fn_name.label), key=lambda l: l.id):
                if bound in extra_params:
                    args += [Name(decl_text[d], d) for d in extra_params[bound]]
                    break
            return Compound((e.children[0], fn_name) + tuple(args))
        return Compound(tuple(go(c) for c in e.children))

    new_fdefs = [
        fdef(fdef_name(f), fdef_params(f), go(fdef_body(f))) for f in prog_fdefs(p)
    ]
    new_main = [go(e) for e in prog_main(p)]
    return prog(new_fdefs + lifted, new_main)
