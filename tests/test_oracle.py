"""Differential suite: the indexed repair loop against the scan-based
reference in reference.py, on the same generated cases, and the tree walks
against their recursive versions there.

Equal results means the same repaired term, the same trace (captures,
renamings, intermediate terms and graphs, round by round) and the same
final graph. The graphs and capture sets the loop carries from round to
round by re-binding are also checked against a full resolve of each
round's term, and against the loop of a resolver without binding forms,
which resolves every round.
"""

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from namefix import lam, simpl
from namefix.fix import IterationBudgetExceeded, comp_renaming, find_capture, name_fix
from namefix.graph import BindingFrames, NameGraph, Resolver, alpha_equiv_relabel, scoped_names, sub_alpha_equiv
from namefix.lam import LAMBDA_RESOLVER, pretty_lambda, resolve_lambda
from namefix.simpl import (
    SIMPL_RESOLVER,
    SimplError,
    fdef_name,
    inline_prog,
    lift_prog,
    parse_simpl,
    parse_simpl_exp,
    pretty_simpl,
    prog_fdefs,
    resolve_simpl,
    subst_prog,
)
from namefix.statemachine import (
    STM_RESOLVER,
    compile_machine,
    machine_states,
    parse_stm,
    pretty_stm,
    resolve_machine,
    state_name,
    state_transitions,
    trans_target,
)
from namefix.term import (
    Compound,
    Const,
    InconsistentLabel,
    Label,
    LabelIndex,
    Name,
    Provenance,
    descend,
    fold,
    gensym,
    iter_names,
    compound,
    label_equiv,
    labels_of,
    name_at,
    rename,
    spellings,
    subterms,
    tag,
)

from gen import (
    ADVERSARIAL_STATE_NAMES,
    every_lambda,
    gen_dispatch_clash_machine,
    gen_lambda,
    gen_machine_source,
    gen_simpl_source,
    mutate_lambda,
    planted_targets,
)

seeds = st.integers(0, 2**32 - 1)


def assert_same_repair(gs, t, resolver):
    got = name_fix(gs, t, resolver)
    want = reference.name_fix(gs, t, resolver)
    assert got.term == want.term
    assert got.trace == want.trace
    assert_rounds_resolve_alike(gs, t, resolver, got)
    return got


def assert_rounds_resolve_alike(gs, t, resolver, got):
    """Each round's capture set is find_capture's on the resolved graph of
    the term before it, and the repaired term resolves capture-free; each
    round's new spellings are fresh, as `BindingFrames.rebind` requires:
    no label of the term before has one, and in the term after only labels
    the round renamed do; no round captures a declaration an earlier round
    captured, which is what ends the loop; and a resolver without binding
    forms, which resolves every round, repairs alike."""
    before = [t] + [step.term for step in got.trace.steps]
    captured = set()
    for prior, step in zip(before, got.trace.steps):
        g = resolver.resolve(prior)
        assert step.capture == find_capture(gs, g)
        assert not captured & step.capture.captured_declarations
        captured |= step.capture.captured_declarations
        pi = step.renaming.combined()
        fresh = set(pi.values())
        assert not fresh & set(spellings(prior).values())
        assert {v for v, s in spellings(step.term).items() if s in fresh} <= pi.keys()
    assert not find_capture(gs, resolver.resolve(got.term))
    plain = name_fix(gs, t, Resolver(resolver.language, resolver.resolve))
    assert (plain.term, plain.trace) == (got.term, got.trace)


def pinned_simpl(src, relabel=None):
    """A .spl program with every label pinned; `relabel` maps pinned ids to
    the label their names take instead, which pins alone cannot repeat."""
    relabel = relabel or {}
    return fold(parse_simpl(src), lambda n: Name(n.text, relabel.get(n.label.id, n.label)))


def x(i, synth=False):
    """The name x at label i, synthesized or from the source."""
    return Name("x", Label(i, Provenance.SYNTHESIZED if synth else Provenance.SOURCE))


# (source, target, resolver, the rounds repair takes)
REBINDING_CASES = {
    # Round 1 renames the later of two parameters spelled x, so the
    # synthesized x in the body falls back to the earlier one: captured
    # again, renamed in round 2.
    "duplicate-binders": (
        pinned_simpl("fun f@5(x@1, x@2) = x@3;\nf@6(1, 2)\n"),
        pinned_simpl("fun f@5(x@1, x@2) = x@3 + x@'4;\nf@6(1, 2)\n"),
        SIMPL_RESOLVER,
        2,
    ),
    # Label 3 occurs under two binders; renaming the second frees that
    # occurrence and keeps the other's edge.
    "one-label-two-scopes": (
        lam.app(lam.lam(x(1), x(3)), lam.lam(x(2), x(4))),
        lam.app(lam.lam(x(1), x(3)), lam.lam(x(2), x(3))),
        LAMBDA_RESOLVER,
        1,
    ),
    "label-0-declaration": (
        lam.lam(x(1), lam.app(lam.lam(x(0), x(2)), x(3))),
        lam.lam(x(1), lam.app(lam.lam(x(0), lam.app(x(2), x(4, True))), x(3))),
        LAMBDA_RESOLVER,
        2,
    ),
    "label-0-reference": (
        lam.app(x(0), x(1)),
        lam.lam(x(2, True), lam.app(x(0), x(1))),
        LAMBDA_RESOLVER,
        1,
    ),
    # Round 1 renames the last top-level f, so the synthesized f falls back
    # to the one before it (the last rule), while the reference carrying
    # @1's label stays with @1 (the first rule); round 2 renames @1.
    "renamed-top-level-function": (
        pinned_simpl("fun f@1() = 1;\nfun f@2() = 2;\nf@3() + f@7()\n", {7: Label(1)}),
        pinned_simpl(
            "fun f@'5() = 3;\nfun f@1() = 1;\nfun f@2() = 2;\nf@3() + f@7() + f@'4()\n",
            {7: Label(1)},
        ),
        SIMPL_RESOLVER,
        2,
    ),
    # The target's binder is the source's @1 turned synthesized: @2 keeps
    # its binder by id, so only @4's edge is a capture, yet renaming the
    # binder frees @2 as well. Re-binding only the captured references
    # would carry @2's edge past the round.
    "provenance-flipped-binder": (
        lam.app(lam.lam(x(1), x(2)), x(4)),
        lam.lam(x(1, True), lam.app(x(2), x(4))),
        LAMBDA_RESOLVER,
        1,
    ),
}


def frames_graph(q, scopes, top):
    """The name graph of the BindingFrames of q under `scopes` and `top`:
    the labels of its names and its edges."""
    frames = BindingFrames(q, scopes, top(q))
    return NameGraph(frames.names, frames.edges)


def test_resolvers_carry_their_binding_forms():
    """Each bundled resolver's `resolve` is its module function (the
    benchmark tracer finds resolvers by it) and is the graph `BindingFrames`
    gives under the binding forms it carries, which repair re-binds
    through."""
    rng = random.Random(0)
    p = parse_simpl(gen_simpl_source(rng, n_fdefs=5))
    m = parse_stm(gen_machine_source(rng))
    s = gen_lambda(rng)
    for resolver, resolve, q in (
        (SIMPL_RESOLVER, resolve_simpl, p),
        (STM_RESOLVER, resolve_machine, m),
        (LAMBDA_RESOLVER, resolve_lambda, s),
    ):
        assert resolver.resolve is resolve
        assert typed(frames_graph(q, resolver.scopes, resolver.top)) == typed(resolve(q))


def counted_rules(scopes):
    """scopes with each rule wrapped to note (its tag, the compound) per call."""
    calls = []

    def counted(key, rule):
        def call(c, env, bind):
            calls.append((key, c))
            return rule(c, env, bind)

        return call

    return {key: counted(key, rule) for key, rule in scopes.items()}, calls


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_rules_run_only_at_compounds_of_their_tag(seed):
    """A resolve hands the language only the compounds whose tag its table
    of binding forms has, each once; every other compound is walked
    without it."""
    rng = random.Random(seed)
    m = parse_stm(gen_machine_source(rng))
    s = gen_lambda(rng)
    for resolver, q in (
        (SIMPL_RESOLVER, parse_simpl(gen_simpl_source(rng, n_fdefs=rng.randrange(1, 8)))),
        (SIMPL_RESOLVER, compile_machine(m)),
        (STM_RESOLVER, m),
        (LAMBDA_RESOLVER, s),
        (LAMBDA_RESOLVER, mutate_lambda(rng, s)),
    ):
        scopes, calls = counted_rules(resolver.scopes)
        assert typed(frames_graph(q, scopes, resolver.top)) == typed(resolver.resolve(q))
        assert all(tag(c) == key for key, c in calls)
        ruled = [c for c in subterms(q) if tag(c) in resolver.scopes]
        assert sorted(id(c) for _, c in calls) == sorted(map(id, ruled))


# The children of each compound that stand for expressions, by tag:
# wrapping one leaves the term's binding structure as it was.
OPERANDS = {
    "lam": [2], "app": [1, 2], "add": [1, 2], "mul": [1, 2], "eq": [1, 2], "not": [1],
    "if": [1, 2, 3], "let": [2, 3], "letfun": [2], "fdef": [3],
}


def wrapped(rng, t):
    """t with some operands (and any call argument or main expression)
    inside a compound no binding form has a rule for: untagged, headed by
    an int, or tagged `box`."""

    def wrap(e):
        k = rng.randrange(4)
        return (
            e if k == 0
            else Compound((e,)) if k == 1
            else Compound((Const(7), e, Const(8))) if k == 2
            else Compound((Const("box"), e))
        )

    def node(c, parts):
        key = tag(c)
        if key in ("main", "call"):
            at = range(1 if key == "main" else 2, len(parts))
        else:
            at = OPERANDS.get(key, ())
        for i in at:
            parts[i] = wrap(parts[i])
        return Compound(tuple(parts))

    return fold(t, node=node)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_compounds_without_a_rule_are_transparent(seed):
    """An untagged compound, or one whose tag has no rule, lets each child
    see its own scope: resolve, substitution and declarations_of agree
    with the recursive reference versions, which walk such compounds
    through."""
    rng = random.Random(seed)
    p = wrapped(rng, parse_simpl(gen_simpl_source(rng, n_fdefs=rng.randrange(1, 8))))
    assert typed(resolve_simpl(p)) == typed(reference.resolve_simpl(p))
    assert simpl.declarations_of(p) == reference.declarations_of(p)
    repl = wrapped(rng, parse_simpl_exp("let x = 2 in x + z + f(n)"))
    for x in ("x", "y", "f", "n"):
        assert_same_term(subst_prog(p, x, repl), reference.subst_prog(p, x, repl))
    s = gen_lambda(rng)
    for q in (wrapped(rng, s), wrapped(rng, mutate_lambda(rng, s))):
        assert typed(resolve_lambda(q)) == typed(reference.resolve_lambda(q))


@pytest.mark.parametrize("case", list(REBINDING_CASES))
def test_rebinding_hand_cases(case):
    source, target, resolver, rounds = REBINDING_CASES[case]
    got = assert_same_repair(resolver.resolve(source), target, resolver)
    assert len(got.trace) == rounds


def test_rebinding_binds_the_label_the_term_carries():
    """Repair renames the source reference @2 by the source graph's label,
    but the target carries that id synthesized, @'2, and re-binding must
    bind @'2: to a source declaration, a capture. So round 2 captures @1
    again: `name_fix` stops there, on the repair argument's check that no
    declaration is renamed twice, while `reference.name_fix` renames @1
    round after round until it runs out of budget. Both raise
    IterationBudgetExceeded."""
    source = lam.lam(x(1), x(2))
    target = lam.lam(x(1), lam.add(x(4, True), lam.lam(x(3), x(2, True))))
    for repair in (name_fix, reference.name_fix):
        with pytest.raises(IterationBudgetExceeded):
            repair(resolve_lambda(source), target, LAMBDA_RESOLVER)


def test_rebinding_names_the_declaration_captured_again():
    """On the same term repair stops in round 2, which captures @1 again,
    and names @1, its round and the edge, with binding frames and with a
    resolver that resolves every round alike."""
    source = lam.lam(x(1), x(2))
    target = lam.lam(x(1), lam.add(x(4, True), lam.lam(x(3), x(2, True))))
    for resolver in (LAMBDA_RESOLVER, Resolver("lambda", resolve_lambda)):
        with pytest.raises(IterationBudgetExceeded) as info:
            name_fix(resolve_lambda(source), target, resolver)
        assert str(info.value) == (
            "declaration @1, renamed in round 1, is captured again in round 2: "
            "@'2 -> @1 (synthesized-reference-captured)"
        )


def assert_two_provenances_rejected(t, *resolves):
    """Each of `resolves` raises InconsistentLabel on t, which carries one
    label id both as source and as synthesized."""
    for resolve in resolves:
        with pytest.raises(InconsistentLabel, match=r"^label id \d+ occurs as both @'?\d+ and @'?\d+$"):
            resolve(t)


def test_a_label_declared_synthesized_and_referenced_as_source_is_rejected():
    """Label 5 is declared synthesized, @'5, and referenced as source, x@5:
    one id under two provenances merges two names, so the resolve, the
    reference resolver and both repair loops reject the term."""
    t = lam.lam(x(5, True), lam.lam(x(7), x(5)))
    assert_two_provenances_rejected(
        t,
        resolve_lambda,
        reference.resolve_lambda,
        lambda t: BindingFrames(t, LAMBDA_RESOLVER.scopes, ()),
        lambda t: name_fix(resolve_lambda(t), t, LAMBDA_RESOLVER),
        lambda t: reference.name_fix(resolve_lambda(t), t, LAMBDA_RESOLVER),
    )


def smallest_kept_capture():
    r"""The source `\z@1. (\z@2. z@3) + z@4`, and a target that plants, under
    \z@2, a copy of `(\z@2. z@3) + z@4` with every name flipped to
    synthesized, so that it carries @2 and @'2. Without the provenance
    check, repair returns after one round with @'4 -> @1 still captured."""
    z = lambda i, synth=False: Name("z", lbl(i, synth))
    source = lam.lam(z(1), lam.add(lam.lam(z(2), z(3)), z(4)))
    copy = lam.add(lam.lam(z(2, True), z(3, True)), z(4, True))
    target = lam.lam(
        Name("y", lbl(5, True)),
        lam.lam(z(1), lam.add(lam.lam(z(2), lam.add(z(3), copy)), z(4))),
    )
    return source, target


def test_the_smallest_term_that_kept_a_capture_is_rejected():
    """Both resolvers and both repair loops reject the target of
    `smallest_kept_capture`."""
    source, target = smallest_kept_capture()
    gs = resolve_lambda(source)
    assert_two_provenances_rejected(
        target,
        resolve_lambda,
        reference.resolve_lambda,
        lambda t: name_fix(gs, t, LAMBDA_RESOLVER),
        lambda t: reference.name_fix(gs, t, LAMBDA_RESOLVER),
    )


def test_every_walk_built_on_spellings_rejects_one_id_under_two_provenances():
    """`spellings`, and `labels_of`, `name_at` and `rename`, which are built
    on it, reject a term that carries @4 and @'4, as a resolve does."""
    t = compound(Name("x", lbl(4, False)), Name("x", lbl(4, True)))
    assert_two_provenances_rejected(
        t, spellings, labels_of, lambda t: name_at(t, lbl(4, False)), lambda t: rename(t, {lbl(4, False): "y"})
    )


def test_a_resolver_given_only_resolve_is_checked_through_its_spellings():
    r"""A resolver given only `resolve` may not check provenance: this one
    resolves the term with every label read as source. Repair builds its
    index right after that resolve, and the index's walk checks every id,
    so it still rejects the target of `smallest_kept_capture` in place of
    leaving a capture in it, and `\x@1. x@2 x@'2`, in which it finds no
    capture, in place of returning it."""

    def unchecked(t):
        flat = fold(t, lambda n: Name(n.text, lbl(n.label.id, False)))
        return NameGraph({n.label for n in iter_names(t)}, resolve_lambda(flat).edges)

    r = Resolver("lambda", resolve=unchecked)
    source, target = smallest_kept_capture()
    gs = resolve_lambda(source)
    assert find_capture(gs, unchecked(target))
    assert_two_provenances_rejected(target, lambda t: name_fix(gs, t, r))
    source, target = lam.lam(x(1), x(2)), lam.lam(x(1), lam.app(x(2), x(2, True)))
    gs = resolve_lambda(source)
    assert not find_capture(gs, unchecked(target))
    assert_two_provenances_rejected(target, lambda t: name_fix(gs, t, r))


def assert_graph_of_its_pairs(r, t, probe):
    """The graph `r.resolve(t)`, which reads the maps its walk filled,
    answers every query as the graph built by hand from the labels and the
    edge pairs of the same walk; `probe`, edges of another term, probes
    `unintended`, and their labels, under both provenances, the label
    queries."""
    got, want = r.resolve(t), frames_graph(t, r.scopes, r.top)
    labels = {v for e in probe for v in e} | set(want.labels)
    labels |= {lbl(v.id, not v.synthesized) for v in labels}
    found = lambda g, v: None if (w := g.find(v.id)) is None else (w.id, w.synthesized)
    for v in sorted(labels):
        assert got.bindings(v) == want.bindings(v)
        assert set(got.references_to(v)) == set(want.references_to(v))
        assert got.counts_as_source(v) == want.counts_as_source(v)
        assert found(got, v) == found(want, v)
    assert got.foreign(sorted(labels)) == want.foreign(sorted(labels))
    assert got.unintended(probe) == want.unintended(probe)
    assert typed(got) == typed(want) and got == want and hash(got) == hash(want)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_a_resolve_graph_is_the_graph_of_its_pairs(seed):
    rng = random.Random(seed)
    s = gen_lambda(rng)
    t = mutate_lambda(rng, s)
    p = parse_simpl(gen_simpl_source(rng, n_fdefs=rng.randrange(1, 8)))
    m = parse_stm(gen_machine_source(rng))
    for r, q, target in (
        (LAMBDA_RESOLVER, s, t),
        (LAMBDA_RESOLVER, t, s),
        (SIMPL_RESOLVER, p, subst_prog(p, "y", parse_simpl_exp("x + 1"))),
        (STM_RESOLVER, m, m),
        (SIMPL_RESOLVER, compile_machine(m), compile_machine(m)),
    ):
        assert_graph_of_its_pairs(r, q, sorted(BindingFrames(target, r.scopes, r.top(target)).edges))


def test_a_planted_target_graph_is_the_graph_of_its_pairs():
    """The planted copies bind one reference label to two declarations:
    the resolve keeps the second in `several`, which every query reads."""
    several = 0
    for s in every_lambda(4):
        for t in planted_targets(s):
            if not two_provenances(t):
                frames = BindingFrames(t, LAMBDA_RESOLVER.scopes, ())
                several += bool(frames.several)
                assert_graph_of_its_pairs(LAMBDA_RESOLVER, t, sorted(resolve_lambda(s).edges))
                assert_graph_of_its_pairs(LAMBDA_RESOLVER, s, sorted(frames.edges))
    assert several


@settings(max_examples=300, deadline=None)
@given(seeds)
def test_mutated_lambda_terms(seed):
    rng = random.Random(seed)
    s = gen_lambda(rng)
    assert_same_repair(resolve_lambda(s), mutate_lambda(rng, s), LAMBDA_RESOLVER)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_subst_on_open_programs(seed):
    rng = random.Random(seed)
    p = parse_simpl(gen_simpl_source(rng))
    repl = parse_simpl_exp(rng.choice(["2 * n", "x + y", "f(1)", "let x = 2 in x + z"]))
    t = subst_prog(p, rng.choice(["x", "y", "z", "n"]), repl)
    assert_same_repair(resolve_simpl(p), t, SIMPL_RESOLVER)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_inline_and_lift_on_closed_programs(seed):
    p = parse_simpl(gen_simpl_source(random.Random(seed), closed=True))
    gs = resolve_simpl(p)
    for fname in sorted({fdef_name(f).text for f in prog_fdefs(p)}):
        assert_same_repair(gs, inline_prog(p, fname, gs), SIMPL_RESOLVER)
    assert_same_repair(gs, lift_prog(p, gs), SIMPL_RESOLVER)


def lift_inputs(seed):
    """Open and closed generated programs, plus the naive inlining of up to
    three of their functions, whose copied arguments duplicate labels."""
    rng = random.Random(seed)
    n_fdefs = rng.choice([3, 8, 25])
    for closed in (False, True):
        p = parse_simpl(gen_simpl_source(rng, closed=closed, n_fdefs=n_fdefs))
        yield p
        gs = resolve_simpl(p)
        for fname in sorted({fdef_name(f).text for f in prog_fdefs(p)})[:3]:
            try:
                yield inline_prog(p, fname, gs)
            except SimplError:  # open programs may call a duplicate of another arity
                pass


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_lift_reads_its_scoping_off_the_graph(seed):
    for q in lift_inputs(seed):
        graph = resolve_simpl(q)
        assert lift_prog(q, graph) == reference.lift_prog(q, graph)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_clashing_machines(seed):
    rng = random.Random(seed)
    src = gen_machine_source(rng)
    # A state spelled like a parameter of the compiled dispatch functions
    # is always captured by that parameter.
    m = parse_stm(src + f"state {rng.choice(['event', 'state'])}\n")
    result = assert_same_repair(resolve_machine(m), compile_machine(m), SIMPL_RESOLVER)
    assert result.trace.steps


def generated_terms(rng):
    """Generated terms of each language, each with its resolver. Two share
    one node object between positions: `compile_machine` reuses each
    state's Name, and `subst_prog` places its one replacement object at
    every site."""
    p = parse_simpl(gen_simpl_source(rng, n_fdefs=rng.randrange(1, 8)))
    m = parse_stm(gen_machine_source(rng))
    s = gen_lambda(rng)
    repl = parse_simpl_exp(rng.choice(["2 * n", "x + y", "f(1)", "let x = 2 in x + z"]))
    return [
        (SIMPL_RESOLVER, p),
        (SIMPL_RESOLVER, compile_machine(m)),
        (SIMPL_RESOLVER, subst_prog(p, rng.choice(["x", "y", "z", "n"]), repl)),
        (STM_RESOLVER, m),
        (LAMBDA_RESOLVER, s),
        (LAMBDA_RESOLVER, mutate_lambda(rng, s)),
    ]


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_binding_forms_list_names_left_to_right(seed):
    """Each language's rules list the names of a term in the order they
    stand in it, left to right, position by position: so the k-th frame the
    resolve notes in `BindingFrames.met` is that of the occurrence
    `LabelIndex` numbers k, which repair relies on."""
    for resolver, q in generated_terms(random.Random(seed)):
        listed = scoped_names(q, (), resolver.scopes, lambda env, names: env)
        names = list(iter_names(q))
        assert len(listed) == len(names)
        assert all(a is b for (a, _), b in zip(listed, names))
        frames = BindingFrames(q, resolver.scopes, resolver.top(q))
        assert [f is None for f in frames.met] == [env is None for _, env in listed]
        assert {v: n.text for v, n in frames.names.items()} == spellings(q)
        index = LabelIndex(q)
        numbered = sorted(k for v in frames.names for k in index.occurrences(v))
        assert numbered == list(range(len(names)))
        # A rename keyed by the other provenance notes each label respelled
        # as the term carries it, which `rebind` binds.
        index.rename({lbl(v.id, not v.synthesized): f"{n.text}0" for v, n in frames.names.items()})
        assert index.respelled.keys() == frames.names.keys()
        for v in index.respelled:
            assert all(names[k].label.synthesized is v.synthesized for k in index.occurrences(v))


def shared(t) -> int:
    """How many node objects stand at more than one position of t."""
    return sum(1 for c in Counter(map(id, subterms(t))).values() if c > 1)


SHARED_SUBST = [
    # The replacement's g is captured by each top-level g in turn.
    ("fun g(a) = a;\nfun g(b) = b + 1;\nfun g(c) = c * 2;\nfun f(x) = g(x) + y;\nf(y) + g(y)", "y", "g + 1"),
    # Its z is captured under the let, and free at the other sites.
    ("fun f(x) = let z = 1 in x + y + z;\nf(y) * y", "y", "z * 2"),
]


@pytest.mark.parametrize("src, var, repl", SHARED_SUBST)
def test_repair_of_one_replacement_at_every_site(src, var, repl):
    p = parse_simpl(src)
    gs = resolve_simpl(p)
    t = subst_prog(p, var, parse_simpl_exp(repl))
    assert shared(t)
    result = assert_same_repair(gs, t, SIMPL_RESOLVER)
    assert result.trace.steps
    assert sub_alpha_equiv(t, result.term, gs)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_repair_of_nodes_shared_between_positions(seed):
    """Repair respells a node shared between positions at every one, and
    re-binds each position in its own scope: compiled machines, whose state
    Names the compilation reuses, and substitutions, whose one replacement
    object stands at every site."""
    rng = random.Random(seed)
    m = parse_stm(gen_machine_source(rng) + f"state {rng.choice(['event', 'state'])}\n")
    t = compile_machine(m)
    assert shared(t)
    gs = resolve_machine(m)
    result = assert_same_repair(gs, t, SIMPL_RESOLVER)
    assert result.trace.steps
    assert sub_alpha_equiv(t, result.term, gs)
    p = parse_simpl(gen_simpl_source(rng))
    gs = resolve_simpl(p)
    repl = parse_simpl_exp(rng.choice(["2 * n", "x + y", "f(1)", "let x = 2 in x + z"]))
    t = subst_prog(p, rng.choice(["x", "y", "z", "n"]), repl)
    result = assert_same_repair(gs, t, SIMPL_RESOLVER)
    assert sub_alpha_equiv(t, result.term, gs)


@pytest.mark.parametrize("n", [50, 100])
def test_many_captures_in_one_round(n):
    """Half the states are spelled like another state's dispatch function,
    so one round captures n/2 declarations."""
    m = parse_stm(gen_dispatch_clash_machine(random.Random(n), n))
    gs = resolve_machine(m)
    t = compile_machine(m)
    got = name_fix(gs, t, SIMPL_RESOLVER)
    want = reference.name_fix(gs, t, SIMPL_RESOLVER)
    assert got.term == want.term
    assert got.trace == want.trace
    assert got.trace.format() == want.trace.format()
    assert len(got.trace.steps[0].capture.captured_declarations) >= n // 2
    assert_rounds_resolve_alike(gs, t, SIMPL_RESOLVER, got)
    before = [t] + [step.term for step in got.trace.steps]
    for prior, step, ref_step in zip(before, got.trace.steps, want.trace.steps):
        pair = comp_renaming(gs, LabelIndex(prior), step.capture)
        assert pair == ref_step.renaming  # reference.comp_renaming on the same graphs


def machine_resolver_inputs(seed):
    """A generated machine with one more state, spelled adversarially or
    like another state; the same machine with every label pinned, a third
    of them as synthesized; and the machine with a transition target
    carrying the label of a state spelled like it."""
    rng = random.Random(seed)
    src = gen_machine_source(rng)
    names = re.findall(r"^state (\S+)$", src, re.M)
    extra = rng.choice(ADVERSARIAL_STATE_NAMES + names)
    m = parse_stm(src + f"state {extra}\n  go => {rng.choice(names + [extra])}\n")
    yield m

    def tick(pin):
        return f"@'{pin.group(1)}" if rng.random() < 0.3 else pin.group()

    yield parse_stm(re.sub(r"@(\d+)", tick, pretty_stm(m, show_labels=True)))
    states = [state_name(s) for s in machine_states(m)]
    targets = [trans_target(t) for s in machine_states(m) for t in state_transitions(s)]
    target = rng.choice(targets)
    alike = [n for n in states if n.text == target.text]
    if alike:
        decl = rng.choice(alike)
        yield fold(m, lambda n: Name(n.text, decl.label) if n is target else n)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_machine_resolver_matches_its_loops(seed):
    for m in machine_resolver_inputs(seed):
        assert resolve_machine(m) == reference.resolve_machine(m)


@pytest.mark.parametrize("n", [10, 50, 100])
def test_machine_resolver_on_many_clash_machines(n):
    m = parse_stm(gen_dispatch_clash_machine(random.Random(n), n))
    assert resolve_machine(m) == reference.resolve_machine(m)


def test_machine_resolvers_reject_a_label_spelled_two_ways():
    m = parse_stm("state a\n  go => b\nstate b\n  go => a\n")
    a, b = (state_name(s) for s in machine_states(m))
    corrupt = fold(m, lambda n: Name(n.text, a.label) if n is b else n)
    for resolve in (resolve_machine, reference.resolve_machine):
        with pytest.raises(InconsistentLabel, match=r"^label @\d+ occurs as both 'a' and 'b'$"):
            resolve(corrupt)


def with_top_level_duplicates(rng, p, tops, refs):
    """p with references that carry the label of an earlier top-level
    declaration spelled like them, then that term with two same-spelled
    top-level declarations sharing a label id but not its provenance, which
    every resolver must reject. In both, every id is lowered by the least
    one, so one label is 0."""
    alike = {}
    for n in tops:
        alike.setdefault(n.text, []).append(n)
    duplicated = [ns for ns in alike.values() if len(ns) > 1]
    relabel = {}  # id(name node) -> its new label
    for r in refs:
        group = alike.get(r.text, ())
        if len(group) > 1 and rng.random() < 0.7:
            relabel[id(r)] = rng.choice(group[:-1]).label
    least = min(n.label.id for n in iter_names(p))

    def shifted():
        def name(n):
            v = relabel.get(id(n), n.label)
            return Name(n.text, Label(v.id - least, v.provenance))

        return fold(p, name)

    yield shifted()
    if duplicated:
        group = rng.choice(duplicated)
        i, j = sorted(rng.sample(range(len(group)), 2))
        first = group[i].label
        flipped = Provenance.SOURCE if first.synthesized else Provenance.SYNTHESIZED
        relabel[id(group[j])] = Label(first.id, flipped)
        yield shifted()


def typed(g):
    """g's labels and edges with each label's provenance: graph equality
    compares labels by id only."""
    return (
        sorted((v.id, v.synthesized) for v in g.labels),
        sorted((r.id, r.synthesized, d.id, d.synthesized) for r, d in g.edges),
    )


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_top_level_pick_matches_the_scan(seed):
    rng = random.Random(seed)
    p = parse_simpl(gen_simpl_source(rng, n_fdefs=rng.randrange(3, 12)))
    tops = [fdef_name(f) for f in prog_fdefs(p)]
    declared = simpl.declarations_of(p)
    refs = [n for n in iter_names(p) if n.label not in declared]
    q, *mixed = with_top_level_duplicates(rng, p, tops, refs)
    assert typed(resolve_simpl(q)) == typed(reference.resolve_simpl(q))
    for q in mixed:
        assert_two_provenances_rejected(q, resolve_simpl, reference.resolve_simpl)
    m = parse_stm(gen_machine_source(rng) + gen_machine_source(rng))
    states = [state_name(s) for s in machine_states(m)]
    targets = [trans_target(t) for s in machine_states(m) for t in state_transitions(s)]
    q, *mixed = with_top_level_duplicates(rng, m, states, targets)
    assert typed(resolve_machine(q)) == typed(reference.resolve_machine(q))
    for q in mixed:
        assert_two_provenances_rejected(q, resolve_machine, reference.resolve_machine)


def respellings(rng, t, rounds):
    """Successive random respellings of t's labels, each round to one or two
    spellings fresh for the term, shared among the labels it picks, as
    repair respells (the contract of `BindingFrames.rebind`). A picked
    label may come with the other provenance, as repair names a source
    reference by the source graph's label."""
    spell = spellings(t)
    labels = sorted(spell)
    for _ in range(rounds if labels else 0):
        picked = rng.sample(labels, rng.randrange(1, min(4, len(labels)) + 1))
        used = set(spell.values())
        fresh = []
        for _ in range(rng.randrange(1, 3)):
            fresh.append(gensym(spell[rng.choice(picked)], used, {}))
            used.add(fresh[-1])
        pi = {lbl(v.id, not v.synthesized) if rng.random() < 0.3 else v: rng.choice(fresh) for v in picked}
        spell.update(pi)
        yield pi


def assert_rebinds_like_resolve(resolver, t, pis):
    """After each respelling of `pis`, the graph BindingFrames carries is
    the resolved graph of the respelled term, provenance included."""
    frames = BindingFrames(t, resolver.scopes, resolver.top(t))
    g = NameGraph(frames.names, frames.edges)
    index = LabelIndex(t)
    assert typed(g) == typed(resolver.resolve(t))
    for pi in pis:
        term = index.rename(pi)
        drop, add = frames.rebind(index)
        assert not drop & add
        g = NameGraph(g.labels, g.edges - drop | add)
        assert typed(g) == typed(resolver.resolve(term))


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_rebinding_matches_resolve_after_respellings(seed):
    """All three languages; .spl and .stm with top-level declarations that
    share a spelling, and references carrying an earlier one's label."""
    rng = random.Random(seed)
    s = gen_lambda(rng)
    assert_rebinds_like_resolve(LAMBDA_RESOLVER, s, respellings(rng, s, 4))
    t = mutate_lambda(rng, s)
    assert_rebinds_like_resolve(LAMBDA_RESOLVER, t, respellings(rng, t, 4))
    p = parse_simpl(gen_simpl_source(rng, n_fdefs=rng.randrange(3, 12)))
    tops = [fdef_name(f) for f in prog_fdefs(p)]
    declared = simpl.declarations_of(p)
    refs = [n for n in iter_names(p) if n.label not in declared]
    q, *mixed = with_top_level_duplicates(rng, p, tops, refs)
    for q in [p, q]:
        assert_rebinds_like_resolve(SIMPL_RESOLVER, q, respellings(rng, q, 4))
    for q in mixed:
        assert_two_provenances_rejected(
            q, lambda q: BindingFrames(q, SIMPL_RESOLVER.scopes, SIMPL_RESOLVER.top(q)), reference.resolve_simpl
        )
    m = parse_stm(gen_machine_source(rng) + gen_machine_source(rng))
    assert_rebinds_like_resolve(STM_RESOLVER, m, respellings(rng, m, 4))
    assert_rebinds_like_resolve(SIMPL_RESOLVER, compile_machine(m), respellings(rng, compile_machine(m), 4))


def lbl(i: int, synth: bool) -> Label:
    return Label(i, Provenance.SYNTHESIZED if synth else Provenance.SOURCE)


labels = st.builds(lbl, st.integers(1, 8), st.booleans())
edge_sets = st.sets(st.tuples(labels, labels), max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.sets(labels, max_size=8), edge_sets, labels)
def test_graph_queries(vs, edges, v):
    g = NameGraph(vs, edges)
    assert g.find(v.id) is reference.find(g, v.id)
    assert g.bindings(v) == reference.bindings(g, v)
    assert sorted(g.references_to(v)) == sorted(r for r, d in g.edges if d == v)
    assert g.counts_as_source(v) is reference.counts_as_source(g, v)


@settings(max_examples=200, deadline=None)
@given(edge_sets, edge_sets)
def test_find_capture_on_arbitrary_graphs(source_edges, target_edges):
    vs = {v for e in source_edges | target_edges for v in e}
    gs, gt = NameGraph(vs, source_edges), NameGraph(vs, target_edges)
    assert find_capture(gs, gt) == reference.find_capture(gs, gt)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_comp_renaming_on_arbitrary_graphs(data):
    # Few spellings, one of them a gensym candidate, so fresh names collide
    # with the term and with each other.
    spell = data.draw(
        st.dictionaries(labels, st.sampled_from(["x", "x0", "y"]), min_size=1, max_size=8)
    )
    t = Compound(tuple(Name(text, v) for v, text in spell.items()))
    ends = st.sampled_from(list(spell))
    edges = st.sets(st.tuples(ends, ends), max_size=10)
    source = data.draw(st.sets(ends))
    gs = NameGraph(source, {(r, d) for r, d in data.draw(edges) if r in source and d in source})
    # A source reference that is also a captured target declaration can
    # have its fresh spelling overwritten in the round; the reference then
    # forgets that spelling and may hand it out again, the library never
    # does (see test_fix.py). Resolvers give a label one role, so keep that
    # case out here.
    gt = NameGraph(spell, {(r, d) for r, d in data.draw(edges) if d not in gs.references})
    capture = find_capture(gs, gt)
    if capture:
        got = comp_renaming(gs, LabelIndex(t), capture)
        assert got == reference.comp_renaming(gs, gt, t, capture)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gensym_cursor_picks_what_the_scan_from_zero_picks(data):
    """Rounds as repair runs them: one index hands out fresh spellings with
    its cursor kept across rounds, a renaming gives some of them to labels
    and leaves others unused (the last one of a round always), and a
    label's old spelling may leave the term. The index's rename frees every
    spelling that left, and every pick is the reference's smallest-unused
    one."""
    # Spellings that are bases, candidates of one another (x1 is x's, x12
    # both x's and x1's) or neither.
    texts = st.sampled_from(["x", "x0", "x1", "x12", "x2", "y", "y0"])
    bases = st.sampled_from(["x", "x1", "y"])
    spell = data.draw(st.dictionaries(labels, texts, min_size=1, max_size=8))
    index = LabelIndex(Compound(tuple(Name(text, v) for v, text in spell.items())))
    for _ in range(data.draw(st.integers(1, 6))):
        groups: dict[str, set[Label]] = {}
        for v, text in index.spelling.items():
            groups.setdefault(text, set()).add(v)
        assert {text: set(vs) for text, vs in index.spelled.items()} == groups
        used = set(groups)
        picks = []
        for base in data.draw(st.lists(bases, min_size=2, max_size=4)):
            picks.append(index.fresh(base))
            assert picks[-1] == reference.gensym(base, used)
            used.add(picks[-1])
        *offered, unused = picks
        chosen = data.draw(st.lists(st.sampled_from(sorted(spell)), unique=True))
        pi = {v: data.draw(st.sampled_from(offered)) for v in chosen}
        index.rename(pi)
        assert unused not in index.spelled


# ---------------------------------------------------------------------------
# Tree walks against their recursive versions

def same_sharing(got, got_from, want, want_from) -> bool:
    """got reuses the subterms of got_from exactly where want reuses those
    of want_from, position by position."""

    def rule(a, env):
        a_from, b, b_from = env
        if (a is a_from) != (b is b_from):
            return None
        if a is a_from or not isinstance(a, Compound):
            return ()
        return zip(a.children, zip(a_from.children, b.children, b_from.children))

    return descend(got, (got_from, want, want_from), rule)


def assert_same_term(got, want):
    assert reference.term_eq(got, want)
    assert got == want
    assert hash(got) == hash(want)


def assert_same_maps(rng, t):
    """Maps over the names of t (what rename and mark do), sharing
    included, against the recursive map_names, and equality."""
    spell = spellings(t)
    pi = {v: rng.choice(["x", "y", text]) for v, text in spell.items() if rng.random() < 0.3}

    def respell(n):
        new = pi.get(n.label)
        return n if new is None or new == n.text else Name(new, n.label)

    def flip(n):
        return Name(n.text, Label(n.label.id, Provenance.SYNTHESIZED)) if n.text == "x" else n

    for f in (respell, lambda n: n, flip):
        got, want = fold(t, f), reference.map_names(t, f)
        assert_same_term(got, want)
        assert same_sharing(got, t, want, t)
    got, want = rename(t, pi), reference.rename(t, pi)
    assert_same_term(got, want)
    assert same_sharing(got, t, want, t)
    assert reference.mark("x", t) == reference.map_names(t, flip)
    copy = reference.map_names(t, lambda n: Name(n.text, n.label))
    assert_same_term(copy, t)
    variant = fold(t, respell)
    assert (variant == t) is reference.term_eq(variant, t)
    assert label_equiv(variant, t) and reference.label_equiv(variant, t)
    assert label_equiv(t, copy)
    assert repr(t) == reference.term_repr(t)


def assert_successive_renamings(rng, t, rounds=4):
    """One LabelIndex respells t round after round, as name_fix uses it,
    against a whole-term reference.rename per round. Each renaming maps
    some labels to a new spelling, some to their current one, and one
    label the term does not have; only the first kind is respelled."""
    index = LabelIndex(t)
    want = t
    for _ in range(rounds):
        spell = spellings(want)
        texts = sorted(set(spell.values()))
        pi = {Label(10**9, Provenance.SYNTHESIZED): "absent"}
        for v, text in spell.items():
            if rng.random() < 0.3:
                pi[v] = rng.choice([text, text, "x", "y0", rng.choice(texts)])
        got_from, want_from = index.term, want
        got, want = index.rename(pi), reference.rename(want, pi)
        assert_same_term(got, want)
        assert same_sharing(got, got_from, want, want_from)
        assert index.term is got
        assert index.spelling == spellings(want)
        assert index.respelled == {v: spell[v] for v, text in pi.items() if spell.get(v, text) != text}
    assert index.rename(spellings(want)) is got
    assert index.respelled == {}


def assert_same_simpl_walks(rng, q):
    assert_same_maps(rng, q)
    assert resolve_simpl(q) == reference.resolve_simpl(q)
    assert simpl.declarations_of(q) == reference.declarations_of(q)
    for labels in (False, True):
        assert pretty_simpl(q, labels) == reference.pretty_simpl(q, labels)
    reparsed = parse_simpl(pretty_simpl(q))
    assert alpha_equiv_relabel(q, reparsed, SIMPL_RESOLVER) is reference.alpha_equiv_relabel(
        q, reparsed, SIMPL_RESOLVER
    )
    repl = parse_simpl_exp(rng.choice(["2 * n", "x + y", "f(1)", "let x = 2 in x + z"]))
    for x in ("x", "y", "f"):
        assert_same_term(subst_prog(q, x, repl), reference.subst_prog(q, x, repl))


def simpl_walk_inputs(seed):
    """Open and closed programs of 3, 8 or 25 functions, with their naive
    lifting and the naive inlining of two of their functions."""
    rng = random.Random(seed)
    n_fdefs = rng.choice([3, 8, 25])
    for closed in (False, True):
        p = parse_simpl(gen_simpl_source(rng, closed=closed, n_fdefs=n_fdefs))
        yield p
        gs = resolve_simpl(p)
        yield lift_prog(p, gs)
        for fname in sorted({fdef_name(f).text for f in prog_fdefs(p)})[:2]:
            try:
                got = inline_prog(p, fname, gs)
            except SimplError as exc:
                try:
                    reference.inline_prog(p, fname, gs)
                except SimplError as ref_exc:
                    assert str(exc) == str(ref_exc)
                    continue
                raise
            assert_same_term(got, reference.inline_prog(p, fname, gs))
            yield got


@settings(max_examples=8, deadline=None)
@given(seeds)
def test_simpl_walks_match_their_recursive_versions(seed):
    rng = random.Random(seed)
    for q in simpl_walk_inputs(seed):
        assert_same_simpl_walks(rng, q)
        assert_successive_renamings(rng, q)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_compile_outputs_walk_like_the_recursive_versions(seed):
    rng = random.Random(seed)
    m = parse_stm(gen_machine_source(rng))
    t = compile_machine(m)
    assert_same_maps(rng, t)
    assert_successive_renamings(rng, t)
    assert resolve_simpl(t) == reference.resolve_simpl(t)
    assert simpl.declarations_of(t) == reference.declarations_of(t)
    for labels in (False, True):
        assert pretty_simpl(t, labels) == reference.pretty_simpl(t, labels)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_lambda_walks_match_their_recursive_versions(seed):
    rng = random.Random(seed)
    s = gen_lambda(rng)
    t = mutate_lambda(rng, s)
    for q in (s, t):
        assert_same_maps(rng, q)
        assert_successive_renamings(rng, q)
        assert resolve_lambda(q) == reference.resolve_lambda(q)
        for labels in (False, True):
            assert pretty_lambda(q, labels) == reference.pretty_lambda(q, labels)
    assert label_equiv(s, t) is reference.label_equiv(s, t)
    assert (s == t) is reference.term_eq(s, t)
    for a, b in ((s, t), (t, s), (s, s)):
        assert alpha_equiv_relabel(a, b, LAMBDA_RESOLVER) is reference.alpha_equiv_relabel(
            a, b, LAMBDA_RESOLVER
        )


def two_provenances(t) -> bool:
    """Whether t carries some label id both as source and as synthesized."""
    seen = {}
    return any(seen.setdefault(n.label.id, n.label.synthesized) is not n.label.synthesized for n in iter_names(t))


def repair_every_small_target(n):
    """Every planted target of every lambda term of at most n nodes: one
    that carries each label id under one provenance repairs as the
    reference does, capture-free, each declaration renamed at most once,
    and sub-alpha-equivalent to the target; one that carries an id under
    both is rejected by both repair loops. Returns the two counts."""
    single = mixed = 0
    for s in every_lambda(n):
        gs = resolve_lambda(s)
        for t in planted_targets(s):
            if two_provenances(t):
                mixed += 1
                for repair in (name_fix, reference.name_fix):
                    with pytest.raises(InconsistentLabel):
                        repair(gs, t, LAMBDA_RESOLVER)
            else:
                single += 1
                got = assert_same_repair(gs, t, LAMBDA_RESOLVER)
                assert sub_alpha_equiv(t, got.term, gs)
    return single, mixed


def test_every_lambda_target_up_to_5_nodes():
    assert repair_every_small_target(5) == (25_608, 16_384)


@pytest.mark.exhaustive
def test_every_lambda_target_up_to_6_nodes():
    assert repair_every_small_target(6) == (196_488, 124_128)
