import random
from collections import Counter
from pathlib import Path

import pytest

from namefix import simpl, statemachine
from namefix.fix import (
    CaptureKind,
    IterationBudgetExceeded,
    comp_renaming,
    find_capture,
    gensym,
    name_fix,
    rewind,
)
from namefix.graph import NameGraph, Resolver
from namefix.lam import (
    LAMBDA_RESOLVER,
    parse_lambda,
    pretty_lambda,
    resolve_lambda,
)
from namefix.term import Label, LabelIndex, Name, Provenance, compound, labels_of, name_at, spellings

import reference
from reference import mark
from gen import gen_lambda, mutate_lambda


def lbl(i: int, synth: bool = False) -> Label:
    return Label(i, Provenance.SYNTHESIZED if synth else Provenance.SOURCE)


def first_renaming(gs, t, capture):
    """comp_renaming of a repair's first round on t."""
    spell = spellings(t)
    return comp_renaming(gs, spell, capture, Counter(spell.values()), {})


class TestGensym:
    def test_first_free_suffix(self):
        assert gensym("n", {"zero", "succ", "x", "n"}, {}) == "n0"

    def test_skips_taken_suffixes(self):
        assert gensym("x", {"x", "x0"}, {}) == "x1"

    def test_never_returns_base(self):
        assert gensym("f", set(), {}) == "f0"

    def test_search_starts_at_the_cursor_and_leaves_it_at_the_pick(self):
        cursor = {"x": 2}
        assert gensym("x", {"x2", "x3"}, cursor) == "x4"  # x0 and x1 not tried
        assert cursor == {"x": 4}
        assert gensym("y", set(), cursor) == "y0"
        assert cursor == {"x": 4, "y": 0}

    def test_rewind_moves_a_cursor_back_to_a_spelling_that_left(self):
        cursor = {"x": 5, "x1": 3, "y": 2}
        rewind(cursor, ["x12", "y7", "z0"])  # x12 is x1 with 2, and x with 12
        assert cursor == {"x": 5, "x1": 2, "y": 2}
        rewind(cursor, ["x3", "x01", "x"])  # x01 is no gensym spelling of x
        assert cursor == {"x": 3, "x1": 2, "y": 2}
        rewind(cursor, ["x" + "9" * 5000])
        assert cursor == {"x": 3, "x1": 2, "y": 2}


class TestFindCapture:
    def test_identity_graphs_clean(self):
        g = NameGraph({lbl(1), lbl(2)}, {lbl(2): lbl(1)})
        assert not find_capture(g, g)

    def test_source_reference_rebound(self):
        gs = NameGraph({lbl(1), lbl(2), lbl(3)}, {lbl(2): lbl(1)})
        gt = NameGraph({lbl(1), lbl(2), lbl(3)}, {lbl(2): lbl(3)})
        (edge,) = find_capture(gs, gt).edges
        assert edge.kind is CaptureKind.SOURCE_REBOUND
        assert (edge.ref, edge.decl) == (lbl(2), lbl(3))

    def test_free_source_name_captured(self):
        gs = NameGraph({lbl(1), lbl(2)}, {})
        gt = NameGraph({lbl(1), lbl(2)}, {lbl(1): lbl(2)})
        (edge,) = find_capture(gs, gt).edges
        assert edge.kind is CaptureKind.SOURCE_FREE_CAPTURED

    def test_synthesized_reference_captured(self):
        t = parse_lambda(r"\x@11. (\x@12. x@13 x@'15) x@14")
        gs2 = resolve_lambda(parse_lambda(r"\x@11. (\x@12. x@13) x@14"))
        capture = find_capture(gs2, resolve_lambda(t))
        (edge,) = capture.edges
        assert edge.kind is CaptureKind.SYNTHESIZED_CAPTURED
        assert (edge.ref, edge.decl) == (lbl(15, True), lbl(12))

    def test_self_binding_of_duplicated_source_label_is_fine(self):
        # a source declaration whose label also occurs as a reference
        gs = NameGraph({lbl(1)}, {})
        gt = NameGraph({lbl(1)}, {lbl(1): lbl(1)})
        assert not find_capture(gs, gt)

    def test_relational_target_catches_split_occurrences(self):
        # one reference label occurring in two scopes: one occurrence still
        # bound correctly, the other captured
        gs = NameGraph({lbl(1), lbl(2), lbl(5)}, {lbl(2): lbl(1)})
        gt = NameGraph(
            {lbl(1), lbl(2), lbl(5)}, [(lbl(2), lbl(1)), (lbl(2), lbl(5))]
        )
        (edge,) = find_capture(gs, gt).edges
        assert (edge.ref, edge.decl) == (lbl(2), lbl(5))


class TestCompRenaming:
    def test_source_class_renamed_together(self):
        t = parse_lambda(r"\x@21. x@22 + (x@23 + (\x@25. x@26))")
        gs = NameGraph(
            labels_of(t), {lbl(22): lbl(21), lbl(23): lbl(21), lbl(26): lbl(25)}
        )
        capture = find_capture(
            gs, NameGraph(labels_of(t), {lbl(26): lbl(21)})
        )
        pair = first_renaming(gs, t, capture)
        assert set(pair.pi_src) == {lbl(21), lbl(22), lbl(23)}
        assert len(set(pair.pi_src.values())) == 1
        assert pair.pi_syn == {}

    def test_same_name_synthesized_group_renamed_together(self):
        t = parse_lambda(r"\x@'33. x@31 (\x@32. x@'34)")
        gs = NameGraph({lbl(31), lbl(32)}, {})
        gt = resolve_lambda(t)
        capture = find_capture(gs, gt)
        assert {e.kind for e in capture.edges} == {
            CaptureKind.SOURCE_FREE_CAPTURED,
            CaptureKind.SYNTHESIZED_CAPTURED,
        }
        pair = first_renaming(gs, t, capture)
        # ascending order: source decl 32 first, then synthesized '33 group
        assert pair.pi_src == {lbl(32): "x0"}
        assert pair.pi_syn == {lbl(33, True): "x1", lbl(34, True): "x1"}

    def test_fresh_spelling_never_handed_out_twice(self):
        # @1 is captured and is also a source reference of captured @2, so
        # renaming @2 overwrites the x00 given to @1; the @4 group must still
        # get a spelling not handed out before in the round.
        t = compound(
            Name("x0", lbl(1)), Name("x", lbl(2)), Name("x", lbl(3)), Name("x0", lbl(4))
        )
        gs = NameGraph({lbl(1), lbl(2)}, {lbl(1): lbl(2)})
        gt = NameGraph(labels_of(t), [(lbl(2), lbl(1)), (lbl(2), lbl(4)), (lbl(3), lbl(2))])
        pair = first_renaming(gs, t, find_capture(gs, gt))
        assert pair.pi_src == {lbl(1): "x1", lbl(2): "x1"}
        assert pair.pi_syn == {lbl(4): "x01"}

    def test_requires_capture(self):
        g = NameGraph(set(), {})
        with pytest.raises(ValueError):
            first_renaming(g, parse_lambda("x"), find_capture(g, g))


class TestNameFixTraces:
    def test_two_iteration_repair(self):
        gs = resolve_lambda(parse_lambda(r"\x@41. (\x@42. x@43) x@44"))
        t = parse_lambda(r"\x@41. (\x@42. x@43 x@'45) x@44")
        result = name_fix(gs, t, LAMBDA_RESOLVER)
        assert len(result.trace) == 2
        assert pretty_lambda(result.term) == r"\x1. (\x0. x0 x) x1"
        final = resolve_lambda(result.term)
        assert reference.rho(final) == {lbl(44): lbl(41), lbl(43): lbl(42)}
        assert lbl(45, True) not in final.references  # left free

    def test_synthesized_group_one_round(self):
        gs = NameGraph({lbl(51), lbl(52)}, {})
        t = parse_lambda(r"\x@'53. x@51 (\x@52. x@'54)")
        result = name_fix(gs, t, LAMBDA_RESOLVER)
        assert len(result.trace) == 1
        assert name_at(result.term, lbl(53, True)) == name_at(result.term, lbl(54, True))
        assert name_at(result.term, lbl(52)) != name_at(result.term, lbl(53, True))
        assert name_at(result.term, lbl(51)) == "x"
        assert pretty_lambda(result.term) == r"\x1. x (\x0. x1)"

    def test_consistently_renamed_variant_unchanged(self):
        gs = NameGraph({lbl(61), lbl(62)}, {})
        t2 = parse_lambda(r"\x@'63. y@61 (\y@62. x@'64)")
        result = name_fix(gs, t2, LAMBDA_RESOLVER)
        assert result.term is t2
        assert len(result.trace) == 0

    def test_noninvasive_returns_same_object(self):
        s = parse_lambda(r"\x. \y. x y")
        result = name_fix(resolve_lambda(s), s, LAMBDA_RESOLVER)
        assert result.term is s

    @pytest.mark.parametrize(
        "source, target, want",
        [
            # a source declaration labelled 0 captures a synthesized reference
            (r"\x@1. (\x@0. x@2) x@3", r"\x@1. (\x@0. x@2 x@'4) x@3", r"\x1. (\x0. x0 x) x1"),
            # a synthesized declaration labelled 0 captures a source name
            (r"x@1 x@2", r"\x@'0. x@1 (\x@2. x@'3)", r"\x0. x (\x1. x0)"),
            # a free source name labelled 0 is captured
            (r"x@0 x@1", r"\x@'2. x@0 x@1", r"\x0. x x"),
        ],
    )
    def test_capture_at_label_zero(self, source, target, want):
        gs = resolve_lambda(parse_lambda(source))
        t = parse_lambda(target)
        result = name_fix(gs, t, LAMBDA_RESOLVER)
        assert pretty_lambda(result.term) == want
        assert any(0 in (e.ref, e.decl) for e in result.trace.steps[0].capture.edges)
        expected = reference.name_fix(gs, t, LAMBDA_RESOLVER)
        assert (result.term, result.trace) == (expected.term, expected.trace)

    def test_trace_formats(self):
        gs = NameGraph({lbl(71), lbl(72)}, {})
        t = parse_lambda(r"\x@'73. x@71 (\x@72. x@'74)")
        result = name_fix(gs, t, LAMBDA_RESOLVER)
        text = result.trace.format()
        assert "iteration 1" in text and "pi_src" in text and "pi_syn" in text

    def test_a_repair_builds_no_target_graph_however_many_rounds(self, monkeypatch):
        # Capture is classified off the edges of the target's resolve, and
        # later rounds re-bind through its frames and keep just the capture
        # set.
        gs, t = open_subst(monkeypatch, 50)
        built = counted_inits(monkeypatch, NameGraph)
        result = name_fix(gs, t, simpl.SIMPL_RESOLVER)
        assert len(result.trace) > 1
        assert built == []

    def test_only_a_capture_builds_the_repair_index_and_only_once(self, monkeypatch):
        gs, t = open_subst(monkeypatch, 200)
        built = counted_inits(monkeypatch, LabelIndex)
        assert len(name_fix(gs, t, simpl.SIMPL_RESOLVER).trace) == 40
        assert len(built) == 1
        built.clear()
        import workloads

        m = statemachine.parse_stm(workloads.gen_machine(random.Random(1), 100, clash=False).text)
        p = simpl.parse_simpl("fun f(x) = x + y;\nf(y)")
        s = parse_lambda(r"\x. x (\y. y x) z")
        for gs, t, r in (
            (statemachine.resolve_machine(m), statemachine.compile_machine(m), simpl.SIMPL_RESOLVER),
            (simpl.resolve_simpl(p), simpl.subst_prog(p, "y", simpl.parse_simpl_exp("z + 1")), simpl.SIMPL_RESOLVER),
            (resolve_lambda(s), s, LAMBDA_RESOLVER),
        ):
            result = name_fix(gs, t, r)
            assert result.term is t and not result.trace
        assert built == []


def counted_inits(monkeypatch, cls):
    """The instances of cls built from now on, in a list that grows."""
    init = cls.__init__
    built = []

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


def open_subst(monkeypatch, n):
    """The source graph of the spl-mix open program of n functions (seed
    1) and the naive output of its `subst`, which takes n // 5 rounds to
    repair."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import workloads

    src, var, repl = workloads.gen_open_program(random.Random(1), n)
    p = simpl.parse_simpl(src)
    return simpl.resolve_simpl(p), simpl.subst_prog(p, var, simpl.parse_simpl_exp(repl))


class TestMarkInteraction:
    def test_marked_names_may_be_captured(self):
        # flipping provenance makes a source name count as synthesized, so
        # a binder introduced around it is allowed to capture it
        s = parse_lambda(r"it@81 + 1")
        gs = resolve_lambda(s)
        t = parse_lambda(r"\it@'82. it@81 + 1")
        t = mark("it", t)
        result = name_fix(gs, t, LAMBDA_RESOLVER)
        assert result.term is t  # capture is intentional, nothing renamed

    def test_unmarked_equivalent_is_repaired(self):
        s = parse_lambda(r"it@91 + 1")
        gs = resolve_lambda(s)
        t = parse_lambda(r"\it@'92. it@91 + 1")
        result = name_fix(gs, t, LAMBDA_RESOLVER)
        assert len(result.trace) == 1
        assert name_at(result.term, lbl(92, True)) != "it"


def scripted(*rounds):
    """A resolver that gives the edges of the first of `rounds` whose
    spellings the term has: each is (label -> its spelling, edges)."""

    def resolve(t):
        spell = spellings(t)
        for needs, edges in rounds:
            if all(spell[v] == text for v, text in needs.items()):
                return NameGraph(spell, edges)
        return NameGraph(spell, ())

    return Resolver("scripted", resolve)


class TestGensymAcrossRounds:
    """gensym resumes at a cursor per base in later rounds, yet picks the
    smallest suffix the term does not use, as it did when it scanned from 0
    every round: a spelling that leaves the term is free again."""

    def test_a_spelling_the_term_gave_up(self):
        # Round 1 renames @1, spelled x, while x0 is in use, so it takes
        # x1; it also renames every label spelled x0. In round 2, @3,
        # spelled x, takes the freed x0.
        t = compound(*(Name(text, v) for text, v in [
            ("x", lbl(1)), ("x0", lbl(2)), ("x", lbl(3)), ("x0", lbl(4)),
            ("x", lbl(5, True)), ("x0", lbl(6, True)), ("x0", lbl(7, True)),
        ]))
        gs = NameGraph({lbl(1), lbl(2), lbl(3), lbl(4)}, {lbl(4): lbl(2)})
        r = scripted(
            ({lbl(1): "x"}, [(lbl(5, True), lbl(1)), (lbl(6, True), lbl(2)), (lbl(4), lbl(7, True))]),
            ({lbl(3): "x"}, [(lbl(5, True), lbl(3))]),
        )
        result = name_fix(gs, t, r)
        first, second = (step.renaming for step in result.trace.steps)
        assert first.pi_src == {lbl(1): "x1", lbl(2): "x00", lbl(4): "x00"}
        assert first.pi_syn == {lbl(6, True): "x01", lbl(7, True): "x01"}
        assert second.pi_src == {lbl(3): "x0"}
        expected = reference.name_fix(gs, t, r)
        assert (result.term, result.trace) == (expected.term, expected.trace)

    def test_a_fresh_spelling_no_label_took(self):
        # Round 1 hands x00 to @1, then overwrites it with x1 as @1 is a
        # source reference of @2, so @'4 takes x01: x00 never enters the
        # term. In round 2, @5, spelled x0, takes x00.
        t = compound(*(Name(text, v) for text, v in [
            ("x0", lbl(1)), ("x", lbl(2)), ("x", lbl(3, True)), ("x0", lbl(4, True)),
            ("x0", lbl(5)), ("x0", lbl(6)),
        ]))
        gs = NameGraph({lbl(1), lbl(2), lbl(5), lbl(6)}, {lbl(1): lbl(2)})
        r = scripted(
            ({lbl(1): "x0"}, [(lbl(2), lbl(1)), (lbl(2), lbl(4, True)), (lbl(3, True), lbl(2))]),
            ({lbl(5): "x0"}, [(lbl(6), lbl(5))]),
        )
        first, second = (step.renaming for step in name_fix(gs, t, r).trace.steps)
        assert first.pi_src == {lbl(1): "x1", lbl(2): "x1"}
        assert first.pi_syn == {lbl(4, True): "x01"}
        assert second.pi_src == {lbl(5): "x00"}


class TestBudget:
    def test_budget_exceeded_with_lawless_resolver(self):
        # a resolver that keeps inventing capture can never converge
        t = parse_lambda(r"\x@95. x@96")

        def lawless(p):
            g = resolve_lambda(p)
            return NameGraph(g.labels, {lbl(96): lbl(95)} if True else {})

        gs = NameGraph({lbl(95), lbl(96)}, {lbl(96): lbl(96)})
        # gs deliberately inconsistent: 96 can never rebind to itself
        with pytest.raises(IterationBudgetExceeded):
            name_fix(gs, t, Resolver("lawless", lawless))

    def test_lawless_resolver_is_named_after_one_round(self):
        # round 1 renames @95; the resolve after it captures @95 again
        t = parse_lambda(r"\x@95. x@96")
        resolved = []

        def lawless(p):
            resolved.append(p)
            return NameGraph(resolve_lambda(p).labels, {lbl(96): lbl(95)})

        gs = NameGraph({lbl(95), lbl(96)}, {lbl(96): lbl(96)})
        with pytest.raises(IterationBudgetExceeded) as info:
            name_fix(gs, t, Resolver("lawless", lawless))
        assert len(resolved) == 2  # the input and the term of round 1
        assert str(info.value) == (
            "declaration @95, renamed in round 1, is captured again in round 2: "
            "@96 -> @95 (source-reference-rebound)"
        )

    def test_the_smallest_edge_captured_again_is_named(self):
        # both edges capture @95 again; the message names the smaller one
        t = parse_lambda(r"\x@95. x@97 + x@'96")

        def lawless(p):
            return NameGraph(resolve_lambda(p).labels, {lbl(97): lbl(95), lbl(96, True): lbl(95)})

        gs = NameGraph({lbl(95), lbl(97)}, {lbl(97): lbl(97)})
        with pytest.raises(IterationBudgetExceeded, match=r"round 2: @'96 -> @95 \(synth"):
            name_fix(gs, t, Resolver("lawless", lawless))

    def test_random_traces_within_declaration_budget(self):
        rng = random.Random(42)
        for _ in range(300):
            s = gen_lambda(rng)
            gs = resolve_lambda(s)
            t = mutate_lambda(rng, s)
            result = name_fix(gs, t, LAMBDA_RESOLVER)
            assert len(result.trace) <= max(1, len(reference.lam_declarations_of(t)))
            assert not find_capture(gs, LAMBDA_RESOLVER.resolve(result.term))
