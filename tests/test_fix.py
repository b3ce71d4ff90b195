import random
from pathlib import Path

import pytest

from namefix.fix import (
    CaptureKind,
    IterationBudgetExceeded,
    comp_renaming,
    find_capture,
    gensym,
    name_fix,
)
from namefix.graph import NameGraph, Resolver
from namefix.lam import (
    LAMBDA_RESOLVER,
    parse_lambda,
    pretty_lambda,
    resolve_lambda,
)
from namefix.term import Label, Name, Provenance, compound, labels_of, name_at, spellings

import reference
from reference import mark
from gen import gen_lambda, mutate_lambda


def lbl(i: int, synth: bool = False) -> Label:
    return Label(i, Provenance.SYNTHESIZED if synth else Provenance.SOURCE)


class TestGensym:
    def test_first_free_suffix(self):
        assert gensym("n", {"zero", "succ", "x", "n"}) == "n0"

    def test_skips_taken_suffixes(self):
        assert gensym("x", {"x", "x0"}) == "x1"

    def test_never_returns_base(self):
        assert gensym("f", set()) == "f0"


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
        pair = comp_renaming(gs, spellings(t), capture)
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
        pair = comp_renaming(gs, spellings(t), capture)
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
        pair = comp_renaming(gs, spellings(t), find_capture(gs, gt))
        assert pair.pi_src == {lbl(1): "x1", lbl(2): "x1"}
        assert pair.pi_syn == {lbl(4): "x01"}

    def test_requires_capture(self):
        g = NameGraph(set(), {})
        with pytest.raises(ValueError):
            comp_renaming(g, spellings(parse_lambda("x")), find_capture(g, g))


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

    def test_a_repair_builds_one_name_graph_however_many_rounds(self, monkeypatch):
        # The target's first resolve is the only graph: later rounds re-bind
        # through its frames and keep just the capture set.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import workloads
        from namefix import simpl

        src, var, repl = workloads.gen_open_program(random.Random(1), 50)
        p = simpl.parse_simpl(src)
        gs = simpl.resolve_simpl(p)
        t = simpl.subst_prog(p, var, simpl.parse_simpl_exp(repl))
        init = NameGraph.__init__
        built = []

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(NameGraph, "__init__", counting)
        result = name_fix(gs, t, simpl.SIMPL_RESOLVER)
        assert len(result.trace) > 1
        assert len(built) == 1


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

    def test_random_traces_within_declaration_budget(self):
        rng = random.Random(42)
        for _ in range(300):
            s = gen_lambda(rng)
            gs = resolve_lambda(s)
            t = mutate_lambda(rng, s)
            result = name_fix(gs, t, LAMBDA_RESOLVER)
            assert len(result.trace) <= max(1, len(reference.lam_declarations_of(t)))
            assert not find_capture(gs, LAMBDA_RESOLVER.resolve(result.term))
