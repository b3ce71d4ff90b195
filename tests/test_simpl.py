import random
from pathlib import Path

import pytest

from namefix import simpl
from namefix.fix import name_fix
from namefix.graph import alpha_equiv_relabel
from namefix.simpl import (
    SIMPL_RESOLVER,
    ArityMismatch,
    EvalError,
    OutOfFuel,
    ParseError,
    UnboundName,
    UnknownFunction,
    eval_simpl,
    fdef_body,
    fdef_name,
    fdef_params,
    inline,
    inline_prog,
    lambda_lift,
    lift_prog,
    parse_simpl,
    parse_simpl_exp,
    pretty_simpl,
    prog,
    prog_fdefs,
    prog_main,
    resolve_simpl,
    subst,
    subst_exp_many,
    tag,
)
from namefix.term import Compound, Label, Name, Provenance, fold, iter_names, labels_of

import reference
from gen import gen_simpl_source


def lbl(i: int, synth: bool = False) -> Label:
    return Label(i, Provenance.SYNTHESIZED if synth else Provenance.SOURCE)


def rename_label(t, old: Label, new: Label):
    """Swap one label for another, the way a transformation copying a name
    from elsewhere in the program would."""
    if isinstance(t, Name):
        return Name(t.text, new) if t.label == old else t
    if isinstance(t, Compound):
        return Compound(tuple(rename_label(c, old, new) for c in t.children))
    return t


ZERO_SUCC = """fun zero() = 0;
fun succ(x) = let n = 1 in x + n;
let n = x + 5 in succ(succ(n + x + zero()))"""

OR_AND = """fun or(x, y) = let tmp = x in if tmp == 0 then y else tmp;
fun and(x, y) = !or(!x, !y);
let or = 1 in let tmp = 0 in and(or, tmp)"""

LOCAL_FNS = """fun f(x) = x + 1;
let y = f(10) in
  let fun f(x) = f(x + y) in
    let fun g(x) = f(y + x + 1) in
      f(1) + g(3)"""


class TestParsing:
    def test_structure(self):
        p = parse_simpl(ZERO_SUCC)
        fdefs = prog_fdefs(p)
        assert [fdef_name(f).text for f in fdefs] == ["zero", "succ"]
        assert [len(fdef_params(f)) for f in fdefs] == [0, 1]
        assert len(prog_main(p)) == 1

    def test_all_labels_distinct_and_source(self):
        p = parse_simpl(OR_AND)
        names = list(iter_names(p))
        assert len({n.label.id for n in names}) == len(names)
        assert all(n.label.provenance is Provenance.SOURCE for n in names)

    def test_pretty_parse_fixpoint(self):
        p = parse_simpl(OR_AND)
        text = pretty_simpl(p)
        assert pretty_simpl(parse_simpl(text)) == text

    def test_roundtrip_is_alpha_equivalent(self):
        p = parse_simpl(LOCAL_FNS)
        q = parse_simpl(pretty_simpl(p))
        assert alpha_equiv_relabel(p, q, SIMPL_RESOLVER)

    def test_pins(self):
        e = parse_simpl_exp("let v@301 = 1 in v@302")
        assert labels_of(e) == {lbl(301), lbl(302)}

    def test_synthesized_pin(self):
        e = parse_simpl_exp("v@'303")
        (v,) = labels_of(e)
        assert v.provenance is Provenance.SYNTHESIZED

    def test_duplicate_pin_rejected(self):
        with pytest.raises(ParseError):
            parse_simpl_exp("let v@304 = 1 in v@304")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_simpl_exp("1 + 2 )")
        assert err.value.line == 1

    def test_bad_token_rejected(self):
        with pytest.raises(ParseError):
            parse_simpl("fun f(x) = x; $")

    def test_end_of_input_located_past_last_token(self):
        with pytest.raises(ParseError) as err:
            parse_simpl("fun f(x) =")
        assert (err.value.line, err.value.col) == (1, 11)
        with pytest.raises(ParseError) as err:
            parse_simpl_exp('let s = "a\nbc" in\n')
        assert (err.value.line, err.value.col) == (2, 7)

    def test_hyphenated_identifiers(self):
        e = parse_simpl_exp("opened-dispatch(1)")
        assert tag(e) == "call"

    def test_random_programs_roundtrip(self):
        rng = random.Random(13)
        for _ in range(50):
            p = parse_simpl(gen_simpl_source(rng))
            text = pretty_simpl(p)
            assert pretty_simpl(parse_simpl(text)) == text


class TestResolve:
    def test_let_binds_body_not_init(self):
        g = resolve_simpl(parse_simpl("fun h() = 0;\n" + "let v@314 = v@315 in v@316"))
        assert g.bindings(lbl(316)) == {lbl(314)}
        assert g.bindings(lbl(315)) == frozenset()

    def test_param_scope(self):
        p = parse_simpl("fun f@321(x@322) = x@323 + y@324; f@325(1)")
        g = resolve_simpl(p)
        assert reference.rho(g) == {lbl(323): lbl(322), lbl(325): lbl(321)}

    def test_toplevel_functions_mutually_visible(self):
        p = parse_simpl(
            "fun f@331() = g@332(); fun g@333() = f@334(); f@335()"
        )
        g = resolve_simpl(p)
        assert reference.rho(g) == {
            lbl(332): lbl(333),
            lbl(334): lbl(331),
            lbl(335): lbl(331),
        }

    def test_local_function_sees_itself(self):
        p = parse_simpl("let fun f@341(x@342) = f@343(x@344) in f@345(0)")
        g = resolve_simpl(p)
        assert g.bindings(lbl(343)) == {lbl(341)}
        assert g.bindings(lbl(345)) == {lbl(341)}

    def test_let_shadows_toplevel_function(self):
        p = parse_simpl("fun or@351(x@352) = 0; let or@353 = 1 in or@354")
        g = resolve_simpl(p)
        assert g.bindings(lbl(354)) == {lbl(353)}

    def test_free_names_unbound(self):
        g = resolve_simpl(parse_simpl("fun f(x) = x; q@361 + 1"))
        assert g.bindings(lbl(361)) == frozenset()

    def test_duplicate_toplevel_last_wins_except_same_id(self):
        p = parse_simpl("fun f@371() = 0; fun f@372() = 1; f@373() + f@374()")
        # rewrite the f@374 reference to carry the first declaration's label,
        # the way a transformation copying that name would
        p = rename_label(p, lbl(374), lbl(371))
        g = resolve_simpl(p)
        assert g.bindings(lbl(373)) == {lbl(372)}
        assert (lbl(371), lbl(371)) in g.edges


class TestEval:
    def test_simple_call(self):
        assert eval_simpl(parse_simpl("fun f(x) = x; f(7)")) == 7

    def test_or_and_program(self):
        assert eval_simpl(parse_simpl(OR_AND)) == 0

    def test_arithmetic_and_conditionals(self):
        src = "fun max(a, b) = if a == b then a else if a + 1 == b then b else a; max(3, 4)"
        assert eval_simpl(parse_simpl(src)) == 4

    def test_free_variable_raises(self):
        with pytest.raises(UnboundName):
            eval_simpl(parse_simpl(ZERO_SUCC))

    def test_error_call(self):
        with pytest.raises(EvalError):
            eval_simpl(parse_simpl("fun f() = error(); f()"))

    def test_runaway_recursion_exhausts_fuel(self):
        with pytest.raises(OutOfFuel):
            eval_simpl(parse_simpl("fun f(x) = f(x); f(1)"), fuel=500)

    def test_arity_checked_at_call(self):
        with pytest.raises(ArityMismatch):
            eval_simpl(parse_simpl("fun f(x) = x; f(1, 2)"))

    def test_closed_generated_programs_terminate(self):
        rng = random.Random(17)
        for _ in range(50):
            p = parse_simpl(gen_simpl_source(rng, closed=True))
            try:
                eval_simpl(p)
            except EvalError:
                pass  # explicit error() is fine; nontermination is not


class TestSubst:
    def test_naive_subst_skips_shadowing_let(self):
        e = parse_simpl_exp("x + (let x = 1 in x)")
        out = subst_exp_many(e, {"x": parse_simpl_exp("9")})
        assert pretty_simpl(out) == "9 + (let x = 1 in x)"

    def test_repairs_local_capture(self):
        p = parse_simpl(ZERO_SUCC)
        out = subst(p, "x", parse_simpl_exp("2 * n"))
        assert pretty_simpl(out) == (
            "fun zero() = 0;\n"
            "fun succ(x) = let n = 1 in x + n;\n"
            "let n0 = 2 * n + 5 in succ(succ(n0 + 2 * n + zero()))\n"
        )

    def test_no_capture_means_no_renaming(self):
        p = parse_simpl("fun f(x) = x; f(x)")
        out = subst(p, "x", parse_simpl_exp("41 + 1"))
        assert pretty_simpl(out) == "fun f(x) = x;\nf(41 + 1)\n"

    def test_replacement_keeps_labels(self):
        repl = parse_simpl_exp("n@381")
        out = subst(parse_simpl("fun f() = 0; x"), "x", repl)
        assert lbl(381) in labels_of(out)


class TestInline:
    def test_first_step_renames_let_or(self):
        out = inline(parse_simpl(OR_AND), "and")
        assert pretty_simpl(prog_main(out)[0]) == (
            "let or0 = 1 in let tmp = 0 in !or(!or0, !tmp)"
        )

    def test_second_step_renames_copied_tmp(self):
        out = inline(inline(parse_simpl(OR_AND), "and"), "or")
        assert pretty_simpl(prog_main(out)[0]) == (
            "let or0 = 1 in let tmp = 0 in "
            "!(let tmp0 = !or0 in if tmp0 == 0 then !tmp else tmp0)"
        )

    def test_behavior_preserved(self):
        p = parse_simpl(OR_AND)
        assert eval_simpl(inline(p, "and")) == eval_simpl(p)
        assert eval_simpl(inline(inline(p, "and"), "or")) == eval_simpl(p)

    def test_uncalled_function_leaves_program_equal(self):
        p = parse_simpl("fun f(x) = x; fun g() = 3; g()")
        assert inline(p, "f") == p

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            inline(parse_simpl("fun f() = 0; f()"), "nope")

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            inline(parse_simpl("fun f(x) = x; f(1, 2)"), "f")

    def test_shadowed_calls_left_alone(self):
        p = parse_simpl("fun f(x) = x + 1; let f = 1 in f(3)")
        # the call resolves to the let variable, not the function
        assert pretty_simpl(prog_main(inline(p, "f"))[0]) == "let f = 1 in f(3)"

    def test_recursive_copy_not_reexpanded(self):
        p = parse_simpl("fun f(x) = f(x + 1); f(0)")
        out = inline(p, "f")
        assert pretty_simpl(prog_main(out)[0]) == "f(0 + 1)"

    def test_each_call_expands_the_function_it_is_bound_to(self):
        # Two top-level f: the call pinned @7 carries the earlier f's label,
        # so the resolver binds it to that f (the first rule), while @8
        # falls back to the later one (the last rule).
        src = "fun f@1(a@2) = a@3 + 1;\nfun f@4(b@5) = b@6 * 2;\nf@7(10) + f@8(20)\n"
        p = fold(parse_simpl(src), lambda n: Name(n.text, Label(1)) if n.label == 7 else n)
        gs = resolve_simpl(p)
        assert gs.bindings(Label(1)) == {Label(1)}
        assert gs.bindings(Label(8)) == {Label(4)}
        out = inline(p, "f")
        assert pretty_simpl(prog_main(out)[0]) == "10 + 1 + 20 * 2"
        assert prog_fdefs(out) == prog_fdefs(p)
        assert reference.inline_prog(p, "f", gs) == inline_prog(p, "f", gs)


class TestLambdaLift:
    def test_shadowed_local_function_renamed(self):
        out = lambda_lift(parse_simpl(LOCAL_FNS))
        assert pretty_simpl(out) == (
            "fun f(x) = x + 1;\n"
            "fun f0(x, y) = f0(x + y, y);\n"
            "fun g(x, y) = f0(y + x + 1, y);\n"
            "let y = f(10) in f0(1, y) + g(3, y)\n"
        )

    def test_no_local_functions_is_identity_object(self):
        p = parse_simpl("fun f(x) = x; f(2)")
        assert lambda_lift(p) is p

    def test_output_has_no_local_functions(self):
        out = lambda_lift(parse_simpl(LOCAL_FNS))
        seen = []

        def scan(t):
            seen.append(tag(t))
            if isinstance(t, Compound):
                for c in t.children:
                    scan(c)

        scan(out)
        assert "letfun" not in seen

    def test_closed_local_function_keeps_arity(self):
        p = parse_simpl("let fun sq(x) = x * x in sq(5)")
        out = lambda_lift(p)
        (f,) = prog_fdefs(out)
        assert [q.text for q in fdef_params(f)] == ["x"]
        assert eval_simpl(out) == 25

    def test_behavior_preserved_on_terminating_program(self):
        src = "let y = 2 in let fun add3(x) = x + y + 1 in add3(4) * add3(0)"
        p = parse_simpl(src)
        assert eval_simpl(lambda_lift(p)) == eval_simpl(p) == 21

    def test_extra_params_threaded_through_intermediate(self):
        # h needs y only because it calls inc, which uses y
        src = (
            "let y = 5 in "
            "let fun inc(x) = x + y in "
            "let fun h(x) = inc(x) * 2 in h(1)"
        )
        out = lambda_lift(parse_simpl(src))
        by_name = {fdef_name(f).text: f for f in prog_fdefs(out)}
        assert [q.text for q in fdef_params(by_name["h"])] == ["x", "y"]
        assert eval_simpl(out) == 12

    def test_need_passes_through_nesting(self):
        # h uses a directly and b through g; f, which encloses h, must
        # supply both to its call of h
        src = (
            "fun main(a) = let b = a + 1 in "
            "let fun g(x) = x + b in "
            "let fun f(y) = let fun h(z) = g(z) + a in h(y) in f(2); "
            "main(1)"
        )
        p = parse_simpl(src)
        out = lambda_lift(p)
        by_name = {fdef_name(f).text: f for f in prog_fdefs(out)}
        assert pretty_simpl(prog([by_name["f"]], [])) == "fun f(y, a, b) = h(y, a, b);\n"
        assert eval_simpl(out) == eval_simpl(p) == 5

    def test_caller_keeps_its_own_declarations(self):
        # g needs f's parameter y; f calls g but declares y itself, so f
        # gains no parameter
        p = parse_simpl("let fun f(y) = let fun g(z) = z + y in g(1) in f(2)")
        out = lambda_lift(p)
        assert pretty_simpl(out) == "fun g(z, y) = z + y;\nfun f(y) = g(1, y);\nf(2)\n"
        assert eval_simpl(out) == eval_simpl(p) == 3

    def test_benchmark_tracer_wraps_the_lifting_path(self, monkeypatch):
        # The benchmark's tracer looks up every function it wraps by name,
        # so it breaks when one of them is renamed or removed.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            simpl.lambda_lift(parse_simpl(LOCAL_FNS))
        finally:
            tracer.uninstall()
        assert tracer.calls["fix.name_fix"] == 1
        assert tracer.calls["simpl.transform"] == 1


class TestNaiveTransformPlusRepair:
    """The capture-avoiding transformations are their naive versions
    followed by one name_fix against the source graph."""

    def programs(self):
        rng = random.Random(29)
        yield parse_simpl(OR_AND)
        yield parse_simpl(LOCAL_FNS)
        for _ in range(20):
            yield parse_simpl(gen_simpl_source(rng, closed=True))

    def test_inline(self):
        for p in self.programs():
            gs = resolve_simpl(p)
            for f in prog_fdefs(p):
                name = fdef_name(f).text
                repaired = name_fix(gs, inline_prog(p, name, gs), SIMPL_RESOLVER).term
                assert inline(p, name) == repaired

    def test_lambda_lift(self):
        for p in self.programs():
            gs = resolve_simpl(p)
            assert lambda_lift(p) == name_fix(gs, lift_prog(p, gs), SIMPL_RESOLVER).term
