"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"criterion N: PASS/FAIL" line, so the run report doubles as a checklist.
All randomized suites use fixed seeds.
"""

import random
import sys
import time
from contextlib import contextmanager

from namefix.fix import find_capture, name_fix, CaptureKind
from namefix.graph import (
    NameGraph,
    Resolver,
    alpha_equiv,
    check_resolver_assumptions,
    is_bipartite,
    sub_alpha_equiv,
)
from namefix.lam import (
    LAMBDA_RESOLVER,
    parse_lambda,
    resolve_lambda,
)
from namefix.simpl import (
    SIMPL_RESOLVER,
    EvalError,
    eval_simpl,
    fdef_name,
    inline,
    lambda_lift,
    parse_simpl,
    parse_simpl_exp,
    pretty_simpl,
    prog_fdefs,
    prog_main,
    resolve_simpl,
    subst,
    subst_prog,
)
from namefix.simpl import declarations_of as simpl_declarations
from namefix.statemachine import (
    STM_RESOLVER,
    compile_fixed,
    compile_machine,
    parse_stm,
    resolve_machine,
)
from namefix.term import (
    Label,
    Provenance,
    iter_names,
    label_equiv,
    labels_of,
    name_at,
    rename,
)

import reference
from gen import (
    gen_lambda,
    gen_machine_source,
    gen_simpl_source,
    machine_renaming,
    mutate_lambda,
    sub_alpha_variant,
)


def lbl(i: int, synth: bool = False) -> Label:
    return Label(i, Provenance.SYNTHESIZED if synth else Provenance.SOURCE)


@contextmanager
def criterion(number: int, description: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL — {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"
    print(f"criterion {number}: PASS — {description} ({elapsed:.2f}s)")


DOOR = """state opened
  close => closed
state closed
  open => opened
  lock => locked
state locked
  unlock => closed
"""


def test_criterion_1_door_machine_hygiene():
    with criterion(1, "renamed door machine compiles without capture", 1.0):
        m = parse_stm(DOOR)
        spell = {n.label: n.text for n in iter_names(m)}
        sigma = {
            v: "opened-dispatch" for v in labels_of(m) if spell[v] == "locked"
        }
        m2 = rename(m, sigma)

        # the naive compile of the renamed machine has exactly one capture
        # edge: a source reference rebound to a synthesized declaration
        capture = find_capture(
            resolve_machine(m2), resolve_simpl(compile_machine(m2))
        )
        (edge,) = capture.edges
        assert edge.kind is CaptureKind.SOURCE_REBOUND
        assert edge.ref.provenance is Provenance.SOURCE
        assert edge.decl.provenance is Provenance.SYNTHESIZED

        fixed2 = compile_fixed(m2)
        # exactly two synthesized occurrences share one fresh name
        renamed = [
            n
            for n in iter_names(fixed2)
            if n.label.provenance is Provenance.SYNTHESIZED
            and n.text not in {n2.text for n2 in iter_names(compile_machine(m2))}
        ]
        assert len(renamed) == 2
        assert len({n.text for n in renamed}) == 1

        # consistently renaming the source leaves the compiled program
        # alpha-equivalent
        assert alpha_equiv(compile_fixed(m), fixed2, SIMPL_RESOLVER)


def test_criterion_2_two_round_repair_trace():
    with criterion(2, "two-round repair with the documented final graph", 1.0):
        t = parse_lambda(r"\x@1. (\x@2. x@3 x@'5) x@4")
        gs = NameGraph(
            {lbl(1), lbl(2), lbl(3), lbl(4)}, {lbl(3): lbl(2), lbl(4): lbl(1)}
        )
        result = name_fix(gs, t, LAMBDA_RESOLVER)
        assert len(result.trace) == 2
        final = resolve_lambda(result.term)
        assert reference.rho(final) == {lbl(4): lbl(1), lbl(3): lbl(2)}
        assert final.bindings(lbl(5, True)) == frozenset()  # left unbound


def test_criterion_3_synthesized_group_shares_one_fresh_name():
    with criterion(3, "synthesized group repaired with one shared name", 1.0):
        t = parse_lambda(r"\x@'3. x@1 (\x@2. x@'4)")
        gs = NameGraph({lbl(1), lbl(2)}, {})
        result = name_fix(gs, t, LAMBDA_RESOLVER).term
        assert name_at(result, lbl(3, True)) == name_at(result, lbl(4, True))
        assert name_at(result, lbl(2)) != name_at(result, lbl(3, True))
        assert name_at(result, lbl(2)) != "x"
        assert name_at(result, lbl(1)) == "x"


def test_criterion_4_substitution_renames_captured_let():
    with criterion(4, "substitution renames the capturing local binder", 1.0):
        p = parse_simpl(
            "fun zero() = 0;\n"
            "fun succ(x) = let n = 1 in x + n;\n"
            "let n = x + 5 in succ(succ(n + x + zero()))"
        )
        out = subst(p, "x", parse_simpl_exp("2 * n"))
        assert pretty_simpl(out) == (
            "fun zero() = 0;\n"
            "fun succ(x) = let n = 1 in x + n;\n"
            "let n0 = 2 * n + 5 in succ(succ(n0 + 2 * n + zero()))\n"
        )


def test_criterion_5_inlining_keeps_references_apart():
    with criterion(5, "repeated inlining renames both colliding locals", 1.0):
        p = parse_simpl(
            "fun or(x, y) = let tmp = x in if tmp == 0 then y else tmp;\n"
            "fun and(x, y) = !or(!x, !y);\n"
            "let or = 1 in let tmp = 0 in and(or, tmp)"
        )
        step1 = inline(p, "and")
        assert pretty_simpl(prog_main(step1)[0]) == (
            "let or0 = 1 in let tmp = 0 in !or(!or0, !tmp)"
        )
        step2 = inline(step1, "or")
        assert pretty_simpl(prog_main(step2)[0]) == (
            "let or0 = 1 in let tmp = 0 in "
            "!(let tmp0 = !or0 in if tmp0 == 0 then !tmp else tmp0)"
        )


def test_criterion_6_lambda_lifting_threads_free_variables():
    with criterion(6, "lifting renames the shadowing local function", 1.0):
        p = parse_simpl(
            "fun f(x) = x + 1;\n"
            "let y = f(10) in\n"
            "  let fun f(x) = f(x + y) in\n"
            "    let fun g(x) = f(y + x + 1) in\n"
            "      f(1) + g(3)"
        )
        assert pretty_simpl(lambda_lift(p)) == (
            "fun f(x) = x + 1;\n"
            "fun f0(x, y) = f0(x + y, y);\n"
            "fun g(x, y) = f0(y + x + 1, y);\n"
            "let y = f(10) in f0(1, y) + g(3, y)\n"
        )


def _fixing_cases(rng):
    """(gs, target, target-declaration-labels) triples from all three
    languages: mutated lambda terms, capturing substitutions, and naive
    state-machine compiles."""
    cases = []
    for _ in range(700):
        s = gen_lambda(rng)
        t = mutate_lambda(rng, s)
        cases.append((resolve_lambda(s), t, reference.lam_declarations_of(t), LAMBDA_RESOLVER))
    for _ in range(200):
        p = parse_simpl(gen_simpl_source(rng))
        repl = parse_simpl_exp(
            rng.choice(["2 * n", "x + y", "f(1)", "let x = 2 in x + z"])
        )
        t = subst_prog(p, rng.choice(["x", "y", "z", "n"]), repl)
        cases.append((resolve_simpl(p), t, simpl_declarations(t), SIMPL_RESOLVER))
    for _ in range(150):
        m = parse_stm(gen_machine_source(rng))
        t = compile_machine(m)
        cases.append((resolve_machine(m), t, simpl_declarations(t), SIMPL_RESOLVER))
    return cases


def test_criterion_7_repair_property_suites():
    with criterion(7, "randomized repair and equivalence property suites", 60.0):
        rng = random.Random(101)

        # termination within the declaration bound / no leftover capture /
        # untouched capture-free inputs / name-sharing with the input
        cases = _fixing_cases(rng)
        assert len(cases) >= 1000
        for gs, t, decls, resolver in cases:
            assert is_bipartite(gs)
            result = name_fix(gs, t, resolver)
            assert len(result.trace) <= len(decls)
            assert not find_capture(gs, resolver.resolve(result.term))
            if not find_capture(gs, resolver.resolve(t)):
                assert result.term is t
            assert sub_alpha_equiv(t, result.term, gs)

        # name-sharing-equivalent inputs give alpha-equivalent outputs
        for _ in range(1000):
            s = gen_lambda(rng)
            gs = resolve_lambda(s)
            t = mutate_lambda(rng, s)
            a = sub_alpha_variant(rng, t, gs)
            b = sub_alpha_variant(rng, t, gs)
            out_a = name_fix(gs, a, LAMBDA_RESOLVER).term
            out_b = name_fix(gs, b, LAMBDA_RESOLVER).term
            assert alpha_equiv(out_a, out_b, LAMBDA_RESOLVER)

        # consistently renaming a machine's states never changes the
        # compiled output up to alpha-equivalence
        for _ in range(1000):
            m = parse_stm(gen_machine_source(rng))
            m2 = rename(m, machine_renaming(rng, m))
            assert alpha_equiv(compile_fixed(m), compile_fixed(m2), SIMPL_RESOLVER)

        # name-sharing equivalence is an equivalence relation
        for _ in range(1000):
            s = gen_lambda(rng)
            g = resolve_lambda(s)
            a = sub_alpha_variant(rng, s, g)
            b = sub_alpha_variant(rng, s, g)
            assert sub_alpha_equiv(a, a, g)
            assert sub_alpha_equiv(s, a, g) and sub_alpha_equiv(a, s, g)
            assert sub_alpha_equiv(a, b, g)

        # renaming changes spellings only, never labels or structure
        for _ in range(1000):
            s = gen_lambda(rng)
            pi = {
                v: rng.choice(["a", "b", "c"])
                for v in labels_of(s)
                if rng.random() < 0.5
            }
            out = rename(s, pi)
            assert label_equiv(out, s)
            assert labels_of(out) == labels_of(s)


def test_criterion_8_resolver_contract():
    with criterion(8, "resolvers respect consistent renamings", 30.0):
        fixtures = [
            (LAMBDA_RESOLVER, parse_lambda(r"\x. (\y. (\x. x + y) x) x")),
            (
                SIMPL_RESOLVER,
                parse_simpl(
                    "fun or(x, y) = let tmp = x in if tmp == 0 then y else tmp;\n"
                    "fun and(x, y) = !or(!x, !y);\n"
                    "let or = 1 in let fun f(x) = and(x, or) in f(tmp)"
                ),
            ),
            (STM_RESOLVER, parse_stm(DOOR)),
        ]
        for resolver, program in fixtures:
            report = check_resolver_assumptions(resolver, program, trials=1000)
            assert report.ok, report.violations

        # a resolver that resolves by spelling while ignoring scope must
        # be caught
        def broken(t):
            g = resolve_lambda(t)
            spell = {n.label: n.text for n in iter_names(t)}
            edges = {
                (r, d)
                for r, d in g.edges
                if sum(1 for v in g.declarations if spell[v] == spell[r]) <= 1
            }
            return NameGraph(g.labels, edges)

        report = check_resolver_assumptions(
            Resolver("broken", broken), parse_lambda(r"\x. (\x. x) x"), trials=1000
        )
        assert not report.ok


def _outcome(p):
    try:
        return ("value", eval_simpl(p))
    except EvalError:
        return ("error",)


def test_criterion_9_transformations_preserve_behavior():
    with criterion(9, "inlining and lifting preserve evaluation", 30.0):
        rng = random.Random(202)
        for _ in range(200):
            p = parse_simpl(gen_simpl_source(rng, closed=True))
            expected = _outcome(p)
            for fname in {fdef_name(f).text for f in prog_fdefs(p)}:
                assert _outcome(inline(p, fname)) == expected
            assert _outcome(lambda_lift(p)) == expected
