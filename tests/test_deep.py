"""Deep programs: every tree walk keeps its own stack, so term depth is
bounded by memory and not by the Python stack.

A 5,000-state machine compiles to a `main` whose if-chain is one level deep
per state; 10,000 nested lambdas are 10,000 levels deep, with one binder
name or 10,000 distinct ones; a repair re-binds 5,000 references below
20,000 binders. The parsers read right-nested chains (lets, if-else,
lambdas) in a loop, so the printed 5,000-state compile output and the
printed 10,000-lambda chain parse back; they still recurse on
parenthesised and operand nesting, so the other inputs are built in memory
or from flat `.stm` text.

The frame walk is also checked against the recursive reference resolvers
of `reference.py` on terms 300 levels deep, shallow enough for those, and
so is its re-binding after respellings.
"""

import itertools
import random

import pytest

import reference
from namefix import simpl
from namefix.cli import main
from namefix.fix import find_capture, name_fix
from namefix.graph import BindingFrames, NameGraph, alpha_equiv_relabel, sub_alpha_equiv
from namefix.lam import LAMBDA_RESOLVER, app, lam, parse_lambda, pretty_lambda, resolve_lambda
from namefix.simpl import (
    SIMPL_RESOLVER,
    call,
    eval_simpl,
    fdef_name,
    parse_simpl,
    prog,
    prog_fdefs,
    resolve_simpl,
)
from namefix.statemachine import compile_machine, parse_stm, resolve_machine
from namefix.term import Const, Label, LabelIndex, Name, Provenance, compound, fold, label_equiv
from test_oracle import respellings, typed

STATES = 5_000
LAMBDAS = 10_000


def machine_source(n: int, clash: bool) -> tuple[str, dict[tuple[int, str], int]]:
    """A flat machine with states s0..s<n-1>, and its transition table.

    With clash=True, the middle state is spelled `s1-dispatch`, the name of
    the dispatch function compiled for state s1, and its predecessor has a
    transition into it.
    """
    names = [f"s{i}" for i in range(n)]
    if clash:
        names[n // 2] = f"{names[1]}-dispatch"
    table = {}
    lines = []
    for i, name in enumerate(names):
        table[(i, "go")] = (i + 1) % n
        table[(i, "stop")] = (7 * i + 3) % n
        lines.append(f"state {name}")
        lines += [f"  {event} => {names[table[(i, event)]]}" for event in ("go", "stop")]
    return "\n".join(lines) + "\n", table


def successor(p, state: int, event: str) -> object:
    """What the compiled `main` returns for a state index and an event."""
    main_fn = Name("main", Label(0))
    return eval_simpl(prog(prog_fdefs(p), [call(main_fn, [Const(state), Const(event)])]))


def test_compile_5000_states_with_a_clash(tmp_path, capsys, monkeypatch):
    src, table = machine_source(STATES, clash=True)
    path = tmp_path / "big.stm"
    path.write_text(src)
    printed = []
    pretty = simpl.pretty_simpl

    def keep(p, show_labels=False):
        printed.append((p, pretty(p, show_labels)))
        return printed[-1][1]

    monkeypatch.setattr(simpl, "pretty_simpl", keep)
    assert main(["compile", str(path)]) == 0
    ((repaired, text),) = printed
    out = capsys.readouterr().out
    assert out == text
    # The printed text parses back. Compiling repeats labels (a state's in
    # its function and in `main`), which printing forgets, so the parse is
    # compared with the repaired term given one label per occurrence.
    reparsed = parse_simpl(out)
    ids = itertools.count(1)
    relabeled = fold(repaired, lambda n: Name(n.text, Label(next(ids))))
    assert alpha_equiv_relabel(reparsed, relabeled, SIMPL_RESOLVER)
    # The synthesized dispatch function gave way to the state's name.
    assert "fun s1-dispatch0(event) = " in out
    assert {fdef_name(f).text for f in prog_fdefs(repaired)} >= {"s1-dispatch", "main"}
    clash = STATES // 2
    for state in (0, STATES - 1, clash - 1):
        assert successor(repaired, state, "go") == table[(state, "go")]
        assert successor(reparsed, state, "go") == table[(state, "go")]
    assert table[(clash - 1, "go")] == clash


def test_clean_5000_state_machine_comes_back_as_the_naive_object():
    src, _ = machine_source(STATES, clash=False)
    m = parse_stm(src)
    naive = compile_machine(m)
    assert name_fix(resolve_machine(m), naive, SIMPL_RESOLVER).term is naive


def nested_lambdas(n: int, capture: bool, ref: str = "x", distinct: bool = False):
    """\\x. \\y. ... \\y. [\\x'.] x with n binders y, labels fixed by
    position; the optional inner binder is synthesized and spelled like the
    outer x. The innermost reference is spelled `ref`.

    The y binders shadow each other; with distinct=True they are spelled
    y0 ... y<n-1> instead. Either way the resolver keeps one frame per
    binder and looks each spelling up a frame chain once, so neither costs
    time quadratic in n."""
    body = Name(ref, Label(1))
    if capture:
        body = lam(Name("x", Label(n + 3, Provenance.SYNTHESIZED)), body)
    for i in reversed(range(n)):
        body = lam(Name(f"y{i}" if distinct else "y", Label(i + 2)), body)
    return lam(Name("x", Label(n + 2)), body)


def test_10000_nested_lambdas_resolve_repair_and_print():
    source = nested_lambdas(LAMBDAS, capture=False)
    naive = nested_lambdas(LAMBDAS, capture=True)
    gs = resolve_lambda(source)
    assert len(gs.edges) == 1
    captured = resolve_lambda(naive)
    assert find_capture(gs, captured)

    result = name_fix(gs, naive, LAMBDA_RESOLVER)
    repaired = result.term
    assert len(result.trace) == 1
    assert not find_capture(gs, resolve_lambda(repaired))
    assert label_equiv(repaired, naive)
    assert sub_alpha_equiv(naive, repaired, gs)
    again = fold(repaired, lambda n: Name(n.text, n.label))
    assert again is not repaired
    assert alpha_equiv_relabel(repaired, again, LAMBDA_RESOLVER)
    assert not alpha_equiv_relabel(naive, repaired, LAMBDA_RESOLVER)

    text = pretty_lambda(repaired)
    assert text == "\\x. " + "\\y. " * LAMBDAS + "\\x0. x"
    assert alpha_equiv_relabel(parse_lambda(text), repaired, LAMBDA_RESOLVER)


def test_10000_nested_lambdas_with_distinct_binders():
    source = nested_lambdas(LAMBDAS, capture=False, distinct=True)
    naive = nested_lambdas(LAMBDAS, capture=True, distinct=True)
    gs = resolve_lambda(source)
    assert len(gs.edges) == 1
    assert len(gs.labels) == LAMBDAS + 2

    result = name_fix(gs, naive, LAMBDA_RESOLVER)
    repaired = result.term
    assert len(result.trace) == 1
    g = resolve_lambda(repaired)
    assert g.edges == gs.edges
    assert not find_capture(gs, g)
    assert label_equiv(repaired, naive)
    assert sub_alpha_equiv(naive, repaired, gs)
    binders = "".join(f"\\y{i}. " for i in range(LAMBDAS))
    assert pretty_lambda(repaired) == "\\x. " + binders + "\\x0. x"


def test_equality_and_hash_of_10000_deep_terms():
    a = nested_lambdas(LAMBDAS, capture=False)
    b = nested_lambdas(LAMBDAS, capture=False)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    c = nested_lambdas(LAMBDAS, capture=False, ref="z")
    assert a != c
    assert not a == c
    assert isinstance(hash(c), int)


def test_repr_of_a_10000_deep_term():
    t = nested_lambdas(LAMBDAS, capture=False)
    text = repr(t)
    assert text.startswith("Compound(Const('lam'), Name('x'@10002), Compound(Const('lam'), Name('y'@2), ")
    assert text.endswith("Name('x'@1)" + ")" * (LAMBDAS + 1))
    assert text.count("Compound(") == LAMBDAS + 1


def test_error_message_formatting_a_10000_deep_term():
    # An untagged compound cannot be evaluated, and the error shows it.
    deep = compound(Name("x", Label(1)))
    for _ in range(LAMBDAS):
        deep = compound(deep)
    with pytest.raises(simpl.SimplError) as exc:
        eval_simpl(prog([], [deep]))
    message = str(exc.value)
    assert message == "cannot evaluate " + "Compound(" * (LAMBDAS + 1) + "Name('x'@1)" + ",)" * (LAMBDAS + 1)


REFERENCES = 5_000
SHADOWING = 20_000


def shadowed_references(n: int, m: int, capture: bool):
    """\\x. \\y. ... \\y. [\\x'.] x (\\y. x (\\y. ... x)) with m binders y
    above n + 1 references x, each one frame deeper than the last; the
    optional binder is synthesized and spelled like the outer x, so it
    captures every reference.

    Repair respells the synthesized binder, and every reference re-binds
    to the outer x, more than m frames up. A lookup per reference that
    walked its frames up would take n * m steps (10^8 here, some 25 times
    the run time of the test); shared frames are looked up once."""
    body = Name("x", Label(1))
    for k in range(n):
        body = app(Name("x", Label(k + 2)), lam(Name("y", Label(n + k + 2)), body))
    if capture:
        body = lam(Name("x", Label(2 * n + m + 3, Provenance.SYNTHESIZED)), body)
    for i in range(m):
        body = lam(Name("y", Label(2 * n + i + 2)), body)
    return lam(Name("x", Label(2 * n + m + 2)), body)


def test_one_round_rebinds_5000_references_far_from_their_binder():
    source = shadowed_references(REFERENCES, SHADOWING, capture=False)
    naive = shadowed_references(REFERENCES, SHADOWING, capture=True)
    gs = resolve_lambda(source)
    assert len(gs.edges) == REFERENCES + 1

    result = name_fix(gs, naive, LAMBDA_RESOLVER)
    (step,) = result.trace.steps
    assert len(step.capture) == REFERENCES + 1
    assert resolve_lambda(result.term).edges == gs.edges
    assert pretty_lambda(result.term).startswith("\\x. " + "\\y. " * SHADOWING + "\\x0. x (\\y. x")


DEPTH = 300


def deep_lambda(n: int, kinds: int):
    """n nested lambdas, the binder at level i spelled y<i % kinds>: with
    kinds < n a binder shadows the outer ones of its spelling, with
    kinds = n all are distinct. Each level applies a reference spelled
    y<5i % 11> to the next level: it names an outer binder, one that an
    inner binder shadows, or nothing."""
    ids = itertools.count(1)
    body = Name("y0", Label(next(ids)))
    for i in reversed(range(n)):
        ref = Name(f"y{5 * i % 11}", Label(next(ids)))
        body = lam(Name(f"y{i % kinds}", Label(next(ids))), app(ref, body))
    return body


def deep_let_chain(n: int):
    """A .spl program whose main is n nested lets, the binder at level i
    spelled v<i % 7> and its initializer referring to v<5i % 11>: an outer
    binder, a shadowed one, the top-level function v4 or nothing."""
    chain = "".join(f"let v{i % 7} = v{5 * i % 11} + {i} in " for i in range(n))
    return parse_simpl(f"fun v4(a) = a;\n{chain}v4(v3)")


def assert_rebinds_like_reference(resolver, resolve, t, pis):
    """After each respelling of `pis`, the graph re-bound through t's
    BindingFrames is the reference resolver's graph of the respelled term."""
    frames = BindingFrames(t, resolver.scopes, resolver.top(t))
    g = NameGraph(frames.names, frames.edges)
    index = LabelIndex(t)
    for pi in pis:
        term = index.rename(pi)
        drop, add = frames.rebind(index)
        g = NameGraph(g.labels, g.edges - drop | add)
        assert typed(g) == typed(resolve(term))


@pytest.mark.parametrize("kinds", [7, DEPTH])
def test_300_nested_lambdas_resolve_and_rebind_as_the_reference_does(kinds):
    t = deep_lambda(DEPTH, kinds)
    g = resolve_lambda(t)
    assert len(g.edges) > DEPTH // 2
    assert typed(g) == typed(reference.resolve_lambda(t))
    pis = respellings(random.Random(kinds), t, 4)
    assert_rebinds_like_reference(LAMBDA_RESOLVER, reference.resolve_lambda, t, pis)


def test_300_nested_lets_resolve_and_rebind_as_the_reference_does():
    p = deep_let_chain(DEPTH)
    g = resolve_simpl(p)
    assert len(g.edges) > DEPTH // 2
    assert typed(g) == typed(reference.resolve_simpl(p))
    pis = respellings(random.Random(0), p, 4)
    assert_rebinds_like_reference(SIMPL_RESOLVER, reference.resolve_simpl, p, pis)
