"""Differential suite: the indexed repair loop against the scan-based
reference in reference.py, on the same generated cases.

Equal results means the same repaired term, the same trace (captures,
renamings, intermediate terms and graphs, round by round) and the same
final graph.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from namefix.fix import comp_renaming, find_capture, name_fix
from namefix.graph import NameGraph
from namefix.lam import LAMBDA_RESOLVER, resolve_lambda
from namefix.simpl import (
    SIMPL_RESOLVER,
    SimplError,
    fdef_name,
    inline_prog,
    lift_prog,
    parse_simpl,
    parse_simpl_exp,
    prog_fdefs,
    resolve_simpl,
    subst_prog,
)
from namefix.statemachine import compile_machine, parse_stm, resolve_machine
from namefix.term import Compound, Label, Name, Provenance

from gen import gen_lambda, gen_machine_source, gen_simpl_source, mutate_lambda

seeds = st.integers(0, 2**32 - 1)


def assert_same_repair(gs, t, resolver):
    got = name_fix(gs, t, resolver)
    want = reference.name_fix(gs, t, resolver)
    assert got.term == want.term
    assert got.trace == want.trace
    assert got.graph == want.graph
    return got


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
        assert comp_renaming(gs, gt, t, capture) == reference.comp_renaming(gs, gt, t, capture)
