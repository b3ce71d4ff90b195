import random

import pytest

from namefix.graph import (
    NameGraph,
    Resolver,
    alpha_equiv,
    alpha_equiv_relabel,
    check_resolver_assumptions,
    is_bipartite,
    sub_alpha_equiv,
    to_dot,
    validate_graph,
)
from namefix.lam import LAMBDA_RESOLVER, parse_lambda, resolve_lambda
from namefix.statemachine import parse_stm, resolve_machine
from namefix.term import Label, Name, Provenance, iter_names, labels_of, rename

import reference
from gen import gen_lambda, sub_alpha_variant


def lbl(i: int, synth: bool = False) -> Label:
    return Label(i, Provenance.SYNTHESIZED if synth else Provenance.SOURCE)


DOOR = """
state opened
  close => closed
state closed
  open => opened
  lock => locked
state locked
  unlock => closed
"""

# Same machine with labels pinned to its line numbers.
DOOR_PINNED = """
state opened@1
  close => closed@2
state closed@4
  open => opened@6
  lock => locked@5
state locked@8
  unlock => closed@9
"""


class TestNameGraphBasics:
    def test_rho_view(self):
        g = NameGraph({lbl(1), lbl(2)}, {lbl(2): lbl(1)})
        assert reference.rho(g) == {lbl(2): lbl(1)}
        assert g.references == {lbl(2)}
        assert g.declarations == {lbl(1)}

    def test_relational_edges(self):
        g = NameGraph({lbl(1), lbl(2), lbl(3)}, [(lbl(3), lbl(1)), (lbl(3), lbl(2))])
        assert g.bindings(lbl(3)) == {lbl(1), lbl(2)}
        assert [g.references_to(v) for v in (lbl(1), lbl(2), lbl(3))] == [[lbl(3)], [lbl(3)], ()]
        with pytest.raises(ValueError):
            reference.lookup(g, lbl(3))
        with pytest.raises(ValueError):
            reference.rho(g)

    def test_queried_graph_stays_immutable_and_equal(self):
        edges = [(lbl(3), lbl(1)), (lbl(3), lbl(2))]
        g = NameGraph({lbl(1), lbl(2), lbl(3)}, edges)
        assert g.find(3) == lbl(3) and g.bindings(lbl(3)) == {lbl(1), lbl(2)}
        with pytest.raises(AttributeError):
            g.labels = frozenset()
        with pytest.raises(AttributeError):
            g.extra = 1
        unqueried = NameGraph({lbl(1), lbl(2), lbl(3)}, edges)
        assert g == unqueried and hash(g) == hash(unqueried)

    def test_counts_as_source_checks_provenance(self):
        g = NameGraph({lbl(1)}, {})
        assert g.counts_as_source(lbl(1))
        assert not g.counts_as_source(lbl(1, synth=True))
        assert not g.counts_as_source(lbl(2))


class TestValidateGraph:
    def test_door_machine_graph_valid(self):
        m = parse_stm(DOOR_PINNED)
        g = NameGraph(
            labels_of(m),
            {lbl(6): lbl(1), lbl(2): lbl(4), lbl(9): lbl(4), lbl(5): lbl(8)},
        )
        assert validate_graph(m, g) == []
        assert resolve_machine(m) == g

    def test_name_mismatch(self):
        m = parse_stm(DOOR_PINNED)
        g = NameGraph(labels_of(m), {lbl(6): lbl(4)})  # opened ref -> closed decl
        kinds = [v.kind for v in validate_graph(m, g)]
        assert kinds == ["NameMismatch"]

    def test_missing_label(self):
        m = parse_stm(DOOR_PINNED)
        g = NameGraph(labels_of(m) - {lbl(9)}, {})
        kinds = [v.kind for v in validate_graph(m, g)]
        assert kinds == ["MissingLabel"]

    def test_dangling_edge(self):
        g = NameGraph({lbl(1)}, {lbl(2): lbl(1)})
        p = Name("x", lbl(1))
        kinds = [v.kind for v in validate_graph(p, g)]
        assert "DanglingEdge" in kinds


class TestBipartite:
    def test_source_graph_bipartite(self):
        assert is_bipartite(resolve_machine(parse_stm(DOOR)))

    def test_self_loops_not_bipartite(self):
        g = NameGraph({lbl(1), lbl(2)}, [(lbl(1), lbl(1)), (lbl(2), lbl(1))])
        assert not is_bipartite(g)

    def test_empty_graph_bipartite(self):
        assert is_bipartite(NameGraph(set(), {}))


class TestAlphaEquiv:
    """The small comparison table of shadowed/unshadowed pairs."""

    def test_consistent_bound_renaming_is_alpha(self):
        p1 = parse_lambda(r"\x@1. (\y@3. y@4 y@5) x@2")
        p2 = parse_lambda(r"\x@11. (\x@13. x@14 x@15) x@12")
        # align labels: same ids required for plain alpha_equiv
        p2 = parse_lambda(r"\x@21. (\x@23. x@24 x@25) x@22")
        p1b = rename(p1, {})
        assert reference.rho(resolve_lambda(p1)) == {
            lbl(2): lbl(1),
            lbl(4): lbl(3),
            lbl(5): lbl(3),
        }
        assert alpha_equiv(p1, p1b, LAMBDA_RESOLVER)
        assert alpha_equiv_relabel(p1, p2, LAMBDA_RESOLVER)

    def test_same_labels_different_binding_not_alpha(self):
        p3 = parse_lambda(r"\x@31. (\y@33. x@34 + y@35) x@32")
        p4 = parse_lambda(r"\x@41. (\x@43. x@44 + x@45) x@42")
        assert reference.rho(resolve_lambda(p3)) == {
            lbl(32): lbl(31),
            lbl(34): lbl(31),
            lbl(35): lbl(33),
        }
        assert reference.rho(resolve_lambda(p4)) == {
            lbl(42): lbl(41),
            lbl(44): lbl(43),
            lbl(45): lbl(43),
        }
        assert not alpha_equiv_relabel(p3, p4, LAMBDA_RESOLVER)

    def test_alpha_via_explicit_rename(self):
        p1 = parse_lambda(r"\x@51. (\y@53. y@54 y@55) x@52")
        p2 = rename(
            p1, {lbl(53): "x", lbl(54): "x", lbl(55): "x"}
        )  # rename bound y -> x, capturing nothing
        assert alpha_equiv(p1, p2, LAMBDA_RESOLVER)

    def test_reflexive(self):
        p = parse_lambda(r"\x. x + y")
        assert alpha_equiv(p, p, LAMBDA_RESOLVER)


class TestSubAlphaEquiv:
    """Name-sharing agreement table under G = ({1,2,3}, {2->1, 3->1})."""

    G = NameGraph({lbl(101), lbl(102), lbl(103)}, {lbl(102): lbl(101), lbl(103): lbl(101)})

    def p(self, src: str):
        return parse_lambda(src)

    def test_equivalent_variants(self):
        p1 = self.p(r"\x@101. (\y@'104. x@103 + y@'105) x@102")
        p2 = self.p(r"\z@101. (\y@'104. z@103 + y@'105) z@102")
        p3 = self.p(r"\x@101. (\z@'104. x@103 + z@'105) x@102")
        p4 = self.p(r"\z@101. (\z@'104. z@103 + z@'105) z@102")
        for other in (p2, p3, p4):
            assert sub_alpha_equiv(p1, other, self.G)

    def test_binding_class_disagreement(self):
        p1 = self.p(r"\x@101. (\y@'104. x@103 + y@'105) x@102")
        p5 = self.p(r"\z@101. (\y@'104. x@103 + y@'105) x@102")
        p6 = self.p(r"\x@101. (\y@'104. z@103 + y@'105) x@102")
        assert not sub_alpha_equiv(p1, p5, self.G)
        assert not sub_alpha_equiv(p1, p6, self.G)

    def test_outside_group_disagreement(self):
        p1 = self.p(r"\x@101. (\y@'104. x@103 + y@'105) x@102")
        p7 = self.p(r"\x@101. (\z@'104. x@103 + y@'105) x@102")
        p8 = self.p(r"\x@101. (\y@'104. x@103 + z@'105) x@102")
        assert not sub_alpha_equiv(p1, p7, self.G)
        assert not sub_alpha_equiv(p1, p8, self.G)

    def test_equivalence_relation_laws(self):
        rng = random.Random(7)
        for _ in range(100):
            s = gen_lambda(rng)
            g = resolve_lambda(s)
            a = sub_alpha_variant(rng, s, g)
            b = sub_alpha_variant(rng, s, g)
            assert sub_alpha_equiv(a, a, g)
            assert sub_alpha_equiv(s, a, g) and sub_alpha_equiv(a, s, g)
            assert sub_alpha_equiv(s, b, g)
            assert sub_alpha_equiv(a, b, g)  # transitivity through s

    def test_alpha_implies_sub_alpha(self):
        rng = random.Random(8)
        for _ in range(100):
            s = gen_lambda(rng)
            g = resolve_lambda(s)
            # consistent non-capturing renaming: fresh names per binding class
            pi = {}
            for i, d in enumerate(sorted(g.declarations, key=lambda l: l.id)):
                for m in [d] + [r for r, dd in g.edges if dd == d]:
                    pi[m] = f"w{i}"
            q = rename(s, pi)
            if alpha_equiv(s, q, LAMBDA_RESOLVER):
                assert sub_alpha_equiv(s, q, g)


class TestResolverAssumptions:
    def test_lambda_resolver_clean(self):
        p = parse_lambda(r"\x. (\y. (\x. x + y) x) x")
        report = check_resolver_assumptions(LAMBDA_RESOLVER, p, trials=100)
        assert report.ok, report.violations

    def test_broken_resolver_detected(self):
        def broken(t):
            g = resolve_lambda(t)
            spell = {n.label: n.text for n in iter_names(t)}
            # drop references whose spelling collides with an unrelated decl
            edges = {
                (r, d)
                for r, d in g.edges
                if sum(1 for v in g.declarations if spell[v] == spell[r]) <= 1
            }
            return NameGraph(g.labels, edges)

        p = parse_lambda(r"\x. (\x. x) x")
        report = check_resolver_assumptions(
            Resolver("broken", broken), p, trials=200
        )
        assert not report.ok

    def test_single_identity_trial(self):
        p = parse_lambda(r"\x. x")
        assert check_resolver_assumptions(LAMBDA_RESOLVER, p, trials=1).ok

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            check_resolver_assumptions(LAMBDA_RESOLVER, parse_lambda("x"), trials=0)


class TestDotExport:
    def test_shapes_and_capture_styling(self):
        p = parse_lambda(r"\x@201. x@202 + y@'203")
        g = resolve_lambda(p)
        dot = to_dot(g, p, capture=[(lbl(203, True), lbl(201))], title="t")
        assert 'label="t"' in dot
        assert 'n201 [label="x@201", shape=box]' in dot
        assert 'n202 [label="x@202", shape=ellipse]' in dot
        assert "fillcolor" in dot  # synthesized label shaded
        assert "n202 -> n201;" in dot

    def test_title_quotes_and_backslashes_are_escaped(self):
        p = parse_lambda("x@1")
        dot = to_dot(resolve_lambda(p), p, title='a"b\\c.lam')
        assert '  label="a\\"b\\\\c.lam";' in dot.splitlines()
