import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namefix.term import (
    Compound,
    Const,
    InconsistentLabel,
    Label,
    LabelIndex,
    LabelNotFound,
    Name,
    Provenance,
    compound,
    fresh_source_label,
    label_equiv,
    labels_of,
    name_at,
    rename,
    spellings,
)

import reference
from reference import mark
from gen import gen_lambda


def lbl(i: int, synth: bool = False) -> Label:
    return Label(i, Provenance.SYNTHESIZED if synth else Provenance.SOURCE)


@st.composite
def terms(draw, depth=3):
    kind = draw(st.integers(0, 3 if depth > 0 else 1))
    if kind == 0:
        return Const(draw(st.integers(0, 9)))
    if kind == 1:
        return Name(
            draw(st.sampled_from(["x", "y", "z"])),
            Label(draw(st.integers(1, 50)), draw(st.sampled_from(list(Provenance)))),
        )
    children = draw(st.lists(terms(depth=depth - 1), min_size=1, max_size=3))
    return Compound(tuple(children))


@st.composite
def consistent_terms(draw):
    """Terms where every label id carries one fixed spelling."""
    t = draw(terms())
    spell = {}

    def fix(u):
        if isinstance(u, Name):
            text = spell.setdefault(u.label.id, u.text)
            return Name(text, u.label)
        if isinstance(u, Compound):
            return Compound(tuple(fix(c) for c in u.children))
        return u

    return fix(t)


renamings = st.dictionaries(
    st.builds(lbl, st.integers(1, 50)), st.sampled_from(["a", "b", "c"]), max_size=6
)


class TestLabel:
    def test_equality_by_id_only(self):
        assert lbl(3) == lbl(3, synth=True)
        assert hash(lbl(3)) == hash(lbl(3, synth=True))
        assert lbl(3) != lbl(4)

    def test_fresh_labels_distinct(self):
        a, b = reference.fresh_label(), reference.fresh_label()
        assert a != b
        assert a.provenance is Provenance.SYNTHESIZED
        assert fresh_source_label().provenance is Provenance.SOURCE

    def test_fresh_labels_distinct_at_scale(self):
        ids = {reference.fresh_label().id for _ in range(10_000)}
        assert len(ids) == 10_000


ids = st.integers(0, 2**70)  # 0 included, and ids wider than a machine word
provenances = st.sampled_from(list(Provenance))
any_labels = st.builds(Label, ids, provenances)


class TestLabelIsItsId:
    @given(ids, provenances, provenances)
    def test_equality_and_hash_by_id_across_provenance(self, i, p, q):
        a, b = Label(i, p), Label(i, q)
        assert a == b and hash(a) == hash(b) == hash(i)
        assert a == i and i == a
        assert a != Label(i + 1, p)
        assert a.id == i and type(a.id) is int
        assert {a: "x"}[b] == "x" and {i: "x"}[a] == "x"

    @given(ids, provenances)
    def test_text_unchanged(self, i, p):
        a = Label(i, p)
        tick = "'" if p is Provenance.SYNTHESIZED else ""
        assert repr(a) == str(a) == f"{a}" == f"{a!r}" == "{}".format(a) == f"@{tick}{i}"
        assert repr(Name("x", a)) == f"Name('x'@{tick}{i})"
        assert a.provenance is p
        assert a.synthesized is (p is Provenance.SYNTHESIZED)

    @given(ids, provenances)
    def test_copies_keep_class_and_provenance(self, i, p):
        a = Label(i, p)
        pickled = [pickle.loads(pickle.dumps(a, k)) for k in range(pickle.HIGHEST_PROTOCOL + 1)]
        for b in [copy.copy(a), copy.deepcopy(a), *pickled]:
            assert type(b) is type(a) and b == a and b.provenance is p
        named = pickle.loads(pickle.dumps(Name("x", a)))
        assert named == Name("x", a) and named.label.provenance is p

    @given(st.lists(any_labels, max_size=20))
    def test_sorted_is_the_sort_by_id(self, labels):
        by_id = sorted(labels, key=lambda l: l.id)
        got = sorted(labels)
        assert [(l.id, l.provenance) for l in got] == [(l.id, l.provenance) for l in by_id]

    def test_label_zero_is_falsy_and_still_a_label(self):
        zero = Label(0, Provenance.SYNTHESIZED)
        assert not zero
        assert zero is not None and zero.synthesized
        assert labels_of(compound(Name("x", zero))) == {0}

    @pytest.mark.parametrize("synth", [False, True])
    def test_rename_and_label_index_respell_label_zero(self, synth):
        t = compound(Name("x", lbl(0, synth)), compound(Name("x", lbl(0, synth)), Name("x", lbl(1))))
        want = reference.rename(t, {lbl(0): "y"})
        assert want == compound(Name("y", lbl(0)), compound(Name("y", lbl(0)), Name("x", lbl(1))))
        assert rename(t, {lbl(0): "y"}) == want
        index = LabelIndex(t, spellings(t))
        assert index.spelling == {lbl(0): "x", lbl(1): "x"}
        assert index.rename({lbl(0): "y"}) == want
        assert index.spelling[lbl(0)] == "y"
        assert index.rename({lbl(0): "z", lbl(1): "y"}) == reference.rename(want, {lbl(0): "z", lbl(1): "y"})


# (term, queried label, its spelling or None when absent, or the error)
NAME_AT_CASES = [
    (Name("x", lbl(1)), lbl(1), "x"),
    (Name("x", lbl(1)), lbl(2), None),
    (compound(Name("a", lbl(1)), Name("b", lbl(1))), lbl(1), InconsistentLabel),
]
# Case ids spelled out: a Label is an int, which pytest would otherwise name by value.
NAME_AT_IDS = [
    f"t{i}-v{i}-{getattr(want, '__name__', want)}" for i, (_, _, want) in enumerate(NAME_AT_CASES)
]


class TestNameAt:
    def test_single_occurrence(self):
        assert name_at(Name("x", lbl(1)), lbl(1)) == "x"

    def test_absent_label(self):
        with pytest.raises(LabelNotFound):
            name_at(Name("x", lbl(1)), lbl(2))

    def test_inconsistent_occurrences(self):
        t = compound(Name("a", lbl(1)), Name("b", lbl(1)))
        with pytest.raises(InconsistentLabel):
            name_at(t, lbl(1))


class TestSpellings:
    @pytest.mark.parametrize("t, v, expected", NAME_AT_CASES, ids=NAME_AT_IDS)
    def test_name_at_cases(self, t, v, expected):
        if expected is InconsistentLabel:
            with pytest.raises(InconsistentLabel):
                spellings(t)
        else:
            assert spellings(t).get(v) == expected

    def test_first_occurrence_order(self):
        t = compound(Name("b", lbl(2)), Name("a", lbl(1)), Name("b", lbl(2)))
        assert list(spellings(t).items()) == [(lbl(2), "b"), (lbl(1), "a")]

    @given(consistent_terms())
    def test_agrees_with_term_walks(self, t):
        spell = spellings(t)
        assert frozenset(spell) == reference.labels_of(t) == labels_of(t)
        assert frozenset(spell.values()) == reference.names_of(t)
        for v, text in spell.items():
            assert reference.name_at(t, v) == text == name_at(t, v)

    def test_name_at_checks_every_label(self):
        t = compound(Name("x", lbl(1)), Name("a", lbl(2)), Name("b", lbl(2)))
        with pytest.raises(InconsistentLabel):
            name_at(t, lbl(1))


class TestLabelsOf:
    def test_constant_has_none(self):
        assert labels_of(Const(0)) == frozenset()

    def test_duplicate_label_counted_once(self):
        t = compound(Name("a", lbl(7)), Name("a", lbl(7)))
        assert labels_of(t) == {lbl(7)}

    def test_provenance_preserved(self):
        t = compound(Name("a", lbl(1)), Name("b", lbl(2, synth=True)))
        got = {v.id: v.provenance for v in labels_of(t)}
        assert got == {1: Provenance.SOURCE, 2: Provenance.SYNTHESIZED}


class TestRename:
    def test_empty_renaming_is_identity_object(self):
        t = compound(Name("x", lbl(1)), Const(3))
        assert rename(t, {}) is t

    def test_respells_only_mapped_labels(self):
        t = compound(Name("x", lbl(1)), Name("x", lbl(2)))
        out = rename(t, {lbl(1): "y"})
        assert out == compound(Name("y", lbl(1)), Name("x", lbl(2)))

    @given(consistent_terms(), renamings)
    def test_preserves_structure_and_labels(self, t, pi):
        out = rename(t, pi)
        assert label_equiv(out, t)
        assert labels_of(out) == labels_of(t)

    @given(consistent_terms(), renamings)
    def test_idempotent(self, t, pi):
        assert rename(rename(t, pi), pi) == rename(t, pi)

    def test_disjoint_renaming_returns_same_object(self):
        t = compound(Name("x", lbl(1)))
        assert rename(t, {lbl(9): "y"}) is t


class TestLabelEquiv:
    def test_ignores_spelling(self):
        t1 = compound(Name("x", lbl(1)), Name("y", lbl(2)))
        t2 = compound(Name("a", lbl(1)), Name("b", lbl(2)))
        assert label_equiv(t1, t2)

    def test_label_mismatch(self):
        assert not label_equiv(Name("x", lbl(1)), Name("x", lbl(2)))

    @given(consistent_terms())
    def test_reflexive(self, t):
        assert label_equiv(t, t)

    @given(consistent_terms(), consistent_terms())
    def test_symmetric(self, a, b):
        assert label_equiv(a, b) == label_equiv(b, a)

    @settings(max_examples=50)
    @given(consistent_terms(), renamings, renamings)
    def test_transitive_through_renames(self, t, pi1, pi2):
        a, b = rename(t, pi1), rename(t, pi2)
        assert label_equiv(a, t) and label_equiv(t, b)
        assert label_equiv(a, b)


class TestMark:
    def test_flips_matching_names(self):
        t = compound(Name("it", lbl(1)), Name("x", lbl(2)))
        out = mark("it", t)
        assert labels_of(out) == {lbl(1), lbl(2)}
        found = {n.text: n.label.provenance for n in [out.children[0], out.children[1]]}
        assert found["it"] is Provenance.SYNTHESIZED
        assert found["x"] is Provenance.SOURCE

    def test_absent_name_is_identity(self):
        t = compound(Name("x", lbl(1)))
        assert mark("zzz", t) is t

    def test_single_node(self):
        out = mark("x", Name("x", lbl(5)))
        assert out.label.provenance is Provenance.SYNTHESIZED
        assert out.label.id == 5
