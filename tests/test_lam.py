import pytest

import reference
from namefix.lam import ParseError, add, parse_lambda, pretty_lambda
from namefix.term import Compound, Const, Label, Name, Provenance


class TestParsing:
    def test_end_of_input_located_at_its_offset(self):
        with pytest.raises(ParseError) as err:
            parse_lambda("(x y")
        assert err.value.pos == 4
        with pytest.raises(ParseError) as err:
            parse_lambda("\\x.  ")
        assert err.value.pos == 5

    def test_duplicate_pin_located_at_second_use(self):
        with pytest.raises(ParseError) as err:
            parse_lambda(r"\x@701. x@701")
        assert err.value.pos == 8


# Printer corner cases: (source, whether labels are shown, the printed
# text). Each text is also what the parser reads back to a term that
# prints the same.
PRINTED = [
    (r"(\x. x) y", False, r"(\x. x) y"),
    ("f (g x)", False, "f (g x)"),
    ("(a + b) c", False, "(a + b) c"),
    ("(f g) x", False, "f g x"),
    ("f (g x) (h y)", False, "f (g x) (h y)"),
    ("a + (b + c)", False, "a + (b + c)"),
    ("(a + b) + c", False, "a + b + c"),
    ("a + f x", False, "a + f x"),
    (r"a + (\x. x)", False, r"a + (\x. x)"),
    (r"(\x. x) + 1", False, r"(\x. x) + 1"),
    (r"f (\x. x)", False, r"f (\x. x)"),
    (r"\x. \y. x y + (\z. z)", False, r"\x. \y. x y + (\z. z)"),
    (r"(\x. x 1) 2 3", False, r"(\x. x 1) 2 3"),
    (r"\x@'4. x@'5 y@6", True, r"\x@'4. x@'5 y@6"),
    (r"(\x@7. x@8) + z@'9", True, r"(\x@7. x@8) + z@'9"),
]


@pytest.mark.parametrize("src, show_labels, text", PRINTED)
def test_printer_corner_cases(src, show_labels, text):
    assert pretty_lambda(parse_lambda(src), show_labels) == text
    assert pretty_lambda(parse_lambda(text), show_labels) == text
    assert pretty_lambda(parse_lambda(src), show_labels) == reference.pretty_lambda(parse_lambda(src), show_labels)


def test_printer_leaves_and_unknown_tags():
    x = Name("x", Label(3, Provenance.SYNTHESIZED))
    assert (pretty_lambda(x), pretty_lambda(x, show_labels=True)) == ("x", "x@'3")
    assert pretty_lambda(Const(7)) == "7"
    with pytest.raises(ValueError, match=r"^not a lambda term: "):
        pretty_lambda(add(Const(1), Compound((Const("box"), Const(2)))))
