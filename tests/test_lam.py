import pytest

from namefix.lam import ParseError, parse_lambda


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
