"""Which `@digits` of a source text pin a label: only those of its name
tokens. An `@digits` in a `.spl` string or a `.stm` comment reserves no id,
and every parse takes the fresh ids of its unpinned names as one block."""

import random

import pytest

from namefix import lam, simpl, statemachine, term
from namefix.term import iter_names

import gen


class CountingCounter(term._Counter):
    """A session counter starting at 1 that counts how it is asked for ids."""

    def __init__(self) -> None:
        super().__init__(1)
        self.calls = {"next_id": 0, "take": 0}

    def next_id(self) -> int:
        self.calls["next_id"] += 1
        return super().next_id()

    def take(self, count: int, after: int = 0) -> int:
        self.calls["take"] += 1
        return super().take(count, after)


@pytest.fixture
def session(monkeypatch):
    counter = CountingCounter()
    monkeypatch.setattr(term, "_SESSION", counter)
    return counter


def ids(t):
    return [n.label.id for n in iter_names(t)]


# parser, a program, and the same program with an `@digits` that is no pin
NO_PINS = [
    (simpl.parse_simpl_exp, 'let s = "x" in s', 'let s = "x@1000000" in s'),
    (simpl.parse_simpl, 'fun f(x) = x + g("y");\nf(1)', "fun f(x) = x + g(\"y@'7 z@80\");\nf(1)"),
    (
        statemachine.parse_stm,
        "state a\n  go => b\nstate b\n",
        "state a // see b@900000\n  go => b // and a@'3\n// c@12\nstate b\n",
    ),
]


@pytest.mark.parametrize("parse, plain, commented", NO_PINS, ids=["spl-exp", "spl", "stm"])
def test_an_at_sign_in_a_string_or_comment_is_no_pin(session, parse, plain, commented):
    first = ids(parse(commented))
    assert first == list(range(1, len(first) + 1))
    assert ids(parse(plain)) == list(range(len(first) + 1, 2 * len(first) + 1))


def pin_free_programs():
    """Generated pin-free sources of each language, with their parser."""
    rng = random.Random(0)
    for _ in range(30):
        yield simpl.parse_simpl, gen.gen_simpl_source(rng, closed=rng.random() < 0.5)
        yield lam.parse_lambda, lam.pretty_lambda(gen.gen_lambda(rng))
        yield statemachine.parse_stm, gen.gen_machine_source(rng)
    yield statemachine.parse_stm, gen.gen_dispatch_clash_machine(rng, 800)


def test_pin_free_programs_number_their_names_in_token_order(monkeypatch):
    """Each parse takes one block of ids, right after the parse before, and
    hands it out in token order; no name asks for an id of its own."""
    programs = list(pin_free_programs())  # gen_lambda labels its terms from the session
    session = CountingCounter()
    monkeypatch.setattr(term, "_SESSION", session)
    after = 0
    for parse, src in programs:
        assert "@" not in src
        found = ids(parse(src))
        assert found == list(range(after + 1, after + len(found) + 1)), src
        after += len(found)
    assert session.calls == {"next_id": 0, "take": 91}


def test_stm_pins_of_name_fields_are_reserved(session):
    assert ids(statemachine.parse_stm("state a // b@99\n  go => b@'40\nstate b@7\n")) == [41, 40, 7]
