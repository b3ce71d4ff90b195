"""Parse errors of the three front ends: exact messages and locations,
numbers too long to read, deep nesting (no error), and fuzzing (only a
ParseError may escape)."""

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namefix import cli, lam, simpl, statemachine, term
import gen

PARSERS = {
    "spl": (simpl.parse_simpl, simpl.ParseError),
    "spl-exp": (simpl.parse_simpl_exp, simpl.ParseError),
    "lam": (lam.parse_lambda, lam.ParseError),
    "stm": (statemachine.parse_stm, statemachine.ParseError),
}

# parser, source, str(exc), location attributes
TABLE = [
    ("spl", "fun f(x) = x;\nlet y = 1 in $y", "unexpected character '$' (line 2, column 14)", {"line": 2, "col": 14}),
    ("spl", 'let s = "a\nbc" in s $', "unexpected character '$' (line 2, column 10)", {"line": 2, "col": 10}),
    ("spl", 'let s = "a\nbc" in\n  s + )', "expected 'name', found ')' (line 3, column 7)", {"line": 3, "col": 7}),
    ("spl", "fun f(x) = x\nf(1)", "expected ';', found 'f' (line 2, column 1)", {"line": 2, "col": 1}),
    ("spl", "fun f(x) = let y = 1\n", "unexpected end of input (line 1, column 21)", {"line": 1, "col": 21}),
    ("spl", "fun f(x) = x;\nf(1) )", "trailing input ')' (line 2, column 6)", {"line": 2, "col": 6}),
    ("spl-exp", "1 + 2\n  3", "trailing input '3' (line 2, column 3)", {"line": 2, "col": 3}),
    ("spl", "fun f@1(x) = \n  f@1(x);", "pinned label id 1 used twice (line 2, column 3)", {"line": 2, "col": 3}),
    ("lam", "\\x. x\ny$", "unexpected character '$' (at offset 7)", {"pos": 7}),
    ("lam", "\\x y. x", "expected '.', found 'y' (at offset 3)", {"pos": 3}),
    ("lam", "(x y\n", "unexpected end of input (at offset 5)", {"pos": 5}),
    ("lam", "x (\\y. y)\n z )", "trailing input ')' (at offset 13)", {"pos": 13}),
    ("lam", "\\x@9. x@9", "pinned label id 9 used twice (at offset 6)", {"pos": 6}),
    ("stm", "state a\n  go => b\nstate b\n  go = a\n", "cannot parse line 'go = a' (line 4)", {"line": 4}),
    ("stm", "state a\n  go => b\n\nstate a b\n", "invalid name 'a b' (line 4)", {"line": 4}),
    ("stm", "state a\nend\nstate b\n", "input after end: 'state b' (line 3)", {"line": 3}),
    ("stm", "  go => a\nstate a\n", "transition before any state (line 1)", {"line": 1}),
    ("stm", "state a@3\nstate b@3\n", "pinned label id 3 used twice (line 2)", {"line": 2}),
    ("spl-exp", "let@5 x = 1 in x", "pinned keyword 'let@5' (line 1, column 1)", {"line": 1, "col": 1}),
    ("spl", "fun@9 f(x) = x;", "pinned keyword 'fun@9' (line 1, column 1)", {"line": 1, "col": 1}),
    ("spl", "fun f(x) = x;\nlet y = 1 in@'3 y", "pinned keyword \"in@'3\" (line 2, column 11)", {"line": 2, "col": 11}),
    ("spl-exp", "if x then y else@2 z $", "pinned keyword 'else@2' (line 1, column 13)", {"line": 1, "col": 13}),
    ("spl-exp", "$ let@5 x = 1 in x", "unexpected character '$' (line 1, column 1)", {"line": 1, "col": 1}),
]


@pytest.mark.parametrize(
    "parser, src, message, location", TABLE, ids=[f"{row[0]}-{k}" for k, row in enumerate(TABLE)]
)
def test_error_message_and_location(parser, src, message, location):
    parse, error = PARSERS[parser]
    with pytest.raises(error) as err:
        parse(src)
    assert str(err.value) == message
    assert {k: getattr(err.value, k) for k in location} == location


def test_language_errors_share_one_base():
    for _, error in PARSERS.values():
        assert issubclass(error, term.ParseError)


LONG = "9" * 4400  # more digits than int() converts


@pytest.mark.parametrize(
    "parser, src, message, location",
    [
        ("spl", f"fun f(x) = x + {LONG};", "integer literal too long (4400 digits) (line 1, column 16)", {"line": 1, "col": 16}),
        ("spl-exp", f"let x@{LONG} = 1 in x", "pinned label id too long (4400 digits) (line 1, column 5)", {"line": 1, "col": 5}),
        ("lam", f"\\x. x {LONG}", "integer literal too long (4400 digits) (at offset 6)", {"pos": 6}),
        ("lam", f"\\x@{LONG}. x", "pinned label id too long (4400 digits) (at offset 1)", {"pos": 1}),
        ("stm", f"state a\n  go => b@{LONG}\n", "pinned label id too long (4400 digits) (line 2)", {"line": 2}),
    ],
    ids=["spl-int", "spl-pin", "lam-int", "lam-pin", "stm-pin"],
)
def test_too_many_digits(parser, src, message, location):
    test_error_message_and_location(parser, src, message, location)


def test_too_many_digits_in_a_string_is_no_pin():
    assert simpl.parse_simpl_exp(f'"x@{LONG}"') == term.Const(f"x@{LONG}")


PRINTERS = {
    "spl": simpl.pretty_simpl,
    "spl-exp": simpl.pretty_simpl,
    "lam": lam.pretty_lambda,
}


def same_up_to_labels(t1, t2):
    return term.lockstep(t1, t2, lambda a, b: a.text == b.text)


@pytest.mark.parametrize(
    "parser, src",
    [
        ("spl", "fun f(x) = " + "(" * 5000 + "x" + ")" * 5000 + ";"),
        ("spl-exp", "let x = " * 5000 + "1" + " in x" * 5000),
        ("lam", "\\x. " + "(" * 5000 + "x" + ")" * 5000),
        # one "(" on each line
        ("spl", "fun f(x) =\n" + "(\n" * 5000 + "x" + ")" * 5000 + ";"),
        ("spl-exp", "!(1 + 2 * " * 5000 + "x" + ")" * 5000),
        ("spl-exp", "f(1, " * 5000 + "x" + ")" * 5000),
        ("lam", "(f (\\x. " * 5000 + "x" + "))" * 5000),
    ],
    ids=["spl", "spl-exp", "lam", "spl-lines", "spl-operands", "spl-calls", "lam-operands"],
)
def test_deep_nesting(parser, src):
    """Parenthesised and operand nesting 5,000 deep parses, as the parsers
    keep their own stack; the term prints, and reads back as itself."""
    parse = PARSERS[parser][0]
    t = parse(src)
    assert same_up_to_labels(parse(PRINTERS[parser](t)), t)


@pytest.mark.parametrize(
    "parser, src, message, location",
    [
        ("spl", "fun f(x) =\n" + "(\n" * 5000 + "x +" + ")" * 5000 + ";",
         "expected 'name', found ')' (line 5002, column 4)", {"line": 5002, "col": 4}),
        ("lam", "\\x. " + "(" * 5000 + "x +" + ")" * 5000,
         "unexpected token ')' (at offset 5007)", {"pos": 5007}),
    ],
    ids=["spl", "lam"],
)
def test_error_inside_deep_nesting_is_located_at_its_token(parser, src, message, location):
    test_error_message_and_location(parser, src, message, location)


@pytest.mark.parametrize(
    "parser, src",
    [
        ("spl-exp", "let x = 1 in " * 5000 + "x"),
        ("spl-exp", "let fun f(a) = a in " * 5000 + "f(1)"),
        ("spl-exp", "if x then 1 else " * 5000 + "2"),
        ("spl-exp", "!" * 5000 + "x"),
        ("lam", "\\x. " * 5000 + "x"),
    ],
    ids=["let", "letfun", "else-if", "not", "lam"],
)
def test_right_nested_chains_parse_at_any_depth(parser, src):
    """Chains are parsed in a loop, not by recursion: 5,000 levels parse,
    and print back as they were written."""
    assert PRINTERS[parser](PARSERS[parser][0](src)) == src


def test_lam_unexpected_character_located_at_itself():
    with pytest.raises(lam.ParseError) as err:
        lam.parse_lambda("\\x. x\n  y $")
    assert (str(err.value), err.value.pos) == ("unexpected character '$' (at offset 10)", 10)


# The tokens of generated programs, spelled as the front ends scan them.
GENERATED_TOKEN = {
    "spl": re.compile(r"[A-Za-z_][A-Za-z0-9_-]*(?:@'?\d+)?|\d+|==|\S"),
    "lam": re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:@'?\d+)?|\d+|\S"),
}


def generated_programs():
    """Seeded .spl programs and printed lambda terms, with and without labels."""
    rng = random.Random(11)
    for k in range(6):
        src = gen.gen_simpl_source(rng, closed=bool(k % 2))
        yield "spl", src
        yield "spl", simpl.pretty_simpl(simpl.parse_simpl(src), show_labels=True)
        t = gen.gen_lambda(rng, depth=5)
        yield "lam", lam.pretty_lambda(t)
        yield "lam", lam.pretty_lambda(lam.parse_lambda(lam.pretty_lambda(t)), show_labels=True)


def position(parser, src, offset):
    """Where an error at `offset` of `src` is located, computed from the text."""
    if parser == "lam":
        return offset
    lines = src[:offset].split("\n")
    return len(lines), len(lines[-1]) + 1


def located(parser, exc):
    return exc.pos if parser == "lam" else (exc.line, exc.col)


GENERATED = list(generated_programs())


@pytest.mark.parametrize("parser, src", GENERATED, ids=[f"{p}-{k}" for k, (p, _) in enumerate(GENERATED)])
def test_error_at_every_token_is_located_there(parser, src):
    """Token k replaced by `$` is an error at its start; the text cut after
    token k, unless it parses, runs out of input at its end."""
    parse, error = PARSERS[parser]
    tokens = list(GENERATED_TOKEN[parser].finditer(src))
    assert tokens
    for m in tokens:
        with pytest.raises(error) as err:
            parse(src[: m.start()] + "$" + src[m.end() :])
        assert str(err.value).startswith("unexpected character '$' (")
        assert located(parser, err.value) == position(parser, src, m.start())
        try:
            parse(src[: m.end()])
        except error as exc:
            assert str(exc).startswith("unexpected end of input (")
            assert located(parser, exc) == position(parser, src, m.end())


# Token spellings per language; joined without separators they also make
# longer names, numbers and keyword prefixes.
TOKENS = {
    "spl": [
        "fun", "let", "in", "if", "then", "else", "error", "==", "=", ";", "(", ")", ",",
        "+", "*", "!", "0", "42", '"s"', '"a\\"b\n"', "x", "f", "x@1", "f@'2", "-", "@", " ", "\n",
    ],
    "lam": ["\\", ".", "+", "(", ")", "x", "y", "x@3", "y@'4", "0", "7", "@", "'", " ", "\n"],
    "stm": [
        "state ", "end", "=>", "//", "go", "a", "b", "a@5", "b@'6", "a-b", "@", "-", " ", "\t", "\n",
    ],
}
TOKENS["spl-exp"] = TOKENS["spl"]


def _parses_or_raises_parse_error(parser, src):
    parse, error = PARSERS[parser]
    try:
        parse(src)
    except error:
        pass


@pytest.mark.parametrize("parser", PARSERS)
@settings(max_examples=100, deadline=None)
@given(src=st.text(max_size=40))
def test_fuzz_arbitrary_text(parser, src):
    _parses_or_raises_parse_error(parser, src)


@pytest.mark.parametrize("parser", PARSERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_token_text(parser, data):
    src = "".join(data.draw(st.lists(st.sampled_from(TOKENS[parser]), max_size=30)))
    _parses_or_raises_parse_error(parser, src)


# Ids at least this long could not be printed, nor could the fresh ids the
# session counter hands out after them.
PIN_LIMIT = sys.get_int_max_str_digits()

# parser, source with a pin of `digits` digits, printer, location of the pin
PINNED = [
    ("spl", "fun f(x@{}) = let fun g(y) = y + x in g(1);\nf(2)", simpl.pretty_simpl, {"line": 1, "col": 7}),
    ("lam", "\\x@{}. x y", lam.pretty_lambda, {"pos": 1}),
    ("stm", "state a\n  go => a@{}\n", statemachine.pretty_stm, {"line": 2}),
]


@pytest.fixture
def session(monkeypatch):
    """A session counter of this test's own: a long pin moves the counter
    for every later parse in the process."""
    monkeypatch.setattr(term, "_SESSION", term._Counter(term._SESSION.next_id()))


@pytest.mark.parametrize("parser, src, pretty, location", PINNED, ids=[row[0] for row in PINNED])
def test_pin_too_long_to_print_after(session, parser, src, pretty, location):
    parse, error = PARSERS[parser]
    with pytest.raises(error) as err:
        parse(src.format("9" * PIN_LIMIT))
    assert str(err.value).startswith(f"pinned label id too long ({PIN_LIMIT} digits) (")
    assert {k: getattr(err.value, k) for k in location} == location
    shorter = "9" * (PIN_LIMIT - 1)
    assert f"@{shorter}" in pretty(parse(src.format(shorter)), show_labels=True)


def test_pin_too_long_to_print_after_is_exit_1(session, tmp_path, capsys):
    p = tmp_path / "p.spl"
    p.write_text(PINNED[0][1].format("9" * PIN_LIMIT))
    assert cli.main(["lift", "--debug-labels", str(p)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err == f"namefix: {p}: pinned label id too long ({PIN_LIMIT} digits) (line 1, column 7)\n"
    p.write_text(PINNED[0][1].format("9" * (PIN_LIMIT - 1)))
    assert cli.main(["lift", "--debug-labels", str(p)]) == 0
