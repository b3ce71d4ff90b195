"""The labels a parse gives its names: fresh ids in token order, each parse
continuing right after the one before, pinned ids reserved before any fresh
one, and disjoint labels for parses that run at the same time."""

import sys
import threading

import pytest

from namefix import lam, simpl, statemachine, term
from namefix.term import iter_names

# parser, source whose names are all unpinned, in token order as iter_names meets them
PROGRAMS = [
    (simpl.parse_simpl, "fun f(x, y) = let z = x + y in g(z, y);\nf(1, w)"),
    (lam.parse_lambda, "\\x. \\y. x (y z) + w"),
    (statemachine.parse_stm, "state a\n  go => b\nstate b\n  go => a\n"),
]
IDS = ["spl", "lam", "stm"]


@pytest.fixture
def session(monkeypatch):
    """A session counter of this test's own, starting at 1."""
    monkeypatch.setattr(term, "_SESSION", term._Counter(1))


def ids(t):
    return [n.label.id for n in iter_names(t)]


@pytest.mark.parametrize("parse, src", PROGRAMS, ids=IDS)
def test_fresh_ids_follow_the_tokens_and_the_parse_before(session, parse, src):
    first = ids(parse(src))
    assert first == list(range(1, len(first) + 1))
    assert ids(parse(src)) == list(range(len(first) + 1, 2 * len(first) + 1))


# source with pins, for each of PROGRAMS, and the ids its names get
PINNED = [
    # the largest pin, 50, is reserved before the fresh f and x are made
    ("fun f(x) = x + y@40;\nf(x@'50)", [51, 52, 53, 40, 54, 50]),
    ("\\x. x@9 y", [10, 9, 11]),
    ("state a\n  go => b@7\n", [8, 7]),
]


@pytest.mark.parametrize("program, pinned", zip(PROGRAMS, PINNED), ids=IDS)
def test_pinned_ids_are_reserved_before_any_fresh_id(session, program, pinned):
    parse, src = program
    pinned_src, expected = pinned
    assert ids(parse(pinned_src)) == expected
    assert min(ids(parse(src))) == max(expected) + 1


@pytest.mark.parametrize("parse, src", PROGRAMS, ids=IDS)
def test_ids_after_a_failed_parse_are_new(session, parse, src):
    before = ids(parse(src))
    with pytest.raises(term.ParseError):
        parse(src + " $")
    after = ids(parse(src))
    assert min(after) > max(before)


def test_parses_at_the_same_time_get_disjoint_labels(session):
    """The session counter is safe under concurrent calls: parses in six
    threads, two per front end, hand out no id twice."""
    threads_per_parser, parses = 2, 150
    jobs = [(parse, src) for parse, src in PROGRAMS for _ in range(threads_per_parser)]
    found: list[list[int]] = [[] for _ in jobs]
    barrier = threading.Barrier(len(jobs))

    def work(k: int) -> None:
        parse, src = jobs[k]
        barrier.wait(timeout=30)
        for _ in range(parses):
            found[k].extend(ids(parse(src)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    names_per_parse = [len(ids(parse(src))) for parse, src in jobs]
    assert [len(f) for f in found] == [n * parses for n in names_per_parse]
    every = [i for f in found for i in f]
    assert len(set(every)) == len(every)
