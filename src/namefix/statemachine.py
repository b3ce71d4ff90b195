"""A tiny state-machine description language and its compiler.

A machine is a list of states, each with event-labeled transitions to other
states. The compiler targets the procedural language: per state one constant
function and one dispatch function, plus a main dispatch, linked purely by a
naming convention. The final repair pass makes the convention safe against
clashing state names.
"""

from __future__ import annotations

import re
from typing import Sequence

from .fix import name_fix
from .graph import NameGraph, Resolver, pick_declaration
from .simpl import (
    SIMPL_RESOLVER,
    call,
    eq,
    error_call,
    fdef,
    if_,
    prog,
)
from .term import (
    Compound,
    Const,
    DuplicatePin,
    Label,
    LabelAllocator,
    Name,
    NameFactory,
    Term,
    compound,
    labels_of,
    show_name,
)

MACHINE = Const("machine")
STATE = Const("state")
TRANS = Const("trans")


def machine(states: Sequence[Term]) -> Compound:
    return compound(MACHINE, *states)


def state(name: Name, transitions: Sequence[Term]) -> Compound:
    return compound(STATE, name, *transitions)


def trans(event: str, target: Name) -> Compound:
    return compound(TRANS, Const(event), target)


def machine_states(m: Term) -> tuple[Compound, ...]:
    assert isinstance(m, Compound)
    return m.children[1:]  # type: ignore[return-value]


def state_name(s: Term) -> Name:
    assert isinstance(s, Compound)
    return s.children[1]  # type: ignore[return-value]


def state_transitions(s: Term) -> tuple[Compound, ...]:
    assert isinstance(s, Compound)
    return s.children[2:]  # type: ignore[return-value]


def trans_event(t: Term) -> str:
    assert isinstance(t, Compound)
    return t.children[1].value  # type: ignore[union-attr,return-value]


def trans_target(t: Term) -> Name:
    assert isinstance(t, Compound)
    return t.children[2]  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Parsing

class ParseError(Exception):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"{message} (line {line})")
        self.line = line


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*(?:@'?\d+)?$")


def parse_stm(src: str) -> Compound:
    """Line-oriented: `state <name>` headers, `<event> => <target>`
    transitions, optional trailing `end`."""
    names = NameFactory(src)

    def make_name(text: str, lineno: int) -> Name:
        if not _IDENT.match(text):
            raise ParseError(f"invalid name {text!r}", lineno)
        try:
            return names.make(text)
        except DuplicatePin as exc:
            raise ParseError(str(exc), lineno) from None

    states: list[Term] = []
    current: tuple[Name, list[Term]] | None = None
    ended = False
    for lineno, raw in enumerate(src.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        if ended:
            raise ParseError(f"input after end: {line!r}", lineno)
        if line == "end":
            ended = True
            continue
        if line.startswith("state "):
            if current is not None:
                states.append(state(current[0], current[1]))
            current = (make_name(line[len("state "):].strip(), lineno), [])
            continue
        if "=>" in line:
            if current is None:
                raise ParseError("transition before any state", lineno)
            event_text, _, target_text = line.partition("=>")
            event_text = event_text.strip()
            if not _IDENT.match(event_text) or "@" in event_text:
                raise ParseError(f"invalid event {event_text!r}", lineno)
            target = make_name(target_text.strip(), lineno)
            current[1].append(trans(event_text, target))
            continue
        raise ParseError(f"cannot parse line {line!r}", lineno)
    if current is not None:
        states.append(state(current[0], current[1]))
    return machine(states)


def pretty_stm(m: Term, show_labels: bool = False) -> str:
    lines = []
    for s in machine_states(m):
        lines.append(f"state {show_name(state_name(s), show_labels)}")
        for t in state_transitions(s):
            lines.append(f"  {trans_event(t)} => {show_name(trans_target(t), show_labels)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Name resolution

def resolve_machine(m: Term) -> NameGraph:
    """Flat namespace of state names. A transition target binds to the state
    of equal spelling; among duplicates the last one wins, unless the
    reference carries the label of one of them."""
    decls: dict[str, list[Label]] = {}
    for s in machine_states(m):
        n = state_name(s)
        decls.setdefault(n.text, []).append(n.label)
    edges: set[tuple[Label, Label]] = set()
    for s in machine_states(m):
        for t in state_transitions(s):
            target = trans_target(t)
            candidates = decls.get(target.text)
            if candidates:
                edges.add((target.label, pick_declaration(candidates, target.label)))
    return NameGraph(labels_of(m), edges)


STM_RESOLVER = Resolver("statemachine", resolve_machine)


# ---------------------------------------------------------------------------
# Compilation

def compile_machine(m: Term) -> Compound:
    """Naive compilation to the procedural language.

    Per state: a constant function returning the state's index (the state
    name and its label are reused verbatim) and a dispatch function named
    `<state>-dispatch` mapping events to successor-state calls. A `main`
    function selects the dispatch function for the current state. All
    invented names carry fresh labels; transition targets and state names
    keep their source labels.
    """
    alloc = LabelAllocator.after(m)
    states = machine_states(m)

    def syn(text: str) -> Name:
        return Name(text, alloc.fresh())

    consts = [
        fdef(state_name(s), (), Const(i)) for i, s in enumerate(states)
    ]

    dispatches = []
    for s in states:
        event_param = syn("event")
        body: Term = error_call()
        for t in reversed(state_transitions(s)):
            body = if_(
                eq(syn("event"), Const(trans_event(t))),
                call(trans_target(t), ()),
                body,
            )
        dispatches.append(
            fdef(syn(f"{state_name(s).text}-dispatch"), (event_param,), body)
        )

    state_param = syn("state")
    event_param = syn("event")
    main_body: Term = error_call()
    for s in reversed(states):
        main_body = if_(
            eq(syn("state"), call(state_name(s), ())),
            call(syn(f"{state_name(s).text}-dispatch"), (syn("event"),)),
            main_body,
        )
    main = fdef(syn("main"), (state_param, event_param), main_body)

    return prog(consts + dispatches + [main], [])


def compile_fixed(m: Term) -> Term:
    """Compile and repair: capture introduced by the naming convention is
    renamed away against the machine's own name graph."""
    return name_fix(resolve_machine(m), compile_machine(m), SIMPL_RESOLVER).term
