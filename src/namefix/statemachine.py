"""A tiny state-machine description language and its compiler.

A machine is a list of states, each with event-labeled transitions to other
states. The compiler targets the procedural language: per state one constant
function and one dispatch function, plus a main dispatch, linked purely by a
naming convention. The final repair pass makes the convention safe against
clashing state names.
"""

from __future__ import annotations

import re
from typing import Iterator, Sequence

from . import term
from .fix import name_fix
from .graph import Bind, Resolver
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
    E,
    Compound,
    Const,
    LabelAllocator,
    Name,
    NameFactory,
    Pairs,
    PinError,
    Term,
    compound,
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

class ParseError(term.ParseError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"{message} (line {line})")
        self.line = line


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*(?:@'?\d+)?$")


def parse_stm(src: str) -> Compound:
    """Line-oriented: `state <name>` headers, `<event> => <target>`
    transitions, optional trailing `end`.

    The lines are read up to the first that does not parse, and then their
    names are made, so the unpinned names take one block of ids and only
    the pins of name fields are reserved, not those of comments. Errors are
    raised in line order all the same."""
    # (line number, name text, event): a state header has no event
    fields: list[tuple[int, str, str | None]] = []
    error = None  # the message of the first line that does not parse
    ended = False
    for lineno, raw in enumerate(src.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        if ended:
            error = f"input after end: {line!r}"
        elif line == "end":
            ended = True
        elif line.startswith("state "):
            fields.append((lineno, line[len("state "):].strip(), None))
        elif "=>" not in line:
            error = f"cannot parse line {line!r}"
        elif not fields:
            error = "transition before any state"
        else:
            event_text, _, target_text = line.partition("=>")
            event_text = event_text.strip()
            if _IDENT.match(event_text) and "@" not in event_text:
                fields.append((lineno, target_text.strip(), event_text))
            else:
                error = f"invalid event {event_text!r}"
        if error is not None:
            break
    pinned = [text for _, text, _ in fields if "@" in text and _IDENT.match(text)]
    names = NameFactory(len(fields) - len(pinned), pinned)
    states: list[tuple[Name, list[Term]]] = []
    for where, text, event in fields:
        if not _IDENT.match(text):
            raise ParseError(f"invalid name {text!r}", where)
        try:
            name = names.make(text)
        except PinError as exc:
            raise ParseError(str(exc), where) from None
        if event is None:
            states.append((name, []))
        else:
            states[-1][1].append(trans(event, name))
    if error is not None:
        raise ParseError(error, lineno)
    return machine([state(name, transitions) for name, transitions in states])


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

def _machine(m: Compound, env: E, bind: Bind) -> Pairs:
    """Every state's name is a declaration, and every transition target a
    reference in the machine's one scope: all paired in one call, state by
    state."""
    pairs = []
    add = pairs.append
    for s in m.children[1:]:
        c = s.children
        add((c[1], None))
        for t in c[2:]:
            add((t.children[2], env))
    return pairs


# Binding forms (`graph.Scopes`): the machine declares its states, and no
# scope nests, so `bind` goes unused.
SCOPES = {"machine": _machine}


def state_names(m: Term) -> Iterator[Name]:
    """The declared state names of m, visible everywhere."""
    return map(state_name, machine_states(m))


# Flat namespace of state names: a transition target binds to a state of
# equal spelling.
STM_RESOLVER = Resolver("statemachine", scopes=SCOPES, top=state_names)
resolve_machine = STM_RESOLVER.resolve


# ---------------------------------------------------------------------------
# Compilation

def compile_machine(m: Term) -> Compound:
    """Naive compilation to the procedural language.

    Per state: a constant function returning the state's index (the state
    name and its label are reused verbatim) and a dispatch function named
    `<state>-dispatch` mapping events to successor-state calls. A `main`
    function selects the dispatch function for the current state. All
    invented names carry fresh labels; transition targets and state names
    keep their source labels. The fresh ids start after the largest id of
    the state names and transition targets, the machine's only names.
    """
    states = machine_states(m)
    names = [state_name(s) for s in states]
    # per state, its transitions as (event, target)
    arcs = [[(trans_event(t), trans_target(t)) for t in state_transitions(s)] for s in states]
    alloc = LabelAllocator.after([n.label for n in names] + [x.label for ts in arcs for _, x in ts])

    def syn(text: str) -> Name:
        return Name(text, alloc.fresh())

    consts = [fdef(n, (), Const(i)) for i, n in enumerate(names)]

    dispatches = []
    for n, ts in zip(names, arcs):
        event_param = syn("event")
        body: Term = error_call()
        for event, target in reversed(ts):
            body = if_(eq(syn("event"), Const(event)), call(target, ()), body)
        dispatches.append(fdef(syn(f"{n.text}-dispatch"), (event_param,), body))

    state_param = syn("state")
    event_param = syn("event")
    main_body: Term = error_call()
    for n in reversed(names):
        main_body = if_(
            eq(syn("state"), call(n, ())),
            call(syn(f"{n.text}-dispatch"), (syn("event"),)),
            main_body,
        )
    main = fdef(syn("main"), (state_param, event_param), main_body)

    return prog(consts + dispatches + [main], [])


def compile_fixed(m: Term) -> Term:
    """Compile and repair: capture introduced by the naming convention is
    renamed away against the machine's own name graph."""
    return name_fix(resolve_machine(m), compile_machine(m), SIMPL_RESOLVER).term
