"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces the public entry points of each layer with
wrappers that time every call; `uninstall()` puts the originals back. Each
span knows its parent (the innermost span open when it started), so a
layer's self time is its duration minus the time covered by its children.
Spans are folded into per-layer totals as they close instead of being kept
one by one: a `lam-small` run makes millions of them.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable

import namefix
from namefix import cli, fix, graph, lam, simpl, statemachine, term
from namefix.graph import NameGraph, Resolver

MODULES = (namefix, term, graph, fix, simpl, statemachine, lam, cli)

# (span name, owner, attribute). Self-recursive functions are wrapped only
# where other modules call them, so one span covers one outer call.
FUNCTIONS = (
    ("term.name_at", term, "name_at"),
    ("term.rename", term, "rename"),
    ("term.labels_of", term, "labels_of"),
    ("fix.name_fix", fix, "name_fix"),
    ("fix.find_capture", fix, "find_capture"),
    ("fix.comp_renaming", fix, "comp_renaming"),
    ("simpl.parse", simpl, "parse_simpl"),
    ("simpl.parse", simpl, "parse_simpl_exp"),
    ("simpl.resolve", simpl, "resolve_simpl"),
    ("simpl.transform", simpl, "subst_prog"),
    ("simpl.transform", simpl, "inline"),
    ("simpl.transform", simpl, "lambda_lift"),
    ("simpl.pretty", simpl, "pretty_simpl"),
    ("statemachine.parse", statemachine, "parse_stm"),
    ("statemachine.resolve", statemachine, "resolve_machine"),
    ("statemachine.compile", statemachine, "compile_machine"),
    ("lam.resolve", lam, "resolve_lambda"),
    ("lam.pretty", lam, "pretty_lambda"),
    ("cli.main", cli, "main"),
)
RECURSIVE = {(term, "rename")}
METHODS = (
    ("graph.counts_as_source", NameGraph, "counts_as_source"),
    ("graph.bindings", NameGraph, "bindings"),
)
RESOLVE_SPANS = {"simpl.resolve", "statemachine.resolve", "lam.resolve"}

CAPTURE_COUNTERS = {
    fix.CaptureKind.SOURCE_REBOUND: "fix.captures.source_rebound",
    fix.CaptureKind.SOURCE_FREE_CAPTURED: "fix.captures.free_captured",
    fix.CaptureKind.SYNTHESIZED_CAPTURED: "fix.captures.synthesized_captured",
}


class Tracer:
    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        # Sizes and repair outcomes read off the values the layers return.
        self.counts: Counter[str] = Counter()
        self._open: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        open_spans = self._open
        self_s, calls = self.self_s, self.calls
        observe = self._observer(name)
        clock = time.perf_counter

        def span(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_spans.pop()
                self_s[name] += duration - children[0]
                calls[name] += 1
                if open_spans:
                    open_spans[-1][0] += duration
            if observe is not None:
                observe(result)
            return result

        return span

    def _observer(self, name: str) -> Callable | None:
        if name in RESOLVE_SPANS:
            def edges(g: NameGraph) -> None:
                self.counts["graph.edges"] += len(g.edges)
            return edges
        if name == "fix.name_fix":
            def repair(result: fix.FixResult) -> None:
                self.counts["fix.rounds"] += len(result.trace.steps)
                for step in result.trace.steps:
                    self.counts["fix.renamed_labels"] += len(step.renaming.pi_src) + len(step.renaming.pi_syn)
                    for edge in step.capture.edges:
                        self.counts[CAPTURE_COUNTERS[edge.kind]] += 1
            return repair
        return None

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        _setattr(owner, attr, value)

    def install(self) -> None:
        wrappers: dict[int, Callable] = {}
        skip: set[tuple[int, int]] = set()
        for name, owner, attr in FUNCTIONS:
            fn = getattr(owner, attr)
            wrappers[id(fn)] = self._wrap(name, fn)
            if (owner, attr) in RECURSIVE:
                skip.add((id(owner), id(fn)))
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and (id(module), id(value)) not in skip:
                    self._set(module, attr, wrappers[id(value)])
        resolvers = {id(v): v for m in MODULES for v in vars(m).values() if isinstance(v, Resolver)}
        for r in resolvers.values():
            self._set(r, "resolve", wrappers[id(r.resolve)])
        for language in cli._LANGUAGES.values():
            for attr in ("parse", "pretty"):
                wrapper = wrappers.get(id(getattr(language, attr)))
                if wrapper is not None:
                    self._set(language, attr, wrapper)
        for name, cls, attr in METHODS:
            self._set(cls, attr, self._wrap(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            _setattr(owner, attr, value)


def _setattr(owner: object, attr: str, value: object) -> None:
    # Resolver is a frozen dataclass.
    if isinstance(owner, Resolver):
        object.__setattr__(owner, attr, value)
    else:
        setattr(owner, attr, value)
