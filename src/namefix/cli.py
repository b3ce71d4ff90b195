"""Command-line front end.

Subcommands cover the bundled transformations (state-machine compilation,
substitution, inlining, lambda lifting) and three diagnostics (name-graph
export, alpha-equivalence check, resolver check). Input language is chosen
by file extension: .stm, .spl, .lam.

Exit codes: 0 success, 1 parse error, 2 I/O or usage error, 3 a check
failed (programs not alpha-equivalent, or the resolver violates its
contract on the input), 4 a resolver broke its contract during repair,
or internal error.

The argument parser is built once per process, when the module is imported,
and every `main` call parses with it: argparse keeps no state between parses
(each gets a fresh Namespace), so a call pays only for its input.

Once its arguments are parsed, a `main` call runs with the cyclic garbage
collector paused, and turns it back on at the end only if it was on when
the call began. A call leaves no cyclic garbage (reference counting frees
everything it makes; `tests/test_cli.py` checks this), so every collection
during a call would scan the call's large trees and find nothing. The
library functions leave the collector alone: a process that calls them
owns its collector.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from . import fix, lam, simpl, statemachine
from .graph import (
    Edge,
    NameGraph,
    Resolver,
    alpha_equiv_relabel,
    check_resolver_assumptions,
    is_bipartite,
    to_dot,
)
from .term import ParseError, Term, spellings

EXIT_PARSE = 1
EXIT_IO = 2
EXIT_CHECK = 3
EXIT_INTERNAL = 4

# `namefix check`: respellings tried per input, and the seed choosing them.
CHECK_TRIALS = 25
CHECK_SEED = 0


@dataclass
class _Language:
    parse: Callable[[str], Term]
    resolver: Resolver
    pretty: Callable[..., str]


_LANGUAGES = {
    ".stm": _Language(
        statemachine.parse_stm, statemachine.STM_RESOLVER, statemachine.pretty_stm
    ),
    ".spl": _Language(simpl.parse_simpl, simpl.SIMPL_RESOLVER, simpl.pretty_simpl),
    ".lam": _Language(lam.parse_lambda, lam.LAMBDA_RESOLVER, lam.pretty_lambda),
}


class CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _language_for(path: Path) -> _Language:
    language = _LANGUAGES.get(path.suffix)
    if language is None:
        raise CliError(
            f"cannot infer language from {path.name!r} "
            f"(expected one of {', '.join(sorted(_LANGUAGES))})",
            EXIT_IO,
        )
    return language


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(str(exc), EXIT_IO) from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 ({exc.reason} at offset {exc.start})", EXIT_IO) from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(str(exc), EXIT_IO) from exc


def _load(path: Path) -> tuple[_Language, Term]:
    language = _language_for(path)
    src = _read(path)
    try:
        return language, language.parse(src)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE) from exc


def _emit_graphs(
    args: argparse.Namespace, source: Term, gs: NameGraph, target: Term, gt: NameGraph,
    steps: tuple[fix.FixStep, ...], capture: fix.CaptureSet,
) -> None:
    """Write the graphs of the source, of the naive target (`gt`, its
    capture dashed) and of each repair round's term, resolved here."""
    base = Path(args.input)
    paths: list[str] = []

    def draw(suffix: str, g: NameGraph, t: Term, title: str, dashed: Iterable[Edge] = ()) -> None:
        paths.append(f"{base}.{suffix}.dot")
        _write(paths[-1], to_dot(g, t, capture=dashed, title=title))

    draw("src", gs, source, "source")
    draw("tgt", gt, target, "target (before repair)", [(e.ref, e.decl) for e in capture.edges])
    for k, step in enumerate(steps, start=1):
        g = simpl.SIMPL_RESOLVER.resolve(step.term)
        draw(f"fix{k}", g, step.term, f"after repair round {k}")
    print("wrote " + ", ".join(paths), file=sys.stderr)


def _run_fixing(
    args: argparse.Namespace, source: Term, gs: NameGraph, target: Term
) -> None:
    """Repair the naive .spl target against the source graph and print it.
    The target's graph, if --no-fix or --emit-graphs needs it, is resolved
    here: repair keeps none."""
    gt = simpl.SIMPL_RESOLVER.resolve(target) if args.no_fix or args.emit_graphs else None
    if args.no_fix:
        result = fix.FixResult(target, fix.FixTrace())
        capture = fix.find_capture(gs, gt)
    else:
        result = fix.name_fix(gs, target, simpl.SIMPL_RESOLVER)
        steps = result.trace.steps
        capture = steps[0].capture if steps else fix.CaptureSet(frozenset())
    if args.trace:
        if result.trace.steps:
            message = result.trace.format()
        elif capture:
            message = f"capture={capture.format()}; repair skipped (--no-fix)"
        else:
            message = "no capture; output unchanged"
        print(message, file=sys.stderr)
    if args.emit_graphs:
        _emit_graphs(args, source, gs, target, gt, result.trace.steps, capture)
    print(simpl.pretty_simpl(result.term, show_labels=args.debug_labels), end="")


def _plain_name(name: str) -> str:
    """name, when it is a plain .spl name; else a usage error."""
    if not simpl.is_plain_name(name):
        raise CliError(f"name: {name!r} is not a plain .spl name", EXIT_IO)
    return name


def _substitute(args: argparse.Namespace, p: Term, gs: NameGraph) -> Term:
    _plain_name(args.name)
    try:
        repl = simpl.parse_simpl_exp(args.replacement)
    except simpl.ParseError as exc:
        raise CliError(f"replacement: {exc}", EXIT_PARSE) from exc
    # A pin shares a label of the program only with its spelling and its
    # provenance there: a term gives each label id one of each.
    pinned = spellings(repl)
    shared = [(v, w) for v in pinned if (w := gs.find(v)) is not None]
    spell = spellings(p) if shared else {}
    for v, w in shared:
        if v.provenance is not w.provenance:
            clash = f"{v.provenance.value} here but {w.provenance.value}"
        elif pinned[v] != spell[v]:
            clash = f"spelled {pinned[v]!r} here but {spell[v]!r}"
        else:
            continue
        raise CliError(f"replacement: label {v!r} is {clash} in {args.input}", EXIT_IO)
    return simpl.subst_prog(p, args.name, repl)


# command -> (source extension, naive transformation of the parsed source
# given its name graph). Every target is a .spl program.
_TRANSFORMS = {
    "compile": (".stm", lambda args, m, gs: statemachine.compile_machine(m)),
    "subst": (".spl", _substitute),
    "inline": (".spl", lambda args, p, gs: simpl.inline_prog(p, _plain_name(args.function), gs)),
    "lift": (".spl", lambda args, p, gs: simpl.lift_prog(p, gs)),
}


def cmd_transform(args: argparse.Namespace) -> None:
    extension, naive = _TRANSFORMS[args.command]
    language, source = _load(Path(args.input))
    if language is not _LANGUAGES[extension]:
        raise CliError(f"{args.command} expects a {extension} input", EXIT_IO)
    gs = language.resolver.resolve(source)
    try:
        target = naive(args, source, gs)
    except simpl.UnknownFunction as exc:
        raise CliError(f"no top-level function named {exc.args[0]!r}", EXIT_IO) from exc
    except simpl.SimplError as exc:
        raise CliError(str(exc), EXIT_IO) from exc
    _run_fixing(args, source, gs, target)


def cmd_graph(args: argparse.Namespace) -> None:
    path = Path(args.input)
    language, p = _load(path)
    g = language.resolver.resolve(p)
    print(to_dot(g, p, title=path.name), end="")


def cmd_alphacheck(args: argparse.Namespace) -> None:
    path1, path2 = Path(args.first), Path(args.second)
    language1, p1 = _load(path1)
    language2, p2 = _load(path2)
    if language1 is not language2:
        raise CliError("alphacheck inputs must share a language", EXIT_IO)
    if alpha_equiv_relabel(p1, p2, language1.resolver):
        print("alpha-equivalent")
    else:
        print("NOT alpha-equivalent")
        raise CliError("programs differ", EXIT_CHECK)


def cmd_check(args: argparse.Namespace) -> None:
    """The preconditions repair rests on, on one input: its name graph is
    bipartite, and the resolver keeps its contract on respellings of it."""
    language, p = _load(Path(args.input))
    g = language.resolver.resolve(p)
    violations = []
    if not is_bipartite(g):
        both = ", ".join(map(repr, sorted(g.references & g.declarations)))
        violations.append(f"graph not bipartite: {both} both reference and declaration")
    report = check_resolver_assumptions(language.resolver, p, CHECK_TRIALS, CHECK_SEED)
    violations += report.violations
    if violations:
        print("\n".join(violations))
        raise CliError(f"{len(violations)} violation(s)", EXIT_CHECK)
    print("ok")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="namefix",
        description="Capture-free program transformations via name-graph repair.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_transform(command: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(command, help=help_text)
        p.add_argument("input", help="input program")
        p.add_argument(
            "--debug-labels",
            action="store_true",
            help="print names with their labels attached",
        )
        p.add_argument(
            "--no-fix",
            action="store_true",
            help="skip capture repair (show the naive output)",
        )
        p.add_argument(
            "--trace",
            action="store_true",
            help="print each repair round to stderr",
        )
        p.add_argument(
            "--emit-graphs",
            action="store_true",
            help="write source/target/repair name graphs as .dot files",
        )
        p.set_defaults(func=cmd_transform)
        return p

    add_transform("compile", "compile a state machine (.stm)")
    p = add_transform("subst", "substitute an expression for a free name")
    p.add_argument("name", help="free name to replace")
    p.add_argument("replacement", help="replacement expression")
    p = add_transform("inline", "inline a top-level function (.spl)")
    p.add_argument("function", help="name of the function to inline")
    add_transform("lift", "lift local functions to the top level (.spl)")

    p = sub.add_parser("graph", help="print a program's name graph as Graphviz")
    p.add_argument("input", help="input program")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("alphacheck", help="compare two programs for alpha-equivalence")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_alphacheck)

    p = sub.add_parser(
        "check", help="check a program's name graph and its resolver's contract"
    )
    p.add_argument("input", help="input program")
    p.set_defaults(func=cmd_check)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        args.func(args)
    except CliError as exc:
        if str(exc):
            print(f"namefix: {exc}", file=sys.stderr)
        return exc.code
    except fix.FixError as exc:
        print(f"namefix: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a defect: report it in one line, not a traceback
        print(f"namefix: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
