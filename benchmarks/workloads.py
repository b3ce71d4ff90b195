"""Seeded inputs and operations of the four benchmark workloads.

Every workload is a fixed list of operations, one *round*. An operation takes
source text (or, for `lam-small`, generated terms) in and returns repaired
program text. The same seed always yields the same inputs, and every round
runs the same operations, so counts per round repeat exactly.

State machines come from the generator below; `.spl` programs and lambda
terms come from the property-suite generators in `tests/gen.py`.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
from namefix import cli, fix, lam, simpl, statemachine
from namefix.term import Term, labels_of

import checks

WORKLOADS = ("stm-clash", "stm-clean", "spl-mix", "lam-small")

STM_CLASH_SIZES = (12, 25, 50, 100, 200)
STM_CLEAN_SIZES = (50, 100, 200, 400, 800)
SPL_SIZES = (25, 50, 100, 200)
# Extra inputs spread through each round. They put the median operation
# inside a group of operations of one kind and size, so which input is the
# median does not depend on the seed. Machines get extras at the second
# size, sixteen of them: a run has only two or three rounds, because the
# largest machine takes seconds, and the median needs many timings. `spl-mix` gets open programs of the smallest size for `subst`, with
# cheaper `inline`/`lift` operations on small closed programs to balance
# them below the median.
STM_EXTRA = 16
SPL_SMALL_EXTRA = 8
SPL_CLOSED_EXTRA = 4
LAM_DEPTHS = (3, 4, 5, 6)
LAM_TERMS_PER_DEPTH = 400

EVENTS = ("go", "stop", "reset", "tick")
STATE_WORDS = ("idle", "open", "closed", "locked", "busy", "ready", "wait", "done")

# The one operation that fails today: the recursive parser and tree walks
# overflow the Python stack on deeply nested input. It does not depend on
# the seed, so it fails on every attempt in every run.
DEEP_LETS = 1000

_KEYWORDS = {"fun", "let", "in", "if", "then", "else", "error"}
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
_FUN = re.compile(r"fun\s+[A-Za-z_][A-Za-z0-9_-]*\s*\(([^)]*)\)")
_LET_VAR = re.compile(r"let\s+(?!fun\b)[A-Za-z_][A-Za-z0-9_-]*\s*=")
_TOP_FUN = re.compile(r"^fun ([A-Za-z_][A-Za-z0-9_-]*)\(", re.M)

# Mean references per function of gen_simpl_source's open and closed
# programs (every reference is bound, so this is also the edge count).
# Programs are drawn until their reference count is within
# _SPL_REF_TOLERANCE of this mean times the function count, because repair
# cost grows with the square of the reference count and would otherwise
# vary widely between seeds.
_SPL_REFS_PER_FDEF = {False: 3.85, True: 4.04}
_SPL_REF_TOLERANCE = 0.02


@dataclass
class Op:
    """One operation of a round.

    `run` is the timed call and returns the output text plus whatever the
    check needs from the call. `check` raises checks.CheckFailed on a wrong
    output. `naive_labels` counts the labels of the naive target program.
    """

    name: str
    size: int
    large: bool
    run: Callable[[], tuple[str, object]]
    check: Callable[[str, object], None]
    naive_labels: Callable[[], int]
    known_failure: bool = False
    # Checks that need only the input, made once per run.
    check_input: Callable[[], None] | None = None
    _labels: int | None = field(default=None, repr=False)

    def labels(self) -> int:
        if self._labels is None:
            self._labels = self.naive_labels()
        return self._labels


def run_cli(argv: list[str]) -> tuple[str, object]:
    """One in-process `namefix` call with stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"namefix {argv[0]} exited with {code}")
    return out.getvalue(), None


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Generate the workload's inputs, write its files, and list its round."""
    if workload == "stm-clash":
        return _stm_ops(seed, workdir, STM_CLASH_SIZES, clash=True)
    if workload == "stm-clean":
        return _stm_ops(seed, workdir, STM_CLEAN_SIZES, clash=False)
    if workload == "spl-mix":
        return _spl_ops(seed, workdir)
    if workload == "lam-small":
        return _lam_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# State machines


@dataclass(frozen=True)
class Machine:
    text: str
    names: tuple[str, ...]
    # (state index, event) -> successor state index
    table: dict[tuple[int, str], int]
    # States every check samples: the clashing state and a state with a
    # transition into it.
    must_sample: tuple[int, ...]


def gen_machine(rng: random.Random, n: int, clash: bool) -> Machine:
    """A machine with n states and exactly two transitions per state.

    With clash=True, one state is spelled like another state's dispatch
    function (`<state>-dispatch`) and at least one transition leads into it,
    so the naive compilation always captures that transition.
    """
    names = [f"{rng.choice(STATE_WORDS)}{i}" for i in range(n)]
    table: dict[tuple[int, str], int] = {}
    for i in range(n):
        for event in rng.sample(EVENTS, 2):
            table[(i, event)] = rng.randrange(n)
    must: tuple[int, ...] = ()
    if clash:
        a, b = rng.sample(range(n), 2)
        names[b] = f"{names[a]}-dispatch"
        pred = rng.randrange(n)
        event = next(e for e in EVENTS if (pred, e) in table)
        table[(pred, event)] = b
        must = (b, pred)
    lines = []
    for i, name in enumerate(names):
        lines.append(f"state {name}")
        for event in EVENTS:
            if (i, event) in table:
                lines.append(f"  {event} => {names[table[(i, event)]]}")
    return Machine("\n".join(lines) + "\n", tuple(names), table, must)


def _stm_ops(seed: int, workdir: Path, sizes: tuple[int, ...], clash: bool) -> list[Op]:
    rng = random.Random(seed)
    ops = [_stm_op(seed, workdir, rng, n, f"machine{n}", n == sizes[-1], clash) for n in sizes]
    n = sizes[1]
    extra = [_stm_op(seed, workdir, rng, n, f"machine{n}-{k}", False, clash) for k in range(STM_EXTRA)]
    return _interleave(extra, ops)


def _stm_op(seed: int, workdir: Path, rng: random.Random, n: int, stem: str, large: bool, clash: bool) -> Op:
    m = gen_machine(rng, n, clash)
    path = workdir / f"{stem}.stm"
    path.write_text(m.text)
    sample_rng = random.Random(f"{seed}/{stem}")
    sample = sorted(set(sample_rng.sample(range(n), min(n, 6))) | set(m.must_sample))

    def naive_labels() -> int:
        return len(labels_of(statemachine.compile_machine(statemachine.parse_stm(m.text))))

    def check(out: str, _: object) -> None:
        checks.check_machine_output(out, m.names, m.table, sample, EVENTS)

    return Op(
        name=f"compile/{n}",
        size=n,
        large=large,
        run=lambda argv=["compile", str(path)]: run_cli(argv),
        check=check,
        naive_labels=naive_labels,
        check_input=None if clash else (lambda: checks.check_clean_identity(m.text)),
    )


def _interleave(extra: list[Op], ops: list[Op]) -> list[Op]:
    """Both lists merged, each kept in order and spread evenly over the
    result, so that repeated small inputs are timed at different moments of
    a round."""
    spread = [((k + 0.5) / len(extra), op) for k, op in enumerate(extra)]
    spread += [((k + 0.5) / len(ops), op) for k, op in enumerate(ops)]
    return [op for _, op in sorted(spread, key=lambda e: e[0])]


# ---------------------------------------------------------------------------
# SIMPL programs


def count_references(src: str) -> int:
    """Name occurrences of a program text that are not declarations."""
    names = sum(1 for t in _IDENT.findall(src) if t not in _KEYWORDS)
    decls = len(_LET_VAR.findall(src))
    for params in _FUN.findall(src):
        decls += 1 + len([q for q in params.split(",") if q.strip()])
    return names - decls


def _typical_size(src: str, n: int, closed: bool) -> bool:
    target = _SPL_REFS_PER_FDEF[closed] * n
    return abs(count_references(src) - target) <= _SPL_REF_TOLERANCE * target


def gen_open_program(rng: random.Random, n: int) -> tuple[str, str, str]:
    """An open program with n functions, the name to substitute for, and
    the replacement expression.

    Exactly n/5 top-level functions share the name the replacement refers
    to, so the substitution needs about n/5 repair rounds, one per shadowed
    duplicate.
    """
    while True:
        src = gen.gen_simpl_source(rng, closed=False, n_fdefs=n)
        tops = _TOP_FUN.findall(src)
        hits = [name for name in gen.NAME_POOL if tops.count(name) == n // 5]
        if not hits or not _typical_size(src, n, closed=False):
            continue
        repl = f"{hits[0]} + 1"
        # The substituted name must occur free, or there is nothing to repair.
        p = simpl.parse_simpl(src)
        printed = simpl.pretty_simpl(p)
        for var in gen.NAME_POOL:
            if var != hits[0] and simpl.pretty_simpl(simpl.subst_prog(p, var, simpl.parse_simpl_exp(repl))) != printed:
                return src, var, repl


def gen_closed_program(rng: random.Random, n: int) -> tuple[str, str, object]:
    """A closed program with n functions, the function to inline, and the
    value of its main expression."""
    while True:
        src = gen.gen_simpl_source(rng, closed=True, n_fdefs=n)
        if not _typical_size(src, n, closed=True):
            continue
        calls = {
            name: len(re.findall(rf"(?<![\w-]){re.escape(name)}\(", src)) - 1
            for name in _TOP_FUN.findall(src)
        }
        fname = max(calls, key=lambda k: calls[k])
        if calls[fname] < 1:
            continue
        try:
            value = simpl.eval_simpl(simpl.parse_simpl(src))
        except simpl.SimplError:
            continue
        return src, fname, value


def deep_let_source(depth: int = DEEP_LETS) -> str:
    """`let x0 = y in let x1 = x0 + 1 in ... in x<depth-1>`, parenthesized
    the way gen_simpl_source writes lets."""
    parts = ["(let x0 = y in "]
    parts += [f"(let x{i} = x{i - 1} + 1 in " for i in range(1, depth)]
    return "".join(parts) + f"x{depth - 1}" + ")" * depth + "\n"


def _spl_ops(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    small = SPL_SIZES[0]
    ops: list[Op] = []
    for n in SPL_SIZES:
        ops.append(_open_op(rng, workdir, n, f"open{n}", n == SPL_SIZES[-1]))
        ops += _closed_ops(rng, workdir, n, f"closed{n}")
    extra = [_open_op(rng, workdir, small, f"open{small}-{k}", False) for k in range(SPL_SMALL_EXTRA)]
    for k in range(SPL_CLOSED_EXTRA):
        extra += _closed_ops(rng, workdir, small, f"closed{small}-{k}")

    path = workdir / "deep.spl"
    path.write_text(deep_let_source())
    ops.append(
        Op(
            name=f"subst/deep{DEEP_LETS}",
            size=DEEP_LETS,
            large=False,
            run=lambda argv=["subst", str(path), "y", "2"]: run_cli(argv),
            check=lambda out, _: checks.check_tokens(out, deep_let_source().replace("= y ", "= 2 ", 1)),
            naive_labels=lambda: 2 * DEEP_LETS + 1,
            known_failure=True,
        )
    )
    return _interleave(extra, ops)


def _open_op(rng: random.Random, workdir: Path, n: int, stem: str, large: bool) -> Op:
    src, var, repl = gen_open_program(rng, n)
    path = workdir / f"{stem}.spl"
    path.write_text(src)

    def naive_labels() -> int:
        p = simpl.parse_simpl(src)
        return len(labels_of(simpl.subst_prog(p, var, simpl.parse_simpl_exp(repl))))

    return Op(
        name=f"subst/open{n}",
        size=n,
        large=large,
        run=lambda argv=["subst", str(path), var, repl]: run_cli(argv),
        check=lambda out, _: checks.check_subst_output(src, var, repl, out),
        naive_labels=naive_labels,
    )


def _closed_ops(rng: random.Random, workdir: Path, n: int, stem: str) -> list[Op]:
    src, fname, value = gen_closed_program(rng, n)
    path = workdir / f"{stem}.spl"
    path.write_text(src)
    return [
        Op(
            name=f"{kind}/closed{n}",
            size=n,
            large=False,
            run=lambda argv=argv: run_cli(argv),
            check=lambda out, _: checks.check_same_value(out, value),
            naive_labels=lambda api=api: len(labels_of(api(simpl.parse_simpl(src)))),
        )
        for kind, argv, api in (
            ("inline", ["inline", str(path), fname], lambda p: simpl.inline(p, fname)),
            ("lift", ["lift", str(path)], simpl.lambda_lift),
        )
    ]


# ---------------------------------------------------------------------------
# Lambda terms


def _lam_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for depth in LAM_DEPTHS:
        for _ in range(LAM_TERMS_PER_DEPTH):
            s = gen.gen_lambda(rng, depth=depth)
            t = gen.mutate_lambda(rng, s)
            ops.append(
                Op(
                    name=f"lam/d{depth}",
                    size=depth,
                    large=False,
                    run=lambda s=s, t=t: _repair_lambda(s, t),
                    check=lambda out, result, s=s, t=t: checks.check_lambda_output(s, t, out, result),
                    naive_labels=lambda t=t: len(labels_of(t)),
                )
            )
    # gen_lambda stops early at random, so depth says little about size:
    # the largest inputs are the quarter of terms with the most labels.
    for op in sorted(ops, key=lambda op: op.labels(), reverse=True)[: len(ops) // 4]:
        op.large = True
    return ops


def _repair_lambda(s: Term, t: Term) -> tuple[str, object]:
    result = fix.name_fix(lam.resolve_lambda(s), t, lam.LAMBDA_RESOLVER)
    return lam.pretty_lambda(result.term), result
