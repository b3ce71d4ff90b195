import argparse
import collections
import gc
import random
from pathlib import Path

import pytest

from namefix import cli, fix, lam, simpl, statemachine, term
from namefix.fix import find_capture, name_fix
from namefix.graph import BindingFrames, NameGraph, Resolver, to_dot
from namefix.term import spellings
from namefix.cli import (
    EXIT_CHECK,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_PARSE,
    main,
)

DOOR = """state opened
  close => closed
state closed
  open => opened
  lock => locked
state locked
  unlock => closed
"""

DOOR_RENAMED = """state opened
  close => closed
state closed
  lock => opened-dispatch
  open => opened
state opened-dispatch
  unlock => closed
"""

# 1,000 parenthesised lets, each initialized from the one before it.
DEEP_LETS = "(let x0 = y in " + "".join(
    f"(let x{i} = x{i - 1} + 1 in " for i in range(1, 1000)
) + "x999" + ")" * 1000 + "\n"

ZERO_SUCC = """fun zero() = 0;
fun succ(x) = let n = 1 in x + n;
let n = x + 5 in succ(succ(n + x + zero()))
"""

OR_AND = """fun or(x, y) = let tmp = x in if tmp == 0 then y else tmp;
fun and(x, y) = !or(!x, !y);
let or = 1 in let tmp = 0 in and(or, tmp)
"""

LOCAL_FNS = """fun f(x) = x + 1;
let y = f(10) in
  let fun f(x) = f(x + y) in
    let fun g(x) = f(y + x + 1) in
      f(1) + g(3)
"""


@pytest.fixture
def door(tmp_path):
    p = tmp_path / "door.stm"
    p.write_text(DOOR)
    return p


@pytest.fixture
def door_renamed(tmp_path):
    p = tmp_path / "door2.stm"
    p.write_text(DOOR_RENAMED)
    return p


class TestCompile:
    def test_clean_machine(self, door, capsys):
        assert main(["compile", str(door)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fun opened() = 0;\n")
        assert "fun main(state, event)" in out

    def test_no_fix_equals_fixed_when_capture_free(self, door, capsys):
        assert main(["compile", str(door)]) == 0
        fixed = capsys.readouterr().out
        assert main(["compile", "--no-fix", str(door)]) == 0
        assert capsys.readouterr().out == fixed

    def test_renamed_machine_repaired(self, door_renamed, capsys):
        assert main(["compile", str(door_renamed)]) == 0
        out = capsys.readouterr().out
        assert "fun opened-dispatch0(event)" in out
        assert "opened-dispatch0(event) else" in out

    def test_renamed_machine_no_fix_shows_capture(self, door_renamed, capsys):
        assert main(["compile", "--no-fix", str(door_renamed)]) == 0
        assert "opened-dispatch0" not in capsys.readouterr().out

    def test_trace_goes_to_stderr(self, door_renamed, door, capsys):
        assert main(["compile", "--trace", str(door_renamed)]) == 0
        captured = capsys.readouterr()
        assert "iteration 1" in captured.err
        assert "iteration" not in captured.out
        assert main(["compile", "--trace", str(door)]) == 0
        assert "no capture" in capsys.readouterr().err

    def test_emit_graphs_writes_dot_files(self, door_renamed, capsys):
        assert main(["compile", "--emit-graphs", str(door_renamed)]) == 0
        base = str(door_renamed)
        for suffix in (".src.dot", ".tgt.dot", ".fix1.dot"):
            text = Path(base + suffix).read_text()
            assert text.startswith("digraph")

    def test_debug_labels(self, door, capsys):
        assert main(["compile", "--debug-labels", str(door)]) == 0
        out = capsys.readouterr().out
        assert "@" in out

    def test_rejects_non_stm(self, tmp_path, capsys):
        p = tmp_path / "x.spl"
        p.write_text("fun f() = 0; f()")
        assert main(["compile", str(p)]) == EXIT_IO


class TestSubst:
    def test_renames_captured_let(self, tmp_path, capsys):
        p = tmp_path / "p.spl"
        p.write_text(ZERO_SUCC)
        assert main(["subst", str(p), "x", "2 * n"]) == 0
        out = capsys.readouterr().out
        assert "let n0 = 2 * n + 5 in succ(succ(n0 + 2 * n + zero()))" in out

    def test_no_fix_keeps_capture(self, tmp_path, capsys):
        p = tmp_path / "p.spl"
        p.write_text(ZERO_SUCC)
        assert main(["subst", "--no-fix", str(p), "x", "2 * n"]) == 0
        assert "n0" not in capsys.readouterr().out

    def test_bad_replacement_is_parse_error(self, tmp_path, capsys):
        p = tmp_path / "p.spl"
        p.write_text("fun f() = 0; x")
        assert main(["subst", str(p), "x", "1 +"]) == EXIT_PARSE

    def test_deep_nesting(self, tmp_path, capsys):
        p = tmp_path / "deep.spl"
        p.write_text(DEEP_LETS)
        assert main(["subst", str(p), "y", "2"]) == 0
        chain = "".join(f"let x{i} = x{i - 1} + 1 in " for i in range(1, 1000))
        assert capsys.readouterr() == (f"let x0 = 2 in {chain}x999\n", "")


class TestInlineAndLift:
    def test_inline(self, tmp_path, capsys):
        p = tmp_path / "p.spl"
        p.write_text(OR_AND)
        assert main(["inline", str(p), "and"]) == 0
        assert "let or0 = 1 in" in capsys.readouterr().out

    def test_inline_unknown_function(self, tmp_path, capsys):
        p = tmp_path / "p.spl"
        p.write_text("fun f() = 0; f()")
        assert main(["inline", str(p), "nope"]) == EXIT_IO
        assert capsys.readouterr() == ("", "namefix: no top-level function named 'nope'\n")

    def test_lift(self, tmp_path, capsys):
        p = tmp_path / "p.spl"
        p.write_text(LOCAL_FNS)
        assert main(["lift", str(p)]) == 0
        out = capsys.readouterr().out
        assert "fun f0(x, y) = f0(x + y, y);" in out
        assert "let fun" not in out

    def test_inline_arity_mismatch(self, tmp_path, capsys):
        p = tmp_path / "p.spl"
        p.write_text("fun f(x) = x;\nfun f(x, y) = x;\nf(1)")
        assert main(["inline", str(p), "f"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("namefix: ")
        assert err.count("\n") == 1


# (command, program, trailing arguments, spelling only the repair introduces)
REPAIRING_TRANSFORMS = [
    ("inline", OR_AND, ["and"], "or0"),
    ("lift", LOCAL_FNS, [], "f0"),
]


@pytest.mark.parametrize(
    "command, src, rest, repaired",
    REPAIRING_TRANSFORMS,
    ids=[case[0] for case in REPAIRING_TRANSFORMS],
)
class TestRepairFlags:
    """inline and lift take the repair flags that compile and subst take."""

    def run(self, tmp_path, command, src, rest, *flags):
        p = tmp_path / "p.spl"
        p.write_text(src)
        return main([command, *flags, str(p), *rest]), p

    def test_no_fix_shows_naive_output(self, tmp_path, capsys, command, src, rest, repaired):
        assert self.run(tmp_path, command, src, rest, "--no-fix")[0] == 0
        assert repaired not in capsys.readouterr().out
        assert self.run(tmp_path, command, src, rest)[0] == 0
        assert repaired in capsys.readouterr().out

    def test_trace_goes_to_stderr(self, tmp_path, capsys, command, src, rest, repaired):
        assert self.run(tmp_path, command, src, rest, "--trace")[0] == 0
        captured = capsys.readouterr()
        assert "iteration 1" in captured.err
        assert "iteration" not in captured.out
        assert repaired in captured.out

    def test_emit_graphs_writes_dot_files(self, tmp_path, capsys, command, src, rest, repaired):
        code, p = self.run(tmp_path, command, src, rest, "--emit-graphs")
        assert code == 0
        for suffix in (".src.dot", ".tgt.dot", ".fix1.dot"):
            assert Path(str(p) + suffix).read_text().startswith("digraph")


def count_resolves(argv):
    """main(argv)'s exit code, how many whole-term resolves it ran, each of
    which builds the term's BindingFrames, whether through a resolver or as
    name_fix's target resolve, and how many repair indexes it built: the
    one walk a repair makes at its first capture, a `LabelIndex`."""
    inits = {cls: cls.__init__ for cls in (BindingFrames, term.LabelIndex)}
    calls = {cls: [] for cls in inits}

    def counting(cls):
        def init(self, t, *rest):
            calls[cls].append(t)
            inits[cls](self, t, *rest)

        return init

    for cls in inits:
        cls.__init__ = counting(cls)
    try:
        return main(argv), len(calls[BindingFrames]), len(calls[term.LabelIndex])
    finally:
        for cls, init in inits.items():
            cls.__init__ = init


def test_emit_graphs_resolves_each_drawn_term(tmp_path, capsys):
    p = tmp_path / "p.spl"
    p.write_text(OR_AND)
    # The source and the naive target: the repair round re-binds the
    # target's references instead of resolving it again, through the one
    # index its capture built.
    assert count_resolves(["inline", str(p), "and"]) == (0, 2, 1)
    # Repair keeps no graph, so the drawing resolves the naive target again
    # and the term of its one round.
    assert count_resolves(["inline", "--emit-graphs", str(p), "and"]) == (0, 4, 1)
    # Without repair, one resolve of the target gives its capture and its
    # file, and nothing builds an index.
    assert count_resolves(["inline", "--no-fix", "--emit-graphs", str(p), "and"]) == (0, 2, 0)


def test_capture_free_compile_resolves_twice_and_builds_no_index(tmp_path, capsys):
    p = tmp_path / "m.stm"
    p.write_text("state idle\n  go => busy\nstate busy\n  stop => idle\n")
    # The machine and its naive compilation; no capture, so no repair index.
    assert count_resolves(["compile", str(p)]) == (0, 2, 0)
    naive = statemachine.compile_machine(statemachine.parse_stm(p.read_text()))
    assert capsys.readouterr().out == simpl.pretty_simpl(naive)


# (command, input extension, fixture, trailing arguments, naive
# transformation of the parsed fixture given its name graph)
EMITTING_TRANSFORMS = [
    ("compile", ".stm", DOOR_RENAMED, [], lambda m, gs: statemachine.compile_machine(m)),
    (
        "subst",
        ".spl",
        ZERO_SUCC,
        ["x", "2 * n@900"],
        lambda p, gs: simpl.subst_prog(p, "x", simpl.parse_simpl_exp("2 * n@900")),
    ),
    ("inline", ".spl", OR_AND, ["and"], lambda p, gs: simpl.inline_prog(p, "and", gs)),
    ("lift", ".spl", LOCAL_FNS, [], lambda p, gs: simpl.lift_prog(p, gs)),
]


@pytest.mark.parametrize("no_fix", [False, True], ids=["fix", "no-fix"])
@pytest.mark.parametrize(
    "command, extension, fixture, rest, naive",
    EMITTING_TRANSFORMS,
    ids=[case[0] for case in EMITTING_TRANSFORMS],
)
def test_emit_graphs_files_are_the_graphs_of_each_stage(
    tmp_path, capsys, command, extension, fixture, rest, naive, no_fix
):
    """Each .dot file is byte for byte the graph, resolved afresh, of the
    source, of the naive target with its capture edges dashed, and of
    every repair round's term."""
    if extension == ".stm":
        parse, resolve, pretty = statemachine.parse_stm, statemachine.resolve_machine, statemachine.pretty_stm
    else:
        parse, resolve, pretty = simpl.parse_simpl, simpl.resolve_simpl, simpl.pretty_simpl
    # Every name pinned to its label, so that the CLI's parse and the one
    # below give the same labels.
    src = pretty(parse(fixture), show_labels=True)
    path = tmp_path / f"p{extension}"
    path.write_text(src)
    flags = ["--emit-graphs"] + (["--no-fix"] if no_fix else [])
    assert main([command, *flags, str(path), *rest]) == 0

    source = parse(src)
    gs = resolve(source)
    target = naive(source, gs)
    gt = simpl.resolve_simpl(target)
    capture = [(e.ref, e.decl) for e in find_capture(gs, gt).edges]
    assert capture  # every case captures, so the target's edges are dashed
    want = {
        ".src.dot": to_dot(gs, source, title="source"),
        ".tgt.dot": to_dot(gt, target, capture=capture, title="target (before repair)"),
    }
    if not no_fix:
        steps = name_fix(gs, target, simpl.SIMPL_RESOLVER).trace.steps
        assert steps
        for k, step in enumerate(steps, start=1):
            want[f".fix{k}.dot"] = to_dot(
                simpl.resolve_simpl(step.term), step.term, title=f"after repair round {k}"
            )
    written = {f.name[len(path.name):]: f.read_text() for f in tmp_path.glob(f"{path.name}.*.dot")}
    assert written == want


class TestGraphAndAlphacheck:
    def test_graph_dot_output(self, door, capsys):
        assert main(["graph", str(door)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "shape=box" in out

    def test_graph_lambda_input(self, tmp_path, capsys):
        p = tmp_path / "t.lam"
        p.write_text(r"\x. x y")
        assert main(["graph", str(p)]) == 0
        assert "shape=ellipse" in capsys.readouterr().out

    def test_alphacheck_equivalent(self, tmp_path, capsys):
        a = tmp_path / "a.lam"
        b = tmp_path / "b.lam"
        a.write_text(r"\x. x")
        b.write_text(r"\y. y")
        assert main(["alphacheck", str(a), str(b)]) == 0
        assert "alpha-equivalent" in capsys.readouterr().out

    def test_alphacheck_different(self, tmp_path, capsys):
        a = tmp_path / "a.lam"
        b = tmp_path / "b.lam"
        a.write_text(r"\x. x")
        b.write_text(r"\y. z")
        assert main(["alphacheck", str(a), str(b)]) == EXIT_CHECK
        assert "NOT alpha-equivalent" in capsys.readouterr().out

    def test_alphacheck_mixed_languages(self, tmp_path, capsys):
        a = tmp_path / "a.lam"
        b = tmp_path / "b.spl"
        a.write_text(r"\x. x")
        b.write_text("fun f() = 0; f()")
        assert main(["alphacheck", str(a), str(b)]) == EXIT_IO


CHECK_INPUTS = [(".stm", DOOR), (".spl", OR_AND), (".lam", r"\x. (\x. x + y) x")]


@pytest.mark.parametrize("extension, text", CHECK_INPUTS, ids=[e for e, _ in CHECK_INPUTS])
def test_check_passes_the_bundled_resolvers(tmp_path, capsys, extension, text):
    path = tmp_path / f"p{extension}"
    path.write_text(text)
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"


def broken_lambda_resolvers():
    def unstable(t):
        # drops references whose spelling another declaration shares
        g = lam.resolve_lambda(t)
        spell = spellings(t)
        return NameGraph(
            g.labels,
            {(r, d) for r, d in g.edges if sum(spell[v] == spell[r] for v in g.declarations) <= 1},
        )

    def self_bound(t):
        g = lam.resolve_lambda(t)
        return NameGraph(g.labels, g.edges | {(d, d) for d in g.declarations})

    return {"unstable": unstable, "self-bound": self_bound}


@pytest.mark.parametrize("broken", ["unstable", "self-bound"])
def test_check_reports_a_broken_resolver(tmp_path, capsys, monkeypatch, broken):
    resolve = broken_lambda_resolvers()[broken]
    language = cli._LANGUAGES[".lam"]
    monkeypatch.setitem(
        cli._LANGUAGES, ".lam", cli._Language(language.parse, Resolver("broken", resolve), language.pretty)
    )
    path = tmp_path / "p.lam"
    path.write_text(r"\x. (\x. x) x")
    assert main(["check", str(path)]) == EXIT_CHECK
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines and "ok" not in lines
    if broken == "self-bound":
        assert lines[0].startswith("graph not bipartite: @")
    else:
        assert all(line.startswith("trial ") for line in lines)
    assert err == f"namefix: {len(lines)} violation(s)\n"


class TestErrors:
    def test_parse_error(self, tmp_path, capsys):
        p = tmp_path / "bad.stm"
        p.write_text("state a\nnot a line\n")
        assert main(["compile", str(p)]) == EXIT_PARSE
        assert "namefix:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["compile", "no-such-file.stm"]) == EXIT_IO

    def test_unknown_extension(self, tmp_path, capsys):
        p = tmp_path / "x.txt"
        p.write_text("state a\n")
        assert main(["compile", str(p)]) == EXIT_IO

    def test_input_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "bad.spl"
        p.write_bytes(b"fun f(x) = x;\nf(\xff)\n")
        assert main(["lift", str(p)]) == EXIT_IO
        assert capsys.readouterr().err == f"namefix: {p}: not UTF-8 (invalid start byte at offset 16)\n"

    def test_graph_file_not_writable(self, tmp_path, capsys):
        p = tmp_path / "p.spl"
        p.write_text(ZERO_SUCC)
        (tmp_path / "p.spl.src.dot").mkdir()
        assert main(["subst", "--emit-graphs", str(p), "x", "2"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("namefix: ") and f"{p}.src.dot" in err and err.count("\n") == 1

    def test_resolver_breaking_its_contract_in_repair_is_named(self, tmp_path, capsys, monkeypatch):
        # every resolve binds the reference x@3 to the function f@1, so the
        # round that renames f@1 leaves it captured again
        def lawless(p):
            g = simpl.resolve_simpl(p)
            return NameGraph(g.labels, g.edges | {(term.Label(3), term.Label(1))})

        monkeypatch.setattr(simpl, "SIMPL_RESOLVER", Resolver("lawless", lawless))
        p = tmp_path / "p.spl"
        p.write_text("fun f@1(x@2) = x@3;\nf@4(1)\n")
        assert main(["lift", str(p)]) == EXIT_INTERNAL
        assert capsys.readouterr() == (
            "",
            "namefix: declaration @1, renamed in round 1, is captured again in round 2: "
            "@3 -> @1 (source-reference-rebound)\n",
        )

    def test_internal_error_is_one_line_without_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(p, gs):
            raise RuntimeError("boom")

        monkeypatch.setattr(simpl, "lift_prog", broken)
        p = tmp_path / "p.spl"
        p.write_text("fun f(x) = x;\nf(1)\n")
        assert main(["lift", str(p)]) == EXIT_INTERNAL
        assert capsys.readouterr() == ("", "namefix: internal error: RuntimeError: boom\n")

    def test_too_long_integer_is_parse_error(self, tmp_path, capsys):
        p = tmp_path / "long.spl"
        p.write_text("fun f(x) = x + " + "9" * 4400 + ";\nf(1)\n")
        assert main(["lift", str(p)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"namefix: {p}: integer literal too long (4400 digits) (line 1, column 16)\n"

    @pytest.mark.parametrize("name", ["then", "x@1", "", "x y", "1x", "x+1", "x@"])
    def test_subst_name_that_is_no_plain_name_is_usage_error(self, tmp_path, capsys, name):
        p = tmp_path / "p.spl"
        p.write_text(ZERO_SUCC)
        for command in (["subst", str(p), name, "2"], ["inline", str(p), name]):
            assert main(command) == EXIT_IO
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"namefix: name: {name!r} is not a plain .spl name\n"

    def test_graph_title_is_escaped(self, tmp_path, capsys):
        p = tmp_path / 'a"b.lam'
        p.write_text("x")
        assert main(["graph", str(p)]) == 0
        assert '  label="a\\"b.lam";' in capsys.readouterr().out.splitlines()


class TestNoFixTrace:
    """--trace under --no-fix reports what the naive output captures."""

    def test_prints_the_naive_capture_set(self, tmp_path, capsys):
        # Every name pinned, so that the CLI's parse and the one below
        # give the same labels.
        src = statemachine.pretty_stm(statemachine.parse_stm(DOOR_RENAMED), show_labels=True)
        path = tmp_path / "door.stm"
        path.write_text(src)
        assert main(["compile", "--no-fix", "--trace", str(path)]) == 0
        m = statemachine.parse_stm(src)
        target = statemachine.compile_machine(m)
        capture = find_capture(statemachine.resolve_machine(m), simpl.resolve_simpl(target))
        assert capture
        err = capsys.readouterr().err
        assert err == f"capture={capture.format()}; repair skipped (--no-fix)\n"

    def test_no_capture(self, door, capsys):
        assert main(["compile", "--no-fix", "--trace", str(door)]) == 0
        assert capsys.readouterr().err == "no capture; output unchanged\n"


class TestSubstPins:
    PROGRAM = "fun f@1(x@2) = x@3 + y@4;\nf@5(y@6)\n"

    def test_pin_spelled_differently_is_a_usage_error(self, tmp_path, capsys):
        p = tmp_path / "p.spl"
        p.write_text(self.PROGRAM)
        assert main(["subst", str(p), "y", "n@1 + 1"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == f"namefix: replacement: label @1 is spelled 'n' here but 'f' in {p}\n"

    @pytest.mark.parametrize(
        "program, name, replacement, clash",
        [
            (PROGRAM, "y", "f@'1 + 1", "@'1 is synthesized here but source"),
            ("let x@3 = 1 in let x = 2 in y + x\n", "y", "x@'3", "@'3 is synthesized here but source"),
        ],
        ids=["function", "let"],
    )
    def test_pin_under_another_provenance_is_a_usage_error(
        self, tmp_path, capsys, program, name, replacement, clash
    ):
        p = tmp_path / "p.spl"
        p.write_text(program)
        assert main(["subst", str(p), name, replacement]) == EXIT_IO
        assert capsys.readouterr().err == f"namefix: replacement: label {clash} in {p}\n"

    def test_pin_spelled_alike_shares_the_label(self, tmp_path, capsys):
        p = tmp_path / "p.spl"
        p.write_text(self.PROGRAM)
        assert main(["subst", "--no-fix", "--debug-labels", str(p), "y", "f@1 + 1"]) == 0
        out = capsys.readouterr().out
        assert out == "fun f@1(x@2) = x@3 + (f@1 + 1);\nf@5(f@1 + 1)\n"


# The CLI's argparse parser is built once, at import, and every main call
# parses with it. The tests below pin what that must keep: no call builds a
# parser, and repeated calls answer alike. A call runs with the cyclic
# collector paused, so they also pin that a call leaves no cyclic garbage,
# and the collector as it found it.

@pytest.fixture
def inputs(tmp_path):
    """One input file per fixture program, and a .stm that does not parse."""
    files = {"door.stm": DOOR, "zero.spl": ZERO_SUCC, "or.spl": OR_AND, "local.spl": LOCAL_FNS,
             "deep.spl": DEEP_LETS, "bad.stm": "state a\nnot a line\n", "p.lam": r"\x. (\x. x) x"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in files}


# name -> argv of a main call, given the `inputs` paths, and its exit code
def calls(f):
    return {
        "compile": (["compile", f["door.stm"]], 0),
        "subst": (["subst", "--trace", f["zero.spl"], "x", "2 * n"], 0),
        "subst-deep": (["subst", f["deep.spl"], "y", "2"], 0),
        "emit-graphs": (["subst", "--emit-graphs", f["zero.spl"], "x", "2 * n"], 0),
        "inline": (["inline", f["or.spl"], "and"], 0),
        "lift": (["lift", f["local.spl"]], 0),
        "graph": (["graph", f["or.spl"]], 0),
        "check": (["check", f["door.stm"]], 0),
        "alphacheck": (["alphacheck", f["or.spl"], f["or.spl"]], 0),
        "alphacheck-differ": (["alphacheck", f["or.spl"], f["zero.spl"]], EXIT_CHECK),
        "parse-error": (["compile", f["bad.stm"]], EXIT_PARSE),
        "io-error": (["lift", f["local.spl"].replace("local", "missing")], EXIT_IO),
        "bad-name": (["subst", f["zero.spl"], "x y", "2"], EXIT_IO),
        "check-fails": (["check", f["p.lam"]], EXIT_CHECK),
        "usage-no-command": ([], 2),
        "usage-unknown-command": (["frobnicate", f["door.stm"]], 2),
        "usage-missing-argument": (["subst", f["zero.spl"], "x"], 2),
        "usage-unknown-flag": (["lift", "--fast", f["local.spl"]], 2),
        "help": (["inline", "--help"], 0),
    }


def outcome(argv, capsys):
    """main(argv)'s exit code, stdout and stderr; argparse's exits as their code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.fixture
def broken_check(monkeypatch):
    """.lam inputs resolved by a resolver that binds every declaration to
    itself, so that `namefix check` fails on them."""
    language = cli._LANGUAGES[".lam"]
    resolver = Resolver("self-bound", broken_lambda_resolvers()["self-bound"])
    monkeypatch.setitem(cli._LANGUAGES, ".lam", cli._Language(language.parse, resolver, language.pretty))


def test_main_calls_build_no_parser(inputs, capsys, monkeypatch, broken_check):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        for argv, _ in calls(inputs).values():
            outcome(argv, capsys)
    assert built == []
    cli.build_parser()
    assert len(built) == 8  # the parser, and one per subcommand


def test_repeated_interleaved_calls_answer_alike(inputs, capsys, monkeypatch, broken_check):
    def answer(argv):
        # `graph` prints label ids, which come from the session counter.
        monkeypatch.setattr(term, "_SESSION", term._Counter(1))
        return outcome(argv, capsys)

    cases = calls(inputs)
    first = {name: answer(argv) for name, (argv, _) in cases.items()}
    assert {name: got[0] for name, got in first.items()} == {
        name: code for name, (_, code) in cases.items()
    }
    for name, (_, out, err) in first.items():
        if name.startswith("usage"):
            assert out == "" and err.startswith("usage: namefix") and "error:" in err
    assert first["help"][1].startswith("usage: namefix inline")
    rng = random.Random(0)
    for _ in range(3):
        order = list(cases)
        rng.shuffle(order)
        for name in order:
            assert answer(cases[name][0]) == first[name], name


# Every call that gets past argparse: its usage errors and its help are
# formatted by objects that refer to each other, made before the pause.
GARBAGE_FREE = [
    name for name in calls(collections.defaultdict(str)) if not name.startswith(("usage", "help"))
]


@pytest.mark.parametrize("name", GARBAGE_FREE)
def test_a_call_leaves_no_cyclic_garbage(inputs, capsys, broken_check, name):
    """Everything a call makes is freed by reference counting: the cyclic
    collector finds nothing after it."""
    argv, code = calls(inputs)[name]
    assert outcome(argv, capsys)[0] == code  # first-call caches are filled here
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert outcome(argv, capsys)[0] == code
        found = gc.collect()
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == 0


def test_a_call_runs_with_the_collector_paused(inputs, capsys, monkeypatch):
    seen = []
    lift = simpl.lift_prog

    def recording(p, gs):
        seen.append(gc.isenabled())
        return lift(p, gs)

    monkeypatch.setattr(simpl, "lift_prog", recording)
    enabled = gc.isenabled()
    gc.enable()
    try:
        assert main(["lift", inputs["local.spl"]]) == 0
        assert gc.isenabled()
    finally:
        if not enabled:
            gc.disable()
    assert seen == [False]


def _internal_error(p, gs):
    raise RuntimeError("boom")


def _repair_error(*args):
    raise fix.IterationBudgetExceeded("captured again")


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
def test_main_leaves_the_collector_as_it_found_it(inputs, capsys, monkeypatch, broken_check, collecting):
    """On every exit: 0, 1, 2 (I/O and usage errors), 3, and 4 (repair
    failed, or an internal error)."""
    cases = {name: (argv, code, None) for name, (argv, code) in calls(inputs).items()}
    lift = ["lift", inputs["local.spl"]]
    cases["repair-error"] = (lift, EXIT_INTERNAL, (fix, "name_fix", _repair_error))
    cases["internal-error"] = (lift, EXIT_INTERNAL, (simpl, "lift_prog", _internal_error))
    assert {code for _, code, _ in cases.values()} == {0, 1, 2, 3, 4}
    enabled = gc.isenabled()
    try:
        for name, (argv, code, patch) in cases.items():
            (gc.enable if collecting else gc.disable)()
            with monkeypatch.context() as m:
                if patch:
                    m.setattr(*patch)
                assert outcome(argv, capsys)[0] == code, name
            assert gc.isenabled() is collecting, name
    finally:
        (gc.enable if enabled else gc.disable)()
