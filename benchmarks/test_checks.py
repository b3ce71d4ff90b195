"""The benchmark's output checks must reject what repair exists to prevent.

Negative controls: the naive (`--no-fix`) output of a clashing state machine
and of `subst` on an open program captures names, and the same checks that
accept the repaired outputs must refuse it. Run with
`python3 -m pytest benchmarks`.
"""

import random

import pytest

import checks
import workloads
from namefix import fix, lam


def test_stm_clash_naive_output_is_rejected(tmp_path):
    ops = workloads.build("stm-clash", 7, tmp_path)
    op = next(op for op in ops if op.size == 12)
    path = tmp_path / "machine12.stm"
    fixed, _ = workloads.run_cli(["compile", str(path)])
    op.check(fixed, None)
    naive, _ = workloads.run_cli(["compile", "--no-fix", str(path)])
    with pytest.raises(checks.CheckFailed, match="ArityMismatch"):
        op.check(naive, None)


def test_stm_clean_repair_returns_the_naive_object(tmp_path):
    for op in workloads.build("stm-clean", 7, tmp_path):
        if op.size <= 100:
            op.check_input()
    clash = workloads.gen_machine(random.Random(7), 25, clash=True)
    with pytest.raises(checks.CheckFailed, match="changed"):
        checks.check_clean_identity(clash.text)


def test_spl_subst_naive_output_is_rejected(tmp_path):
    src, var, repl = workloads.gen_open_program(random.Random(3), 25)
    path = tmp_path / "open25.spl"
    path.write_text(src)
    fixed, _ = workloads.run_cli(["subst", str(path), var, repl])
    checks.check_subst_output(src, var, repl, fixed)
    naive, _ = workloads.run_cli(["subst", "--no-fix", str(path), var, repl])
    with pytest.raises(checks.CheckFailed, match="capture"):
        checks.check_subst_output(src, var, repl, naive)


def test_lambda_naive_outputs_are_rejected():
    rng = random.Random(5)
    rejected = 0
    for _ in range(200):
        s = workloads.gen.gen_lambda(rng, depth=4)
        t = workloads.gen.mutate_lambda(rng, s)
        result = fix.name_fix(lam.resolve_lambda(s), t, lam.LAMBDA_RESOLVER)
        checks.check_lambda_output(s, t, lam.pretty_lambda(result.term), result)
        if result.trace.steps:
            with pytest.raises(checks.CheckFailed):
                checks.check_lambda_output(s, t, lam.pretty_lambda(t), fix.FixResult(t, fix.FixTrace()))
            rejected += 1
    assert rejected > 0


def test_transformed_programs_must_keep_their_value(tmp_path):
    src, fname, value = workloads.gen_closed_program(random.Random(2), 25)
    path = tmp_path / "closed25.spl"
    path.write_text(src)
    out, _ = workloads.run_cli(["inline", str(path), fname])
    checks.check_same_value(out, value)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_value(out, f"not {value}")


def test_same_seed_same_inputs(tmp_path):
    for workload in ("stm-clash", "spl-mix"):
        first, second = tmp_path / f"{workload}1", tmp_path / f"{workload}2"
        first.mkdir()
        second.mkdir()
        workloads.build(workload, 11, first)
        workloads.build(workload, 11, second)
        for path in sorted(first.iterdir()):
            assert path.read_text() == (second / path.name).read_text()
    a = [op.labels() for op in workloads.build("lam-small", 11, tmp_path)]
    b = [op.labels() for op in workloads.build("lam-small", 11, tmp_path)]
    assert a == b


def test_deep_program_check_compares_tokens():
    expected = workloads.deep_let_source(3).replace("= y ", "= 2 ", 1)
    checks.check_tokens("let x0 = 2 in let x1 = x0 + 1 in let x2 = x1 + 1 in x2\n", expected)
    with pytest.raises(checks.CheckFailed):
        checks.check_tokens("let x0 = y in let x1 = x0 + 1 in let x2 = x1 + 1 in x2\n", expected)
