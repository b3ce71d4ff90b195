"""Runs one workload in a process of its own and prints its result as JSON.

    python3 benchmarks/worker.py --workload W --seed N --seconds S --trace 0|1 --workdir DIR

`benchmarks/run.py` starts this with `src`, `tests` and `benchmarks` on
PYTHONPATH. With `--setup-only` it stops right before the first operation
and prints the `time.monotonic()` reading at that point, so the caller can
time interpreter start, imports and input generation together.

Operations run one at a time in a closed loop with one caller. A run
repeats whole rounds while the operations of the next round are expected
to end within `--seconds`. Every output is checked after its round,
outside the timed interval; an output already verified for the same input
is compared as text. Untraced latencies are corrected for the speed of the core
(`calibration.py`). A table of median latency per input goes to stderr;
the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import calibration
import checks
import tracing
import workloads

PER_LAYER_TIMES = {
    "term.name_at_s": "term.name_at",
    "term.rename_s": "term.rename",
    "term.labels_of_s": "term.labels_of",
    "graph.counts_as_source_s": "graph.counts_as_source",
    "graph.bindings_s": "graph.bindings",
    "fix.name_fix_s": "fix.name_fix",
    "fix.find_capture_s": "fix.find_capture",
    "fix.comp_renaming_s": "fix.comp_renaming",
    "simpl.parse_s": "simpl.parse",
    "simpl.resolve_s": "simpl.resolve",
    "simpl.transform_s": "simpl.transform",
    "simpl.pretty_s": "simpl.pretty",
    "statemachine.parse_s": "statemachine.parse",
    "statemachine.resolve_s": "statemachine.resolve",
    "statemachine.compile_s": "statemachine.compile",
    "lam.resolve_s": "lam.resolve",
    "lam.pretty_s": "lam.pretty",
    "cli.main_s": "cli.main",
}
PER_LAYER_CALLS = {
    "term.name_at_calls": "term.name_at",
    "graph.counts_as_source_calls": "graph.counts_as_source",
    "graph.bindings_calls": "graph.bindings",
    "simpl.resolve_calls": "simpl.resolve",
    "lam.resolve_calls": "lam.resolve",
    "cli.calls": "cli.main",
}
PER_LAYER_COUNTS = (
    "graph.edges",
    "fix.rounds",
    "fix.captures.source_rebound",
    "fix.captures.free_captured",
    "fix.captures.synthesized_captured",
    "fix.renamed_labels",
)


# Latencies kept per operation: the most recent ones, in a ring allocated
# up front, so that peak memory does not grow with the number of rounds.
KEPT_LATENCIES = 64


class Run:
    """Outcome of the timed rounds of one run."""

    def __init__(self, ops: list[workloads.Op]) -> None:
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rounds = 0
        # Latencies per operation, for untraced and traced rounds.
        self._latencies = {t: array.array("d", bytes(8 * KEPT_LATENCIES * len(ops))) for t in (False, True)}
        self._timed = {t: [0] * len(ops) for t in (False, True)}
        self._verified: dict[int, str] = {}

    def record(self, results: list[tuple[int, bool, object, float]], traced: bool) -> None:
        """Count and check one round's results; runs outside the timed interval."""
        self.rounds += 1
        for i, ok, out, seconds in results:
            op = self.ops[i]
            self.attempted += 1
            if not ok:
                self.failed += 1
                if not op.known_failure:
                    print(f"operation {op.name} failed: {out!r}", file=sys.stderr)
                continue
            text, extra = out
            if self._verified.get(i) != text:
                try:
                    op.check(text, extra)
                except checks.CheckFailed as exc:
                    self.correct = False
                    print(f"wrong output from {op.name}: {exc}", file=sys.stderr)
                    continue
                self._verified[i] = text
            if not op.known_failure:
                timed = self._timed[traced]
                self._latencies[traced][i * KEPT_LATENCIES + timed[i] % KEPT_LATENCIES] = seconds
                timed[i] += 1

    def median_latency(self, traced: bool = False) -> dict[int, float]:
        """Median kept latency of every operation that succeeded at least once."""
        kept = self._latencies[traced]
        return {
            i: statistics.median(kept[i * KEPT_LATENCIES : i * KEPT_LATENCIES + min(n, KEPT_LATENCIES)])
            for i, n in enumerate(self._timed[traced])
            if n
        }


def run_round(ops: list[workloads.Op], sampler: calibration.Sampler | None) -> list[tuple[int, bool, object, float]]:
    """Runs the operations once each. With a sampler, a latency is corrected
    for the speed of the core; the known failures run with it paused."""
    timed = []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if sampler and op.known_failure:
            sampler.pause()
        first = sampler.mark() if sampler else 0
        start = clock()
        try:
            out: object = op.run()
            ok = True
        except Exception as exc:  # counted as a failed operation
            out, ok = exc, False
        seconds = clock() - start
        last = sampler.mark() if sampler else 0
        if sampler and op.known_failure:
            sampler.resume()
        timed.append((i, ok, out, seconds, first, last))
    results = []
    for i, ok, out, seconds, first, last in timed:
        if sampler and ok and not ops[i].known_failure:
            seconds = sampler.corrected(seconds, first, last)
        results.append((i, ok, out, seconds))
    if sampler:
        sampler.trim()
    return results


def size_table(run: Run) -> str:
    """Latency per input, for reading growth rates off input sizes."""
    latency = run.median_latency()
    groups: dict[str, list[int]] = defaultdict(list)
    for i in latency:
        groups[run.ops[i].name].append(i)
    lines = [f"{'operation':<22}{'inputs':>7}{'size':>6}{'labels':>8}{'median_ms':>12}"]
    for name, members in sorted(groups.items(), key=lambda g: (g[0].split("/")[0], run.ops[g[1][0]].size)):
        lines.append(
            f"{name:<22}{len(members):>7}{run.ops[members[0]].size:>6}"
            f"{statistics.median(run.ops[i].labels() for i in members):>8.0f}"
            f"{statistics.median(latency[i] for i in members) * 1e3:>12.3f}"
        )
    return "\n".join(lines)


def end_to_end(run: Run) -> dict[str, dict[str, object]]:
    latency = run.median_latency()
    large = [latency[i] for i in latency if run.ops[i].large]
    labels = sum(run.ops[i].labels() for i in latency)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "op_p50_ms": {"value": statistics.median(latency.values()) * 1e3, "unit": "ms"},
        "op_large_ms": {"value": statistics.median(large) * 1e3, "unit": "ms"},
        "labels_per_s": {"value": labels / sum(latency.values()), "unit": "labels/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(tracer: tracing.Tracer, traced_rounds: int, labels: int, overhead_s: float) -> dict[str, dict[str, object]]:
    """Per-round layer totals: sums over the traced rounds divided by their
    number, so they do not depend on how many rounds fit in a run."""
    metrics: dict[str, dict[str, object]] = {}
    for metric, span in PER_LAYER_CALLS.items():
        metrics[metric] = {"value": tracer.calls[span] // traced_rounds, "unit": "count/round"}
    for metric, span in PER_LAYER_TIMES.items():
        metrics[metric] = {"value": tracer.self_s[span] / traced_rounds, "unit": "s/round"}
    for metric in PER_LAYER_COUNTS:
        metrics[metric] = {"value": tracer.counts[metric] // traced_rounds, "unit": "count/round"}
    metrics["term.labels"] = {"value": labels, "unit": "count/round"}
    metrics["trace.overhead_ms"] = {"value": overhead_s * 1e3, "unit": "ms/op"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops = workloads.build(args.workload, args.seed, args.workdir)
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    # The inputs stay alive for the whole run; keep the cyclic collector
    # from rescanning them during every operation.
    gc.collect()
    gc.freeze()

    run = Run(ops)
    for op in ops:
        if op.check_input is not None:
            try:
                op.check_input()
            except checks.CheckFailed as exc:
                run.correct = False
                print(f"wrong output from {op.name}: {exc}", file=sys.stderr)

    tracer = tracing.Tracer() if args.trace else None
    # Traced rounds are compared with untraced ones to give the tracing
    # overhead, so a traced run times both without correction.
    sampler = None if tracer else calibration.Sampler()
    per_round_counts: list[Counter[str]] = []
    # A traced run alternates untraced and traced rounds, in pairs.
    period = 2 if tracer else 1
    clock = time.perf_counter
    deadline = clock() + args.seconds
    # Wall time of the last round's operations, checks excluded: the first
    # round checks every output in full, later ones mostly compare text.
    ops_s = 0.0
    if sampler:
        sampler.start()
    try:
        while run.rounds < period or run.rounds % period or clock() + ops_s < deadline:
            traced = tracer is not None and run.rounds % 2 == 1
            if traced:
                before = tracer.calls + tracer.counts
                tracer.install()
            round_start = clock()
            try:
                results = run_round(ops, sampler)
            finally:
                ops_s = clock() - round_start
                if traced:
                    tracer.uninstall()
            if traced:
                per_round_counts.append(tracer.calls + tracer.counts - before)
            run.record(results, traced)
    finally:
        if sampler:
            sampler.stop()

    print(f"{args.workload} seed {args.seed}: {run.rounds} rounds of {len(ops)} operations", file=sys.stderr)
    print(size_table(run), file=sys.stderr)
    if tracer:
        if any(c != per_round_counts[0] for c in per_round_counts):
            print("warning: layer counts differ between rounds of the same inputs", file=sys.stderr)
        plain, traced_latency = run.median_latency(False), run.median_latency(True)
        overhead_s = (sum(traced_latency.values()) - sum(plain.values())) / len(plain)
        labels = sum(ops[i].labels() for i in plain)
        metrics = per_layer(tracer, len(per_round_counts), labels, overhead_s)
    else:
        metrics = end_to_end(run)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
