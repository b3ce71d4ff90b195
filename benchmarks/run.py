"""Benchmark of the namefix pipeline: one command, four seeded workloads.

    python3 benchmarks/run.py --workload stm-clash --seed 1 --seconds 25 --trace 0

Run it from the root of a namefix checkout. The workload runs in a fresh
worker process (benchmarks/worker.py), so labels, caches and peak memory
belong to that workload alone. With `--trace 0` the last stdout line holds
the end-to-end metrics; `setup_s` is the median of several fresh worker
processes timed from their start until they are ready for the first
operation. With `--trace 1` it holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("stm-clash", "stm-clean", "spl-mix", "lam-small")
SETUP_PROBES = 5
TIME_LIMIT_S = 170


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the namefix pipeline.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    here = Path(__file__).resolve().parent
    if not (root / "src" / "namefix" / "cli.py").is_file() or not (root / "tests" / "gen.py").is_file():
        print("benchmarks/run.py: run from the root of a namefix checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "tests"), str(here)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    worker = [sys.executable, str(here / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        setup_s = []
        if not args.trace:
            for k in range(SETUP_PROBES):
                probe_dir = workdir / f"setup{k}"
                probe_dir.mkdir()
                start = time.monotonic()
                done = subprocess.run(
                    worker + ["--workdir", str(probe_dir), "--setup-only"],
                    env=env, stdout=subprocess.PIPE, text=True, timeout=60, check=True,
                )
                setup_s.append(_last_json(done.stdout)["ready"] - start)
        done = subprocess.run(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)],
            env=env, stdout=subprocess.PIPE, text=True, check=True,
            timeout=max(10.0, TIME_LIMIT_S - (time.monotonic() - started)),
        )
        result = _last_json(done.stdout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmarks/run.py: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setup_s:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
