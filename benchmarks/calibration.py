"""Operation latencies corrected for the drifting speed of a shared core.

On a shared virtual machine the speed of one core changes by up to a factor
of two within seconds, and whole minutes can run slow, so a raw wall time
says as much about the neighbours as about the program. While the timed
rounds run, an interval timer interrupts the worker every `INTERVAL_S` and
the signal handler runs one fixed calibration pass, between two bytecodes of
whatever operation is running. A pass measures how fast the core runs
Python at that moment.

An operation's latency is then its wall time minus the passes that ran
inside it, times the mean speed of the passes during and around it, where a
pass that takes `REFERENCE_PASS_S` has speed 1: the time the operation would
take on a core that runs a pass in `REFERENCE_PASS_S`. Work the program adds
or removes changes this latency in proportion; the speed of the core does
not. The speed is averaged, rather than the pass time, because passes sample
the speed evenly in time, and an operation's work is its wall time times its
mean speed.

On the tuning machine this cut the interquartile range of one operation's
latency from 30%-48% to 8%-15% of its median, and that of the median over
10-second windows from 18%-40% to about 3%. The pass was chosen for that: a
pass of about a millisecond that walks a tree of a few hundred kilobytes
tracks the program's speed better than a shorter pass or one that only
does arithmetic.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
# About the median pass time on the machine the reference figures in
# README.md come from (a shared 2-vCPU Xeon virtual machine, Python 3.11),
# with the passes interleaved with benchmark operations as here. Corrected
# latencies read as milliseconds of that machine at its typical speed.
REFERENCE_PASS_S = 1.5e-3
# Passes just before and after an operation that also count towards its
# speed; they give operations shorter than INTERVAL_S a measurement.
NEIGHBOURS = 2


def _tree(depth: int) -> tuple[str, list]:
    return ("node", [_tree(depth - 1) for _ in range(3)]) if depth else ("leaf", [])


_TREE = _tree(7)


def calibration_pass() -> dict[str, int]:
    """Counts the node kinds of a fixed 3,280-node tree twice, with an
    explicit stack: the tuple, list and dict work that the resolvers and
    repair do, once from a cold cache and once from a warm one."""
    counts: dict[str, int] = {}
    for _ in range(2):
        stack = [_TREE]
        while stack:
            kind, children = stack.pop()
            counts[kind] = counts.get(kind, 0) + 1
            stack.extend(children)
    return counts


class Sampler:
    """Runs calibration passes from SIGALRM and corrects latencies by them.

    Pass durations are kept from the last `trim()` on; marks are absolute
    pass counts, so they stay valid across a trim of older passes.
    """

    def __init__(self) -> None:
        self._passes: list[float] = []
        self._dropped = 0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_pass()
        self._passes.append(time.perf_counter() - start)

    def start(self) -> None:
        """Starts the timer and returns once the first passes have run."""
        for _ in range(20):
            calibration_pass()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.resume()
        while self.mark() < NEIGHBOURS:
            time.sleep(INTERVAL_S)

    def stop(self) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def mark(self) -> int:
        return self._dropped + len(self._passes)

    def corrected(self, seconds: float, first: int, last: int) -> float:
        """The latency of an operation that took `seconds` of wall time
        while the pass count went from `first` to `last`."""
        base = self._dropped
        inside = self._passes[first - base : last - base]
        around = self._passes[max(0, first - base - NEIGHBOURS) : last - base + NEIGHBOURS]
        return (seconds - sum(inside)) * statistics.fmean(REFERENCE_PASS_S / s for s in around)

    def trim(self) -> None:
        """Forgets all passes but the last few, which the next operation
        still counts as its neighbours."""
        keep = self._passes[-NEIGHBOURS:]
        self._dropped += len(self._passes) - len(keep)
        self._passes = keep
