"""Repair work per label stays flat as programs grow.

`subst` on the open programs of the benchmark's `spl-mix` workload needs
one repair round per shadowed top-level duplicate of the replacement's
name: n/5 rounds for n functions. A round whose work grows with the term
therefore makes repair quadratic in the term. This test counts four kinds
of a repair's work on a ladder of program sizes, through wrappers around
the library's functions and the sizes of what they are given, never
through counters inside the library:

- gensym candidates tried: `in` tests on the used set gensym is handed;
- spellings scanned to build that set: values read off the term's spelling
  map (`LabelIndex.spelling`, which repair respells), and the labels a
  `LabelIndex` counts by spelling as it is built;
- top positions moved by `BindingFrames.rebind`: positions that end a
  round in a bucket list other than the one that held them before it;
- `BindingFrames._lookup` calls made by `rebind`.

Each count per label of the naive term must stay within a constant factor
of its value at the smallest size. Counts do not drift with the machine,
so this holds a linear repair to account where timings could not.
"""

import random
from pathlib import Path

from namefix import fix, simpl
from namefix.graph import BindingFrames
from namefix.term import LabelIndex, spellings

SIZES = (100, 200, 400, 800)
KINDS = ("gensym candidates", "spellings scanned", "top positions moved", "rebind lookups")
# The most a count per label may grow from the smallest size to any larger
# one, as a factor plus a slack for counts near 0.
FACTOR, SLACK = 2, 0.05


def counted_repair(monkeypatch, gs, t) -> tuple[dict[str, int], int]:
    """The work counts of `name_fix(gs, t)`, and its rounds."""
    counts = dict.fromkeys(KINDS, 0)
    in_rebind = [False]

    class Tried:
        def __init__(self, used):
            self.used = used

        def __contains__(self, s):
            counts["gensym candidates"] += 1
            return s in self.used

    class Scanned(dict):
        def values(self):
            for s in dict.values(self):
                counts["spellings scanned"] += 1
                yield s

    gensym, index_init = fix.gensym, LabelIndex.__init__
    rebind, lookup = BindingFrames.rebind, BindingFrames._lookup

    def counting_gensym(base, used, *rest):
        return gensym(base, Tried(used), *rest)

    def counting_index_init(self, t, spelling):
        index_init(self, t, Scanned(spelling))
        counts["spellings scanned"] += len(self.spelling)

    def counting_rebind(self, index):
        before = {s: (bucket, set(bucket)) for s, bucket in self._tops.items()}
        in_rebind[0] = True
        try:
            out = rebind(self, index)
        finally:
            in_rebind[0] = False
        for s, bucket in self._tops.items():
            held, positions = before.get(s, (None, set()))
            counts["top positions moved"] += len(bucket) if held is not bucket else len(set(bucket) - positions)
        return out

    def counting_lookup(self, *args):
        counts["rebind lookups"] += in_rebind[0]
        return lookup(self, *args)

    monkeypatch.setattr(fix, "gensym", counting_gensym)
    monkeypatch.setattr(LabelIndex, "__init__", counting_index_init)
    monkeypatch.setattr(BindingFrames, "rebind", counting_rebind)
    monkeypatch.setattr(BindingFrames, "_lookup", counting_lookup)
    result = fix.name_fix(gs, t, simpl.SIMPL_RESOLVER)
    monkeypatch.undo()
    plain = fix.name_fix(gs, t, simpl.SIMPL_RESOLVER)
    assert (result.term, result.trace) == (plain.term, plain.trace)
    return counts, len(result.trace)


def test_repair_work_per_label_is_flat_in_program_size(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import workloads

    per_label = {}
    for n in SIZES:
        # The spl-mix open program of n functions, seed 1, and its naive
        # `subst` output.
        src, var, repl = workloads.gen_open_program(random.Random(1), n)
        p = simpl.parse_simpl(src)
        t = simpl.subst_prog(p, var, simpl.parse_simpl_exp(repl))
        counts, rounds = counted_repair(monkeypatch, simpl.resolve_simpl(p), t)
        assert rounds == n // 5
        labels = len(spellings(t))
        per_label[n] = {kind: counts[kind] / labels for kind in KINDS}
    grown = {
        kind: {n: round(per_label[n][kind], 3) for n in SIZES}
        for kind in KINDS
        if any(per_label[n][kind] > FACTOR * per_label[SIZES[0]][kind] + SLACK for n in SIZES)
    }
    assert not grown, f"work per label grows with the program: {grown}"
