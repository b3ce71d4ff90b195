"""Hygiene of `inline` and `lambda_lift`: alpha-equivalent inputs give
alpha-equivalent outputs.

Each input is a closed generated program. Its variants respell one
declaration, top-level functions included, together with the references
the source graph binds to it; a variant is kept only when `alpha_equiv`
confirms it. `inline` expands the same function in both programs, named by
its spelling in each.

`subst` is left out because it is not hygienic: `subst_prog` replaces a
reference that the resolver binds to a top-level function, so
`fun x() = 1;\\nx + 1` with `x := 2` gives `2 + 1`, while its
alpha-equivalent variant `fun v() = 1;\\nv + 1` comes back unchanged.
"""

import random

import pytest

from gen import gen_simpl_source
from namefix.graph import alpha_equiv
from namefix.simpl import (
    SIMPL_RESOLVER,
    declarations_of,
    fdef_name,
    inline,
    lambda_lift,
    parse_simpl,
    prog_fdefs,
    resolve_simpl,
)
from namefix.term import rename, spellings


def respellings(p, rng, texts_for):
    """Variants of p, each respelling one of a few sampled declarations
    (one of them a top-level function) and the references bound to it to
    one of `texts_for(declaration)`, kept when alpha_equiv confirms them."""
    refs = {}
    for r, d in resolve_simpl(p).edges:
        refs.setdefault(d, []).append(r)
    functions = [fdef_name(f).label for f in prog_fdefs(p)]
    others = sorted(declarations_of(p) - set(functions), key=lambda l: l.id)
    sampled = [rng.choice(functions)] + rng.sample(others, min(2, len(others)))
    for d in sampled:
        for text in texts_for(d):
            q = rename(p, {d: text, **{r: text for r in refs.get(d, ())}})
            if alpha_equiv(p, q, SIMPL_RESOLVER):
                yield q


def assert_hygienic(p, q):
    """inline of every top-level function and lambda_lift agree on p and q
    up to alpha-equivalence. A function whose spelling in q is shared with
    another top-level function is skipped: `inline(q, spelling)` expands
    the calls of every function so spelled, each call with the function
    its head is bound to, and a spelling cannot name one of them alone."""
    spell_p, spell_q = spellings(p), spellings(q)
    functions = [fdef_name(f).label for f in prog_fdefs(p)]
    named = [spell_q[f] for f in functions]
    for f in functions:
        if named.count(spell_q[f]) == 1:
            assert alpha_equiv(inline(p, spell_p[f]), inline(q, spell_q[f]), SIMPL_RESOLVER)
    assert alpha_equiv(lambda_lift(p), lambda_lift(q), SIMPL_RESOLVER)


@pytest.mark.parametrize("n_fdefs", [3, 8])
def test_fresh_respellings(n_fdefs):
    cases = 0
    for seed in range(100):
        rng = random.Random(seed)
        p = parse_simpl(gen_simpl_source(rng, closed=True, n_fdefs=n_fdefs))
        fresh = next(f"v{k}" for k in range(100) if f"v{k}" not in set(spellings(p).values()))
        for q in respellings(p, rng, lambda d: [fresh]):
            assert_hygienic(p, q)
            cases += 1
    assert cases >= 200


@pytest.mark.parametrize("n_fdefs", [3, 8])
def test_respellings_to_names_the_program_uses(n_fdefs):
    """Respelled to a spelling already in the program, a declaration can
    shadow or be shadowed only where alpha_equiv still confirms the
    variant: where a failure of hygiene would show."""
    cases = 0
    for seed in range(20):
        rng = random.Random(seed)
        p = parse_simpl(gen_simpl_source(rng, closed=True, n_fdefs=n_fdefs))
        spell = spellings(p)
        used = sorted(set(spell.values()))
        for q in respellings(p, rng, lambda d: rng.sample([t for t in used if t != spell[d]], 3)):
            assert_hygienic(p, q)
            cases += 1
    assert cases >= 40

