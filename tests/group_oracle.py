"""Test-side oracle: the element set of a subgroup of GL2(Z/n) by closure.

This is the breadth-first closure loop the library used before it computed
|G| and -1 from a stabilizer chain.  It shares no code with rungemod, so
the tests that compare against it stay independent of the chain.
"""

import functools


def _mul(x, y, n):
    return (
        (x[0] * y[0] + x[1] * y[2]) % n,
        (x[0] * y[1] + x[1] * y[3]) % n,
        (x[2] * y[0] + x[3] * y[2]) % n,
        (x[2] * y[1] + x[3] * y[3]) % n,
    )


@functools.lru_cache(maxsize=32)
def closure(n, gens):
    """Closure of `gens`, each reduced mod n, under multiplication, breadth-first.

    Inverses come for free: the closure of a finite set of invertible
    matrices under products is already a group.
    """
    gen_mats = [tuple(x % n for x in g) for g in gens]
    ident = (1, 0, 0, 1)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gen_mats:
                prod = _mul(m, g, n)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return frozenset(seen)


def group_elements(G):
    """Element set of a SubgroupG, from its generators by closure."""
    return closure(G.n, tuple(G.generators))
