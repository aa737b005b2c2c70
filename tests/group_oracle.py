"""Test-side oracles and helpers for subgroups of GL2(Z/n).

`closure` is the breadth-first closure loop the library used before it
computed |G| and -1 from a stabilizer chain, and `walk_column_reps` is the
walk over every row vector it used before it read the divisor-matrix
columns off the cusp pass.  They share no code with rungemod, so the tests
that compare against them stay independent of the library's algorithms.
"""

import functools
import random
from math import gcd


def mat_inv(m, n):
    di = pow((m[0] * m[3] - m[1] * m[2]) % n, -1, n)
    return ((m[3] * di) % n, (-m[1] * di) % n, (-m[2] * di) % n, (m[0] * di) % n)


def mat_vec(m, v, n):
    """Column vector v -> m*v."""
    return ((m[0] * v[0] + m[1] * v[1]) % n, (m[2] * v[0] + m[3] * v[1]) % n)


def random_generator_set(seed):
    """(n, generators): n in 2..30 and one to three random invertible matrices.

    The entries run over -n..2n-1, so the input is usually not reduced.
    """
    rng = random.Random(seed)
    n, k = rng.randint(2, 30), rng.randint(1, 3)
    gens = []
    while len(gens) < k:
        m = tuple(rng.randrange(-n, 2 * n) for _ in range(4))
        if gcd((m[0] * m[3] - m[1] * m[2]) % n, n) == 1:
            gens.append(m)
    return n, gens


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


def walk_column_reps(G):
    """Lex-least nonzero row vector of each class under a -> +/-(a*sigma), sorted.

    One breadth-first walk over all N^2 - 1 row vectors under the generators
    and -1, acting on the right.
    """
    n = G.n
    gens = list(G.generators) + [((-1) % n, 0, 0, (-1) % n)]
    seen = set()
    reps = []
    for a1 in range(n):
        for a2 in range(n):
            if (a1, a2) == (0, 0) or (a1, a2) in seen:
                continue
            # every smaller vector is already seen, so (a1, a2) is lex-least
            seen.add((a1, a2))
            orbit = [(a1, a2)]
            for u, w in orbit:
                for a, b, c, d in gens:
                    v = ((u * a + w * c) % n, (u * b + w * d) % n)
                    if v not in seen:
                        seen.add(v)
                        orbit.append(v)
            reps.append((a1, a2))
    return reps
