"""Test-side oracles and helpers for subgroups of GL2(Z/n).

`closure` is the breadth-first closure loop the library used before it
computed |G| and -1 from a stabilizer chain, `walk_column_reps` is the
walk over every row vector it used before it read the divisor-matrix
columns off the cusp pass, `walk_cusps` is the cusp pass as it ran
before it walked whole lines under the scalars: one class at a time, and
`scan_sl2_lift` is the lift by a scan over b, before its closed form.  They
share no code with rungemod, so the tests that compare against them stay
independent of the library's algorithms.
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


def walk_cusps(G):
    """Cusps, widths and Galois orbits of G by a class-by-class walk.

    One breadth-first walk over the +/- classes of primitive vectors under
    the generators per orbit of <G, -1>, seeded at (1, 0), then at each
    unseen class in sorted order.  t[w] is the det of a generator word
    taking the seed to +/-w; two classes of an orbit lie in one cusp iff
    their t-values lie in one coset of the group S the ratios
    t(w)det(g)/t(g*w) generate.  A cusp of c classes has width
    n*c*signs/|<G, -1> meet SL2|, read off G.order and G.contains_minus_one.

    Returns the (rep, width) list, (1, 0) first and then by rep; the map
    class -> cusp index; the orbits as sorted lists of cusp indices, by
    their least index; and each orbit's class set, by cusp index.
    """
    n = G.n
    one = (1 % n, 0)

    def canon(u, v):
        u, v = u % n, v % n
        return min((u, v), (-u % n, -v % n))

    def unit_span(units):
        # the subgroup of (Z/n)^* that `units` generate
        out = [1 % n]
        for x in out:
            out.extend(y for y in {x * u % n for u in units} if y not in out)
        return set(out)

    gens = [(g, (g[0] * g[3] - g[1] * g[2]) % n) for g in G.generators]
    dets = unit_span([e for _, e in gens])
    gamma_order = G.order * (1 if G.contains_minus_one else 2) // len(dets)
    signs = 1 if n == 2 else 2
    classes = sorted(
        {canon(x, y) for x in range(n) for y in range(n) if gcd(gcd(x, y), n) == 1}
    )

    member_of = {}
    found = []  # (rep, width, orbit number)
    orbit_sets = []
    for seed in [one] + classes:
        if seed in member_of:
            continue
        t = {seed: 1}
        visited = [seed]
        ratios = set()
        for w in visited:
            for (a, b, c, d), det_g in gens:
                key = canon(a * w[0] + b * w[1], c * w[0] + d * w[1])
                tv = t[w] * det_g % n
                if key not in t:
                    t[key] = tv
                    visited.append(key)
                elif t[key] != tv:
                    ratios.add(tv * pow(t[key], -1, n) % n)
        stab = unit_span(ratios)
        cosets = {}
        for w in visited:
            coset = min(t[w] * s % n for s in stab)
            cosets.setdefault(coset, []).append(w)
        for members in cosets.values():
            rep = seed if seed in members else min(members)
            width = n * len(members) * signs // gamma_order
            for w in members:
                member_of[w] = rep
            found.append((rep, width, len(orbit_sets)))
        orbit_sets.append(set(visited))

    found.sort(key=lambda f: (f[0] != one, f[0]))
    index_of = {f[0]: i for i, f in enumerate(found)}
    orbits = sorted(
        [i for i, f in enumerate(found) if f[2] == k] for k in range(len(orbit_sets))
    )
    return (
        [(rep, width) for rep, width, _ in found],
        {w: index_of[rep] for w, rep in member_of.items()},
        orbits,
        {i: orbit_sets[f[2]] for i, f in enumerate(found)},
    )


def scan_sl2_lift(v, n):
    """(x, b, y, d) in SL2(Z/n) with v = (x, y): the least b >= 0 that solves, then the least d."""
    x, y = v[0] % n, v[1] % n
    for b in range(n):
        for d in range(n):
            if (x * d - y * b) % n == 1:
                return x, b, y, d
    raise ValueError(f"vector {v} is not primitive mod {n}")
