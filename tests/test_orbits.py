"""Generator-orbit computations against element-enumeration oracles.

The library finds the determinant image, the cusps with their widths and
Galois orbits, the rows of the divisor matrix and its column classes by
breadth-first orbits over the generators.  The oracles here sweep the
whole element set instead, built by the test-side closure in
group_oracle.py, or walk every row vector for the column classes, and
closed forms for the split-Cartan normalizers and Borel groups check the
cusp and column counts.
"""

import random
from math import gcd

import pytest
from group_oracle import (
    group_elements,
    mat_inv,
    mat_vec,
    random_generator_set,
    walk_column_reps,
    walk_cusps,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rungemod.cusps import (
    _classes,
    canonical_class,
    cusp_containing,
    enumerate_cusps,
    galois_orbits,
    orbit_classes,
    sl2_index,
    sl2_lift,
)
from rungemod.errors import NotDefinedOverQ
from rungemod.modnt import (
    det_image,
    generate_subgroup,
    kernel_level_group,
    mat_det,
    mat_mul,
    minus_identity_mat,
    parse_group_text,
    parse_preset,
    sl2_order,
    unit_count,
)
from rungemod.units import TorsionIndex, _column_reps, divisor_matrix, ord_w


def conjugated_borel_text(p, seed):
    rng = random.Random(seed)
    while True:
        gamma = tuple(rng.randrange(p) for _ in range(4))
        if mat_det(gamma, p):
            break
    gamma_inv = mat_inv(gamma, p)
    lines = [f"N={p}"]
    for h in [(2, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1)]:
        lines.append("%d %d %d %d" % mat_mul(mat_mul(gamma, h, p), gamma_inv, p))
    return "\n".join(lines) + "\n"


GROUPS = {
    "split:5": lambda: parse_preset("split:5"),
    "nonsplit:5": lambda: parse_preset("nonsplit:5"),
    "borel:7": lambda: parse_preset("borel:7"),
    "full:5": lambda: parse_preset("full:5"),
    "split:3^3": lambda: parse_preset("split:3^3"),
    "nonsplit:3^2": lambda: parse_preset("nonsplit:3^2"),
    "text:borel:11": lambda: parse_group_text(conjugated_borel_text(11, 3)),
    # Gamma1-type, without -1: the sign in the column classes matters
    "text:gamma1:7": lambda: parse_group_text("N=7\n1 1 0 1\n1 0 0 3\n"),
    "kernel:5": lambda: kernel_level_group(5),
}

CUSP_GROUPS = dict(
    GROUPS,
    **{
        "text:gamma1:2": lambda: parse_group_text("N=2\n1 1 0 1\n"),
        # Gamma1-type mod 12, without -1
        "text:gamma1:12": lambda: parse_group_text("N=12\n1 1 0 1\n1 0 0 5\n1 0 0 7\n"),
        # split-Cartan normalizer mod 15: composite, with every scalar
        "text:split:15": lambda: parse_group_text(
            "N=15\n2 0 0 1\n14 0 0 1\n1 0 0 2\n1 0 0 14\n0 1 1 0\n"
        ),
        # only the scalars 1, 5, 8, 12 = +/-1, +/-5: lines of two classes
        "text:scalar5:13": lambda: parse_group_text("N=13\n1 1 0 1\n5 0 0 5\n"),
    },
)


def oracle_det_image(G):
    return frozenset(mat_det(m, G.n) for m in group_elements(G))


def oracle_ord_w(G, a, c):
    """(width/n) * sum over every sigma in G of 12 n^2 ell(a*sigma*lift)."""
    n = G.n
    total = 0
    for m in group_elements(G):
        u, w = mat_vec(m, c.rep, n)  # first column of sigma*lift
        x = (a.a1 * u + a.a2 * w) % n
        total += 6 * x * x - 6 * n * x + n * n
    val, rem = divmod(c.width * total, n)
    assert rem == 0
    return val


def oracle_column_reps(G):
    """Lex-least member of each class of nonzero row vectors under a -> ±(a*sigma)."""
    n = G.n
    seen = set()
    reps = []
    for a1 in range(n):
        for a2 in range(n):
            if (a1, a2) == (0, 0) or (a1, a2) in seen:
                continue
            cls = set()
            for sa, sb, sc, sd in group_elements(G):
                u, w = (a1 * sa + a2 * sc) % n, (a1 * sb + a2 * sd) % n
                cls |= {(u, w), ((-u) % n, (-w) % n)}
            seen |= cls
            reps.append(min(cls))
    return [TorsionIndex(n, x, y) for x, y in sorted(reps)]


def oracle_plusminus_sl2(G):
    """Element set of <G, -1> meet SL2."""
    n = G.n
    part = {m for m in group_elements(G) if mat_det(m, n) == 1}
    return frozenset(part | {mat_mul(minus_identity_mat(n), m, n) for m in part})


def oracle_width(lift, n, pm):
    """Smallest e | n with lift*(1 e; 0 1)*lift^-1 in pm."""
    lift_inv = mat_inv(lift, n)
    for e in sorted(d for d in range(1, n + 1) if n % d == 0):
        if mat_mul(mat_mul(lift, (1, e % n, 0, 1), n), lift_inv, n) in pm:
            return e


def oracle_cusps(G):
    """Cusps as orbits of pm on the classes, seeded in the order (1, 0), sorted classes.

    Returns the (rep, width, lift) list, the class -> cusp index map, the
    Galois orbits as lists of cusp indices (orbits of G on the cusps), and
    the index of pm in SL2.
    """
    n = G.n
    pm = oracle_plusminus_sl2(G)
    member_of = {}
    cusps = []
    for seed in [(1 % n, 0)] + list(_classes(n)):
        if seed in member_of:
            continue
        orbit = {canonical_class(mat_vec(h, seed, n), n) for h in pm}
        for w in orbit:
            member_of[w] = len(cusps)
        rep = (1 % n, 0) if (1 % n, 0) in orbit else min(orbit)
        lift = sl2_lift(rep, n)
        cusps.append((rep, oracle_width(lift, n, pm), lift))
    orbits = []
    placed = set()
    for i, (rep, _, _) in enumerate(cusps):
        if i not in placed:
            orbit = sorted(
                {member_of[canonical_class(mat_vec(g, rep, n), n)] for g in group_elements(G)}
            )
            placed.update(orbit)
            orbits.append(orbit)
    return cusps, member_of, orbits, sl2_order(n) // len(pm)


@pytest.mark.parametrize("name", sorted(CUSP_GROUPS))
def test_cusps_match_element_sweep(name):
    G = CUSP_GROUPS[name]()
    cusps, member_of, orbits, index = oracle_cusps(G)
    got = enumerate_cusps(G)
    assert [(c.rep, c.width, c.lift) for c in got] == cusps
    for v in _classes(G.n):
        assert cusp_containing(G, v) == got[member_of[v]]
    assert sl2_index(G) == index
    if det_image(G).is_full:
        assert [[got.index(c) for c in o.members] for o in galois_orbits(G)] == orbits
    else:
        with pytest.raises(NotDefinedOverQ):
            galois_orbits(G)


def test_width_independent_of_lift():
    for name, build in sorted(CUSP_GROUPS.items()):
        G = build()
        pm = oracle_plusminus_sl2(G)
        for c in enumerate_cusps(G):
            # alternative lift: multiply on the right by (1 1; 0 1), which fixes
            # the first column and stays in SL2
            alt = mat_mul(c.lift, (1, 1, 0, 1), G.n)
            assert alt[0] == c.lift[0] and alt[2] == c.lift[2]
            assert oracle_width(alt, G.n, pm) == c.width, name


def phi(m):
    return unit_count(m) if m > 1 else 1


@pytest.mark.parametrize(
    "p,r", [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]
)
def test_split_cusps_match_closed_forms(p, r):
    G = parse_preset("split:%d^%d" % (p, r))
    assert sl2_index(G) == p ** (2 * r - 1) * (p + 1) // 2
    cusps = enumerate_cusps(G)
    assert 2 * len(cusps) == sum(phi(p ** min(i, 2 * r - i)) for i in range(2 * r + 1))
    assert sum(c.width for c in cusps) == sl2_index(G)
    degrees = [1] + [phi(p ** i) for i in range(1, r)] + [phi(p ** r) // 2]
    assert sorted(o.degree for o in galois_orbits(G)) == sorted(degrees)


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_borel_cusps_match_closed_forms(p, k):
    N = p ** k
    G = parse_preset("borel:%d^%d" % (p, k))
    assert sl2_index(G) == p ** (k - 1) * (p + 1)
    cusps = enumerate_cusps(G)
    assert len(cusps) == sum(phi(gcd(d, N // d)) for d in range(1, N + 1) if N % d == 0)
    assert sum(c.width for c in cusps) == sl2_index(G)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_det_image_matches_element_sweep(name):
    G = GROUPS[name]()
    d = det_image(G)
    assert d.residues == oracle_det_image(G)
    assert d.is_full == (len(d.residues) == unit_count(G.n))
    assert d.is_full == (name != "kernel:5")


@pytest.mark.parametrize("name", sorted(CUSP_GROUPS))
def test_trace_columns_match_element_sweep(name):
    # every entry of the divisor matrix: the trace order of each column class;
    # mod 2 a class is one vector, and gamma1:12 is composite without -1
    G = CUSP_GROUPS[name]()
    if not det_image(G).is_full:
        with pytest.raises(NotDefinedOverQ):
            divisor_matrix(G)
        return
    M = divisor_matrix(G)
    for orbit, row in zip(M.orbits, M.entries):
        c = orbit.members[0]
        assert list(row) == [oracle_ord_w(G, a, c) for a in M.columns]
        # ord_w is the one-column case, at every member of the orbit
        for member in orbit.members:
            assert [ord_w(G, a, member) for a in M.columns[:3]] == list(row[:3])


def check_cusp_pass_against_class_walk(G):
    # the line walk against the class-by-class walk: cusps, the class map,
    # each orbit's classes, the Galois orbits and every divisor-matrix entry
    n = G.n
    cusps, member_of, orbits, classes = walk_cusps(G)
    got = enumerate_cusps(G)
    assert [(c.rep, c.width) for c in got] == cusps
    for v, i in member_of.items():
        assert cusp_containing(G, v) == got[i]
    for i, c in enumerate(got):
        filled = orbit_classes(G, c)
        assert len(filled) == len(classes[i]) and set(filled) == classes[i]
    if not det_image(G).is_full:
        with pytest.raises(NotDefinedOverQ):
            divisor_matrix(G)
        return
    assert [[got.index(c) for c in o.members] for o in galois_orbits(G)] == orbits
    M = divisor_matrix(G)
    assert [(a.a1, a.a2) for a in M.columns] == walk_column_reps(G)
    for orbit, row in zip(M.orbits, M.entries):
        c = orbit.members[0]
        cls = classes[got.index(c)]
        want = []
        for a in M.columns:
            xs = [(a.a1 * u + a.a2 * w) % n for u, w in cls]
            total = G.order // len(cls) * sum(6 * x * x - 6 * n * x + n * n for x in xs)
            want.append(c.width * total // n)
        assert list(row) == want


@pytest.mark.parametrize("name", sorted(CUSP_GROUPS))
def test_cusp_pass_matches_class_walk(name):
    check_cusp_pass_against_class_walk(CUSP_GROUPS[name]())


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1).map(random_generator_set))
@example((13, [(1, 1, 0, 1), (5, 0, 0, 5)]))
@example((12, [(1, 1, 0, 1), (5, 0, 0, 5), (7, 0, 0, 7), (1, 0, 0, 5), (1, 0, 0, 7)]))
@example((2, [(1, 1, 0, 1)]))
def test_cusp_pass_matches_class_walk_on_random_groups(case):
    # random groups hold all, some or only the trivial scalars
    n, gens = case
    check_cusp_pass_against_class_walk(generate_subgroup(n, gens))


@pytest.mark.parametrize("name", sorted(CUSP_GROUPS))
def test_column_reps_match_element_sweep(name):
    G = CUSP_GROUPS[name]()
    assert list(_column_reps(G)) == oracle_column_reps(G)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1).map(random_generator_set))
@example((12, [(1, 1, 0, 1), (1, 0, 0, 5), (1, 0, 0, 7)]))
@example((12, [(11, 0, 0, 11), (1, 0, 1, 1)]))
@example((9, [(1, 1, 0, 1), (1, 0, 3, 1)]))
@example((7, [(1, 0, 0, 1)]))
def test_column_reps_match_row_walk(case):
    # random groups, many without every scalar or with a det image that is
    # not full: the classes of G' = <det(g)^-1 g> must still be G's row classes
    n, gens = case
    G = generate_subgroup(n, gens)
    assert [(a.a1, a.a2) for a in _column_reps(G)] == walk_column_reps(G)


@pytest.mark.parametrize(
    "kind,p,r",
    [("split", 3, r) for r in range(1, 6)]
    + [("split", 11, 2), ("borel", 3, 4), ("nonsplit", 3, 4), ("full", 3, 2)],
)
def test_column_counts_match_closed_forms(kind, p, r):
    # content p^i holds the classes of the primitive rows mod p^k, k = r - i:
    # k + 1 of them for split and borel, one for nonsplit and full
    G = parse_preset("%s:%d^%d" % (kind, p, r))
    want = r * (r + 3) // 2 if kind in ("split", "borel") else r
    assert len(_column_reps(G)) == want
