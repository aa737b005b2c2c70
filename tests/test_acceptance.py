"""Top-level acceptance checks for the whole package.

Each test freezes one external contract: exact cusp counts, exact order
tables, exact rank and invariant identities, the Runge unit contract,
certified analytic sweeps, and the frozen bound values.  Wall-clock
budgets are asserted where the contract includes one.
"""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from rungemod.bounds import (
    bound_tbo,
    bound_tspto,
    is_probable_prime,
    pellarin_degree,
    serre_check,
    three_prime_check,
    three_prime_threshold,
    twist_equation,
)
from rungemod.analytic import run_all_sweeps
from rungemod import modnt
from rungemod.cusps import enumerate_cusps, galois_orbits, sl2_index
from rungemod.modnt import kernel_level_group, parse_group_text, parse_preset
from rungemod.units import (
    TorsionIndex,
    divisor_matrix,
    divisor_rank,
    ord_u,
    ord_w,
    runge_unit,
    runge_vector,
    weighted_column_sums,
)


def odd_primes_to(bound):
    sieve = [True] * (bound + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            for k in range(i * i, bound + 1, i):
                sieve[k] = False
    return [p for p in range(3, bound + 1) if sieve[p]]


def all_indices(n):
    return [
        TorsionIndex(n, a1, a2)
        for a1 in range(n)
        for a2 in range(n)
        if (a1, a2) != (0, 0)
    ]


def frac_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_split_cusp_census_primes_to_101():
    start = time.monotonic()
    for p in odd_primes_to(101):
        G = parse_preset("split:%d" % p)
        cusps = enumerate_cusps(G)
        assert len(cusps) == (p + 1) // 2
        orbits = galois_orbits(G)
        assert len(orbits) == 2
        assert sorted(o.degree for o in orbits) == sorted([1, (p - 1) // 2])
    assert time.monotonic() - start < 10.0


def test_order_table_exact_under_index_transport():
    # transporting the index along the cusp's chosen lift reduces every
    # order computation to the base cusp, where exactly two values occur:
    # p(p-1)^3 when the transported index lies on an axis, -2p(p-1)^2
    # otherwise; both exceed p times the group order in absolute value
    start = time.monotonic()
    for p in (3, 5, 7, 11, 13):
        G = parse_preset("split:%d" % p)
        cusps = enumerate_cusps(G)
        base = next(c for c in cusps if c.rep == (1, 0))
        hi = p * (p - 1) ** 3
        lo = -2 * p * (p - 1) ** 2
        for c in cusps:
            for a in all_indices(p):
                moved = a.times_matrix(c.lift)
                got = ord_w(G, moved, base)
                axis = moved.a1 == 0 or moved.a2 == 0
                assert got == (hi if axis else lo)
                assert abs(got) >= p * G.order
    assert time.monotonic() - start < 30.0


def test_divisor_rank_is_orbit_count_minus_one():
    start = time.monotonic()
    cases = [("split:%d" % p) for p in (3, 5, 7, 11)]
    cases += ["borel:5", "borel:7", "full:5"]
    # prime powers take columns of content > 1; Gamma1(7) holds no scalar but 1
    cases += ["split:3^3", "split:7^2", "borel:3^3", "nonsplit:5^2", "N=7\n1 1 0 1\n1 0 0 3\n"]
    for token in cases:
        G = parse_group_text(token) if token.startswith("N=") else parse_preset(token)
        M = divisor_matrix(G)
        want = len(galois_orbits(G)) - 1
        assert divisor_rank(M) == want
        # independent exact rank over the rationals
        assert frac_rank(M.entries) == want
    assert time.monotonic() - start < 30.0


@pytest.mark.parametrize("p", [11, 13, 17])
def test_split_cubed_at_paper_scale(p, monkeypatch):
    # past the preset cap: p^2(p+1)/2 cusps from one cusp pass over the N(1 + 1/p) lines of
    # P1(Z/N), N = p^3, where a map with an entry per vector class took 2.3 GB at 17^3
    monkeypatch.setattr(modnt, "MAX_PRESET_MODULUS", p ** 3)
    tracemalloc.start()
    try:
        start = time.monotonic()
        G = parse_preset(f"split:{p}^3")
        assert len(enumerate_cusps(G)) == p * p * (p + 1) // 2
        assert sl2_index(G) == p ** 5 * (p + 1) // 2
        orbits = galois_orbits(G)
        assert sorted(o.degree for o in orbits) == [1, p - 1, p * (p - 1), p * p * (p - 1) // 2]
        M = divisor_matrix(G)
        assert divisor_rank(M) == len(orbits) - 1 == 3
        assert all(v == 0 for v in weighted_column_sums(M))
        assert time.monotonic() - start < 10.0
        assert tracemalloc.get_traced_memory()[1] < 100 * 2 ** 20
    finally:
        tracemalloc.stop()


def test_degree_zero_and_weighted_relations():
    for n in (3, 4, 5, 7):
        G = kernel_level_group(n)
        cusps = enumerate_cusps(G)
        for a in all_indices(n):
            assert sum(ord_u(n, a, c) for c in cusps) == 0
    presets = ["split:%d" % p for p in (3, 5, 7, 11)]
    presets += ["borel:5", "borel:7", "full:5"]
    for token in presets:
        M = divisor_matrix(parse_preset(token))
        assert all(v == 0 for v in weighted_column_sums(M))


def test_runge_unit_contract_split_singletons():
    for p in (5, 7, 11):
        G = parse_preset("split:%d" % p)
        g, n = G.order, G.n
        for orbit in galois_orbits(G):
            w = runge_unit(G, [orbit], 1)
            for member in orbit.members:
                assert w.divisor.orders[member] > 0
            # s = 1: the l1 bound is exactly 1 and the order bound g n^2
            assert w.l1_norm == 1
            assert w.bound_B_squared == 1
            for v in w.divisor.orders.values():
                assert v * v <= w.bound_B_squared * (g * n * n) ** 2
            norm_sq = w.l1_norm ** 2
            assert norm_sq <= w.s ** (w.s + 2) * (g * n * n) ** (2 * (w.s - 1))


def test_runge_vector_thousand_random_systems():
    start = time.monotonic()
    rng = random.Random(20260819)
    done = 0
    while done < 1000:
        s = rng.randint(1, 4)
        t = rng.randint(s, 8)
        A = rng.randint(1, 10)
        M = [[rng.randint(-A, A) for _ in range(t)] for _ in range(s)]
        if frac_rank(M) < s:
            continue
        done += 1
        b = runge_vector(M, A)
        prods = [sum(M[i][j] * b[j] for j in range(t)) for i in range(s)]
        assert all(v > 0 for v in prods)
        norm = sum(abs(x) for x in b)
        assert norm * norm <= s ** (s + 2) * A ** (2 * (s - 1))
    assert time.monotonic() - start < 10.0


def test_analytic_sweeps_thousand_samples_each():
    start = time.monotonic()
    results = run_all_sweeps(samples=1000, seed=42, precision=128)
    assert len(results) == 5
    for r in results:
        assert r.checked >= 1000
        assert r.violations == 0
        assert r.indeterminate == 0
        assert r.holds == r.checked
    assert time.monotonic() - start < 120.0


def test_frozen_bound_values():
    tbo = bound_tbo(s=1, g=72, n=7, r=0)
    assert tbo.value_exact == 740880

    # the self-contained cap must undercut the earlier specialization
    # 60 p^2 (p-1)^2 log p, certified on intervals
    p = 7
    tsp = bound_tspto(p)
    other = 60 * p * p * (p - 1) ** 2
    # 23 p < 60 p^2 (p-1)^2 so the log factors compare directly
    assert 23 * p < other
    assert tsp.upper_float() < other * math.log(p) * (1 + 1e-9)

    pel = pellarin_degree(1, 0)
    assert pel.lo_fraction() == pel.hi_fraction() == Fraction(10) ** 82


def test_twist_equation_against_generic_oracle():
    def oracle(a1, a2, a3, a4, a6):
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        c4 = b2 * b2 - 24 * b4
        return disc, c4

    rng = random.Random(9001)
    done = 0
    while done < 100:
        num = rng.randint(-10 ** 9, 10 ** 9)
        den = rng.randint(1, 10 ** 4)
        j = Fraction(num, den)
        if j == 0 or j == 1728:
            continue
        done += 1
        E = twist_equation(j)
        disc, c4 = oracle(E.a1, E.a2, E.a3, E.a4, E.a6)
        assert disc == j ** 2 / (j - 1728) ** 3
        assert E.discriminant == disc
        assert c4 ** 3 / disc == j


def test_level_cap_chain_and_three_prime_rejection():
    start = time.monotonic()
    j = Fraction(5077)
    reports = [serre_check(p, j) for p in (11, 13, 17, 19, 23, 29)]
    caps = [r.max_n for r in reports]
    assert caps == sorted(caps, reverse=True)
    assert all(n >= 1 for n in caps)

    threshold = three_prime_threshold()
    assert three_prime_check(11, 13, 17).feasible is True

    def next_prime(m):
        m += 2 if m % 2 else 1
        while not is_probable_prime(m):
            m += 2
        return m

    p = next_prime(threshold)
    q = next_prime(p)
    r = next_prime(q)
    assert three_prime_check(p, q, r).feasible is False
    # also reject with the two larger cofactors pushed far out
    assert three_prime_check(p, next_prime(10 * p), next_prime(100 * p)).feasible is False
    assert time.monotonic() - start < 10.0
