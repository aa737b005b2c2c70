"""Divisor orders of Siegel units, the divisor matrix, and the Runge unit."""

import itertools
import random
from fractions import Fraction

import pytest
from group_oracle import mat_vec
from hypothesis import given, settings
from hypothesis import strategies as st

from rungemod.cusps import cusp_containing, enumerate_cusps, galois_orbits
from rungemod.errors import (
    BoundViolated,
    ModulusMismatch,
    NotDefinedOverQ,
    RankDeficient,
    RungeConditionFailed,
    SigmaNotProper,
)
from rungemod import units
from rungemod.modnt import kernel_level_group, parse_group_text, preset_subgroup
from rungemod.units import (
    CuspDivisor,
    TorsionIndex,
    _echelon,
    _ell_table,
    _int_det,
    bernoulli2,
    divisor_matrix,
    divisor_rank,
    ell,
    ord_u,
    ord_w,
    runge_unit,
    runge_vector,
    weighted_column_sums,
)


def all_indices(n):
    return [
        TorsionIndex(n, a1, a2)
        for a1 in range(n)
        for a2 in range(n)
        if (a1, a2) != (0, 0)
    ]


def test_bernoulli2_values():
    assert bernoulli2(Fraction(0)) == Fraction(1, 6)
    assert bernoulli2(Fraction(1)) == Fraction(1, 6)
    assert bernoulli2(Fraction(1, 2)) == Fraction(-1, 12)
    with pytest.raises(ValueError):
        bernoulli2(Fraction(3, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 12])
def test_bernoulli2_sum_identity(n):
    total = sum(bernoulli2(Fraction(k, n)) for k in range(1, n))
    assert total == Fraction(-(n - 1), 6 * n)


def test_ell_values():
    assert ell(TorsionIndex(5, 0, 1)) == Fraction(1, 12)
    assert ell(TorsionIndex(5, 1, 0)) == Fraction(1, 300)
    assert ell(TorsionIndex(6, 3, 2)) == Fraction(-1, 24)
    # periodicity: residues are reduced mod n on construction
    assert ell(TorsionIndex(5, 7, 3)) == ell(TorsionIndex(5, 2, 3))


@pytest.mark.parametrize("n", range(2, 31))
def test_ell_table_is_scaled_b2(n):
    table = _ell_table(n, (1,))
    assert len(table) == n
    for x in range(n):
        assert table[x] == 12 * n * n * ell(TorsionIndex(n, x, 1))


def test_torsion_index_basics():
    with pytest.raises(ValueError):
        TorsionIndex(5, 0, 0)
    with pytest.raises(ValueError):
        TorsionIndex(5, 5, 10)
    assert TorsionIndex(10, 4, 6).order == 5
    assert TorsionIndex(10, 1, 0).order == 10
    a = TorsionIndex(5, 1, 2)
    assert a.times_matrix((0, 1, 1, 0)) == TorsionIndex(5, 2, 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 97), st.integers(-200, 200), st.integers(-200, 200))
def test_ell_bounded(n, a1, a2):
    if (a1 % n, a2 % n) == (0, 0):
        return
    assert abs(ell(TorsionIndex(n, a1, a2))) <= Fraction(1, 12)


def test_ord_u_level_five():
    G = kernel_level_group(5)
    c_inf = enumerate_cusps(G)[0]
    assert ord_u(5, TorsionIndex(5, 1, 0), c_inf) == 1
    assert ord_u(5, TorsionIndex(5, 0, 1), c_inf) == 25
    with pytest.raises(ModulusMismatch):
        ord_u(7, TorsionIndex(5, 1, 0), c_inf)


def test_ord_u_lift_independent():
    from rungemod.cusps import CuspClass

    G = kernel_level_group(5)
    c = enumerate_cusps(G)[0]
    alt = CuspClass(5, c.rep, c.width, (1, 3, 0, 1))
    for a in all_indices(5):
        assert ord_u(5, a, c) == ord_u(5, a, alt)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ord_u_degree_zero(n):
    G = kernel_level_group(n)
    cusps = enumerate_cusps(G)
    for a in all_indices(n):
        vals = [ord_u(n, a, c) for c in cusps]
        assert sum(vals) == 0
        assert all(abs(v) <= n * n for v in vals)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ord_w_split_value_table(p):
    # at the infinity cusp the order takes exactly two values; at the
    # conjugate cusps the complementary value is forced by degree zero
    G = preset_subgroup("split_normalizer", p)
    lo = -2 * p * (p - 1) ** 2
    hi = p * (p - 1) ** 3
    conj = 4 * p * (p - 1)
    for c in enumerate_cusps(G):
        at_inf = c.rep[1] == 0
        for a in all_indices(p):
            axis = a.a1 == 0 or a.a2 == 0
            want = (hi if axis else lo) if at_inf else (lo if axis else conj)
            assert ord_w(G, a, c) == want


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ord_w_split_lower_bounds(p):
    # every order at the infinity cusp is at least p|G| in absolute value;
    # the global minimum over all cusps is 4p(p-1)
    G = preset_subgroup("split_normalizer", p)
    cusps = enumerate_cusps(G)
    for a in all_indices(p):
        assert abs(ord_w(G, a, cusps[0])) >= p * G.order
        for c in cusps[1:]:
            assert abs(ord_w(G, a, c)) >= 4 * p * (p - 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_runge_unit_attains_lemma_bound(p):
    # the unit built for each singleton orbit has ord >= p|G| on its orbit
    G = preset_subgroup("split_normalizer", p)
    for o in galois_orbits(G):
        u = runge_unit(G, [o], 1)
        assert min(u.divisor.orders[c] for c in o.members) >= p * G.order


def test_ord_w_frozen_examples():
    G5 = preset_subgroup("split_normalizer", 5)
    c_inf = enumerate_cusps(G5)[0]
    assert ord_w(G5, TorsionIndex(5, 1, 2), c_inf) == -160
    assert ord_w(G5, TorsionIndex(5, 0, 1), c_inf) == 320
    G3 = preset_subgroup("split_normalizer", 3)
    assert ord_w(G3, TorsionIndex(3, 1, 1), enumerate_cusps(G3)[0]) == -24


def test_ord_w_negation_invariant():
    G = preset_subgroup("split_normalizer", 7)
    c = enumerate_cusps(G)[1]
    for a in all_indices(7):
        neg = TorsionIndex(7, -a.a1, -a.a2)
        assert ord_w(G, a, c) == ord_w(G, neg, c)


def test_ord_w_needs_full_det():
    G = kernel_level_group(5)
    with pytest.raises(NotDefinedOverQ):
        ord_w(G, TorsionIndex(5, 1, 0), enumerate_cusps(G)[0])


def test_divisor_matrix_split_five_frozen():
    M = divisor_matrix(preset_subgroup("split_normalizer", 5))
    assert [(a.a1, a.a2) for a in M.columns] == [(0, 1), (1, 1)]
    assert M.entries == ((320, -160), (-160, 80))
    assert M.entry_bound == 32 * 25
    assert divisor_rank(M) == 1
    # rational cusp counted once, the conjugate pair twice
    assert weighted_column_sums(M) == (0, 0)


def test_divisor_matrix_full_is_zero():
    M = divisor_matrix(preset_subgroup("full", 5))
    assert len(M.orbits) == 1
    assert all(e == 0 for row in M.entries for e in row)
    assert divisor_rank(M) == 0


@pytest.mark.parametrize(
    "token,p,rank",
    [
        ("split_normalizer", 3, 1),
        ("split_normalizer", 5, 1),
        ("split_normalizer", 7, 1),
        ("split_normalizer", 11, 1),
        ("borel", 5, 1),
        ("borel", 7, 1),
        ("full", 5, 0),
    ],
)
def test_divisor_rank_theorem(token, p, rank):
    G = preset_subgroup(token, p)
    M = divisor_matrix(G)
    assert divisor_rank(M) == len(galois_orbits(G)) - 1 == rank


@pytest.mark.parametrize("token,p", [("split_normalizer", 5), ("split_normalizer", 7),
                                     ("borel", 5), ("nonsplit_normalizer", 5)])
def test_weighted_relation_presets(token, p):
    M = divisor_matrix(preset_subgroup(token, p))
    assert all(v == 0 for v in weighted_column_sums(M))


def test_weighted_relation_every_index():
    # not only on column representatives: every a, orbit degrees as weights
    G = preset_subgroup("split_normalizer", 5)
    orbits = galois_orbits(G)
    for a in all_indices(5):
        total = sum(o.degree * ord_w(G, a, o.members[0]) for o in orbits)
        assert total == 0


def test_ord_w_constant_on_orbits():
    G = preset_subgroup("split_normalizer", 7)
    for orbit in galois_orbits(G):
        for a in [TorsionIndex(7, 1, 0), TorsionIndex(7, 2, 3)]:
            vals = {ord_w(G, a, c) for c in orbit.members}
            assert len(vals) == 1


def test_galois_equivariance():
    G = preset_subgroup("split_normalizer", 7)
    cusps = enumerate_cusps(G)
    rng = random.Random(11)
    mats = sorted(G.elements)
    pool = all_indices(7)
    for _ in range(12):
        gamma = rng.choice(mats)
        a = rng.choice(pool)
        c = rng.choice(cusps)
        moved = cusp_containing(G, mat_vec(gamma, c.rep, 7))
        assert ord_w(G, a, moved) == ord_w(G, a.times_matrix(gamma), c)


def perm_det(rows):
    k = len(rows)
    total = 0
    for perm in itertools.permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(k):
            term *= rows[i][perm[i]]
        total += term
    return total


def frac_rank(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-9, 9), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
)
def test_int_det_matches_permutation_expansion(rows):
    assert _int_det(rows) == perm_det(rows)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.tuples(st.just(r), st.integers(1, 6)).flatmap(
            lambda rc: st.lists(
                st.lists(st.integers(-9, 9), min_size=rc[1], max_size=rc[1]),
                min_size=rc[0],
                max_size=rc[0],
            )
        )
    )
)
def test_int_rank_matches_fraction_elimination(rows):
    assert len(_echelon(rows)[0]) == frac_rank(rows)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.tuples(st.just(r), st.integers(1, 6)).flatmap(
            lambda rc: st.lists(
                st.lists(st.integers(-3, 3), min_size=rc[1], max_size=rc[1]),
                min_size=rc[0],
                max_size=rc[0],
            )
        )
    )
)
def test_echelon_pivots_are_greedy_and_last_pivot_is_the_minor(rows):
    pivots, last = _echelon(rows)
    ranks = [frac_rank([r[:j] for r in rows]) for j in range(len(rows[0]) + 1)]
    assert list(pivots) == [j for j in range(len(rows[0])) if ranks[j + 1] > ranks[j]]
    minors = [perm_det([[rows[i][k] for k in pivots] for i in sub])
              for sub in itertools.combinations(range(len(rows)), len(pivots))]
    if len(pivots) == len(rows):
        assert last == minors[0]
    else:
        # rank-deficient: the last pivot is, up to sign, the minor on the rows swapped to the top
        assert last != 0 and abs(last) in map(abs, minors)


def test_runge_vector_examples():
    assert runge_vector([[1, -1]], 1) == (1, 0)
    assert runge_vector([[1, 0], [0, 1]], 1) == (1, 1)
    assert runge_vector([[2, 1], [1, 1]], 2) == (0, 1)


def test_runge_vector_errors():
    with pytest.raises(RankDeficient):
        runge_vector([[1, 1], [1, 1]], 1)
    with pytest.raises(RankDeficient):
        runge_vector([[0, 0]], 1)
    with pytest.raises(ValueError):
        runge_vector([[3, 0], [0, 1]], 2)
    with pytest.raises(ValueError):
        runge_vector([], 1)


def test_runge_vector_wrong_determinant_is_caught(monkeypatch):
    real = units._int_det
    monkeypatch.setattr(units, "_int_det", lambda rows: real(rows) + 1)
    with pytest.raises(BoundViolated):
        runge_vector([[2, 1], [1, 1]], 2)


def test_runge_vector_random_contract():
    rng = random.Random(7)
    done = 0
    while done < 200:
        s = rng.randint(1, 4)
        t = rng.randint(s, 8)
        A = rng.randint(1, 10)
        M = [[rng.randint(-A, A) for _ in range(t)] for _ in range(s)]
        if len(_echelon(M)[0]) < s:
            continue
        done += 1
        b = runge_vector(M, A)
        prods = [sum(M[i][j] * b[j] for j in range(t)) for i in range(s)]
        assert all(v > 0 for v in prods)
        assert len(set(prods)) == 1
        norm = sum(abs(x) for x in b)
        assert norm * norm <= s ** (s + 2) * A ** (2 * (s - 1))


def test_runge_unit_split_five():
    G = preset_subgroup("split_normalizer", 5)
    orbits = galois_orbits(G)
    rational = [o for o in orbits if o.degree == 1]
    assert len(rational) == 1
    u = runge_unit(G, rational, 1)
    assert u.l1_norm == 1
    assert len(u.exponents) == 1
    (a, b), = u.exponents.items()
    assert b in (-1, 1)
    assert u.bound_B == 1.0
    assert u.bound_B_squared == 1
    c_inf = enumerate_cusps(G)[0]
    assert u.divisor.orders[c_inf] > 0
    assert all(abs(v) <= G.order * 25 for v in u.divisor.orders.values())
    assert u.divisor.degree() == 0
    assert u.lambda_budget_relaxed == 9 * G.order * 5
    assert u.lambda_budget_log2 < u.lambda_budget_relaxed


def test_runge_unit_split_seven_conjugate_orbit():
    G = preset_subgroup("split_normalizer", 7)
    orbits = galois_orbits(G)
    target = [o for o in orbits if o.degree == 3]
    u = runge_unit(G, target, 1)
    assert len(target[0].members) == 3
    for c in target[0].members:
        assert u.divisor.orders[c] > 0


def test_runge_unit_both_singletons_positive():
    G = preset_subgroup("borel", 7)
    for orbit in galois_orbits(G):
        u = runge_unit(G, [orbit], 1)
        for c in orbit.members:
            assert u.divisor.orders[c] > 0


def test_runge_unit_errors():
    G5 = preset_subgroup("split_normalizer", 5)
    orbits = galois_orbits(G5)
    with pytest.raises(SigmaNotProper):
        runge_unit(G5, [], 1)
    with pytest.raises(SigmaNotProper):
        runge_unit(G5, orbits, 1)
    with pytest.raises(RungeConditionFailed):
        runge_unit(G5, [orbits[0]], 2)

    full = preset_subgroup("full", 5)
    with pytest.raises(SigmaNotProper):
        runge_unit(full, galois_orbits(full), 1)
    with pytest.raises(SigmaNotProper):
        runge_unit(full, galois_orbits(G5)[:1], 1)


def test_cusp_divisor_degree():
    G = preset_subgroup("split_normalizer", 5)
    cusps = enumerate_cusps(G)
    d = CuspDivisor({cusps[0]: 2, cusps[1]: -1, cusps[2]: -1})
    assert d.degree() == 0


GAMMA1_47 = "N=47\n1 1 0 1\n1 0 0 5\n"


def test_runge_unit_gamma1_47_bound_beyond_float_range():
    # B^2 is far beyond float range here: bound_B and the budgets become inf
    G = parse_group_text(GAMMA1_47)
    orbits = galois_orbits(G)
    assert sorted(o.degree for o in orbits) == [1] * 23 + [23]
    rational = [o for o in orbits if o.degree == 1]
    u = runge_unit(G, rational, 23)
    assert u.l1_norm ** 2 <= u.bound_B_squared
    assert u.bound_B_squared > 2 ** 1024
    assert u.bound_B == u.lambda_budget_log2 == u.lambda_budget_relaxed == float("inf")
    for o in rational:
        assert u.divisor.orders[o.members[0]] > 0
