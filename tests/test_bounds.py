"""Tests for the explicit bound formulas and the application checkers.

Log-bearing values are checked by containment against high-precision
mpmath oracles; log-free values must come out as exact rationals.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rungemod.bounds as bounds
from rungemod.analytic import RealInterval
from rungemod.bounds import (
    KAPPA_SPLIT_CARTAN,
    CurveInput,
    bound_tbo,
    bound_th1,
    bound_tspto,
    calR,
    conductor_cap,
    grh_level_cap,
    height_rational,
    is_probable_prime,
    pellarin_degree,
    serre_check,
    split_cartan_level_cap,
    three_prime_check,
    three_prime_threshold,
    twist_equation,
)
from rungemod.errors import BoundViolated, DegenerateJ, HypothesisFailed, NotDefinedOverQ, PrecisionExhausted
from rungemod.modnt import generate_subgroup, preset_subgroup


def dyadic(x) -> Fraction:
    sign, man, exp, bc = x._mpf_ if hasattr(x, "_mpf_") else mp.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


def contains(iv: RealInterval, fr: Fraction) -> bool:
    return iv.lo_fraction() <= fr <= iv.hi_fraction()


def log_oracle(x: Fraction) -> Fraction:
    with mp.workdps(60):
        return dyadic(mp.log(mp.mpf(x.numerator) / x.denominator))


def small_primes(limit: int):
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            for k in range(i * i, limit + 1, i):
                sieve[k] = False
    return [i for i, ok in enumerate(sieve) if ok]


# ------------------------------------------------------------------ height


def test_height_examples():
    z = height_rational(0)
    assert z.lo_fraction() == z.hi_fraction() == 0
    assert contains(height_rational(-2), log_oracle(Fraction(2)))
    assert contains(height_rational(Fraction(3, 2)), log_oracle(Fraction(3)))
    assert contains(height_rational(Fraction(2, 7)), log_oracle(Fraction(7)))


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4))
def test_height_properties(j):
    h = height_rational(j)
    assert h.lo_fraction() >= 0
    if j != 0:
        flipped = height_rational(1 / j)
        assert h.lo_fraction() <= flipped.hi_fraction()
        assert flipped.lo_fraction() <= h.hi_fraction()


def test_curve_input():
    c = CurveInput.from_j(Fraction(7, 2))
    assert not c.is_integer and c.j == Fraction(7, 2)
    assert CurveInput.from_j(-5).is_integer


# -------------------------------------------------------------------- calR


def test_calr_examples():
    r = calR(7, [])
    assert r.value.lo_fraction() == r.value.hi_fraction() == 0
    assert r.primes_used == ()
    r = calR(6, [2, 3])
    want = log_oracle(Fraction(2)) + log_oracle(Fraction(3)) / 2
    assert contains(r.value, want)
    assert r.primes_used == (2, 3)
    r = calR(5, [3])
    assert r.value.hi_fraction() == 0


def test_calr_cap():
    for n in (2, 6, 30, 210, 97):
        r = calR(n, [2, 3, 5, 7, 97])
        assert r.value.lo_fraction() <= r.cap.hi_fraction()
        assert contains(r.cap, log_oracle(Fraction(n)))


def test_calr_rejects_nonprime():
    with pytest.raises(ValueError):
        calR(6, [4])


# --------------------------------------------------------------------- th1


def test_th1_split_values():
    rep = bound_th1(preset_subgroup("split_normalizer", 7))
    assert rep.inputs["coefficient"] == "105840"
    assert contains(rep.value_log, 105840 * log_oracle(Fraction(7)))
    assert rep.applicable
    rep = bound_th1(preset_subgroup("split_normalizer", 5))
    assert rep.inputs["coefficient"] == "24000"
    assert contains(rep.value_log, 24000 * log_oracle(Fraction(5)))


def test_th1_transitive_rejected():
    with pytest.raises(HypothesisFailed):
        bound_th1(preset_subgroup("full", 5))


def test_th1_needs_full_determinant():
    G = generate_subgroup(5, [(1, 1, 0, 1), (0, 4, 1, 0)])
    with pytest.raises(NotDefinedOverQ):
        bound_th1(G)


# --------------------------------------------------------------------- tbo


def test_tbo_exact_integer():
    rep = bound_tbo(1, 72, 7, 0)
    assert rep.value_exact == 740880
    assert rep.value_log.lo_fraction() == rep.value_log.hi_fraction() == 740880


def test_tbo_oracle_s2():
    r = calR(10, [2])
    rep = bound_tbo(2, 32, 5, r)
    want = 4 * Fraction(32 * 25) ** 2 * 5 * (log_oracle(Fraction(2)) + 30)
    assert contains(rep.value_log, want)
    assert rep.value_exact is None


def test_tbo_odd_s_root():
    # s = 3 brings in a sqrt(3) factor
    rep = bound_tbo(3, 10, 5, 0)
    with mp.workdps(60):
        want = dyadic(mp.mpf(3) ** mp.mpf("2.5")) * Fraction(10 * 25) ** 3 * 5 * 30
    assert contains(rep.value_log, want)
    # s = 9 collapses again: 9^{11/2} = 3^11
    rep = bound_tbo(9, 2, 3, 0)
    assert rep.value_exact == Fraction(3) ** 11 * Fraction(2 * 9) ** 9 * 3 * 30


def test_tbo_dominates_th1_at_s1():
    for p in (5, 7, 11):
        G = preset_subgroup("split_normalizer", p)
        th1 = bound_th1(G)
        tbo = bound_tbo(1, G.order, p, 0)
        assert tbo.value_log.lo_fraction() >= th1.value_log.hi_fraction()


def test_tbo_monotone():
    base = bound_tbo(2, 20, 5, 1).value_log.hi_fraction()
    assert bound_tbo(3, 20, 5, 1).value_log.lo_fraction() >= base
    assert bound_tbo(2, 21, 5, 1).value_log.lo_fraction() >= base
    assert bound_tbo(2, 20, 6, 1).value_log.lo_fraction() >= base
    assert bound_tbo(2, 20, 5, 2).value_log.lo_fraction() >= base


def test_tbo_validation():
    with pytest.raises(ValueError):
        bound_tbo(0, 72, 7, 0)
    with pytest.raises(ValueError):
        bound_tbo(1, 72, 7, -1)


# ------------------------------------------------------------------- tspto


def test_tspto_values():
    rep = bound_tspto(11)
    assert contains(rep.value_log, 253 * log_oracle(Fraction(11)))
    assert rep.value_exact_form == "23·p·log p"
    rep = bound_tspto(3)
    assert contains(rep.value_log, 69 * log_oracle(Fraction(3)))


def test_tspto_below_th1_specialization():
    # 23 p log p vs 60 p^2 (p-1)^2 log p reduces to an integer comparison
    for p in small_primes(10 ** 4):
        if p == 2:
            continue
        assert 23 * p < 60 * p * p * (p - 1) ** 2
    rep = bound_tspto(7)
    spec = RealInterval.from_int(7, 128).log().scale_fraction(Fraction(60 * 49 * 36))
    assert rep.value_log.hi_fraction() < spec.lo_fraction()


def test_tspto_validation():
    for bad in (2, 9, 1):
        with pytest.raises(ValueError):
            bound_tspto(bad)


def test_report_round_up_nests():
    for rep128, rep256 in [
        (bound_th1(preset_subgroup("split_normalizer", 7)), bound_th1(preset_subgroup("split_normalizer", 7), precision=256)),
        (bound_tspto(11), bound_tspto(11, precision=256)),
    ]:
        assert rep256.value_log.hi_fraction() <= rep128.value_log.hi_fraction()
        assert rep256.value_log.lo_fraction() >= rep128.value_log.lo_fraction()


# ---------------------------------------------------------------- pellarin


def test_pellarin_exact_cases():
    v = pellarin_degree(1, 0)
    assert v.lo_fraction() == v.hi_fraction() == Fraction(10) ** 82
    v = pellarin_degree(2, 0)
    assert v.lo_fraction() == 16 * Fraction(10) ** 82


def test_pellarin_oracles():
    v = pellarin_degree(1, height_rational(2))
    want = Fraction(10) ** 82 * (1 + log_oracle(Fraction(2))) ** 2
    assert contains(v, want)
    v = pellarin_degree(3, 0)
    want = Fraction(10) ** 82 * 81 * log_oracle(Fraction(3)) ** 2
    assert contains(v, want)


def test_pellarin_monotone():
    lo = pellarin_degree(1, Fraction(1)).hi_fraction()
    assert pellarin_degree(2, Fraction(1)).lo_fraction() >= lo
    assert pellarin_degree(1, Fraction(2)).lo_fraction() >= lo


def test_pellarin_validation():
    with pytest.raises(ValueError):
        pellarin_degree(0, 0)
    with pytest.raises(ValueError):
        pellarin_degree(1, Fraction(-1))


# -------------------------------------------------------------- level caps


def max_power_leq(p: int, cap: Fraction) -> int:
    n, pw = 0, p
    while pw <= cap:
        n += 1
        pw *= p
    return n


def test_split_cartan_cap_exact():
    cap = split_cartan_level_cap(0)
    assert cap.cap_exact == KAPPA_SPLIT_CARTAN
    assert cap.max_n(3) == max_power_leq(3, KAPPA_SPLIT_CARTAN)
    assert cap.max_n(11) == max_power_leq(11, KAPPA_SPLIT_CARTAN)
    assert cap.max_n(10 ** 100) == 0


def test_split_cartan_cap_paths_agree():
    j = 12345
    exactish = split_cartan_level_cap(lambda prec: height_rational(j, prec))
    fixed = split_cartan_level_cap(height_rational(j))
    assert exactish.max_n(11) == fixed.max_n(11) == 81
    # feeding the height cap of a prime
    cap = split_cartan_level_cap(bound_tspto(11).value_log)
    assert cap.max_n(11) == 85


def test_split_cartan_cap_monotone_in_p():
    cap = split_cartan_level_cap(Fraction(3))
    ns = [cap.max_n(p) for p in (2, 3, 5, 7, 11, 101, 10 ** 30)]
    assert ns == sorted(ns, reverse=True)


def test_split_cartan_cap_coarse_interval_exhausts():
    lo = RealInterval.from_int(1, 64)
    hi = RealInterval.from_int(10, 64)
    wide = RealInterval(lo=lo.lo, hi=hi.hi, prec=64)
    cap = split_cartan_level_cap(wide)
    with pytest.raises(PrecisionExhausted):
        cap.max_n(2)


def test_grh_cap():
    g = grh_level_cap(1)
    assert g.grh_constant_unknown
    assert abs(g.value.hi_fraction()) < Fraction(1, 10 ** 30)
    g = grh_level_cap(121)
    with mp.workdps(60):
        want = dyadic(mp.log(121) * mp.log(mp.log(242)) ** 6)
    assert contains(g.value, want)
    with pytest.raises(ValueError):
        grh_level_cap(0)


# ------------------------------------------------------------------ twists


def test_conductor_cap_values():
    assert conductor_cap(1729) == 2 ** 8 * 3 ** 5 * 1729 ** 2
    assert conductor_cap(-1) == 2 ** 8 * 3 ** 5 * 1729 ** 2
    for bad in (0, 1728):
        with pytest.raises(DegenerateJ):
            conductor_cap(bad)
    with pytest.raises(ValueError):
        conductor_cap(Fraction(3, 2))


def test_twist_examples():
    w = twist_equation(1729)
    assert (w.a4, w.a6, w.discriminant) == (-36, -1, 1729 ** 2)
    w = twist_equation(1726)
    assert (w.a4, w.a6) == (18, Fraction(1, 2))
    assert w.discriminant == Fraction(1726 ** 2, -8)
    for bad in (0, 1728):
        with pytest.raises(DegenerateJ):
            twist_equation(bad)


def generic_weierstrass_invariants(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    assert 4 * b8 == b2 * b6 - b4 * b4
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    c4 = b2 * b2 - 24 * b4
    return disc, c4 ** 3 / disc


def test_twist_random_j_oracle():
    rng = random.Random(1728)
    seen = 0
    while seen < 100:
        j = Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 1000))
        if j in (0, 1728):
            continue
        seen += 1
        w = twist_equation(j)
        disc, jback = generic_weierstrass_invariants(w.a1, w.a2, w.a3, w.a4, w.a6)
        assert disc == w.discriminant == j * j / (j - 1728) ** 3
        assert jback == j


# ---------------------------------------------------------------- checkers


def test_is_probable_prime():
    primes = set(small_primes(10 ** 4))
    for n in range(10 ** 4):
        assert is_probable_prime(n) == (n in primes)
    assert is_probable_prime(2 ** 89 - 1)
    assert not is_probable_prime(561)
    assert not is_probable_prime(3825123056546413051)


def test_serre_check_basic():
    rep = serre_check(11, 1)
    assert rep.integral_consistent
    assert rep.max_n == max_power_leq(11, KAPPA_SPLIT_CARTAN)
    rep = serre_check(3, 0)
    assert rep.integral_consistent
    assert rep.max_n == max_power_leq(3, KAPPA_SPLIT_CARTAN)


def test_serre_check_integrality_boundary():
    # |j| = p^{23p} sits exactly on the height cap
    assert serre_check(11, 11 ** 253).integral_consistent
    assert not serre_check(11, 11 ** 254).integral_consistent
    assert not serre_check(11, -(11 ** 254)).integral_consistent


def test_serre_check_max_n_nonincreasing():
    j = 5077
    ns = [serre_check(p, j).max_n for p in (3, 5, 7, 11, 13, 17, 19, 23)]
    assert ns == sorted(ns, reverse=True)


def test_serre_check_validation():
    with pytest.raises(ValueError):
        serre_check(2, 1)
    with pytest.raises(ValueError):
        serre_check(9, 1)
    with pytest.raises(ValueError):
        serre_check(11, Fraction(1, 2))


def test_three_prime_small_triple_feasible():
    rep = three_prime_check(11, 13, 17)
    assert rep.feasible and rep.product == 11 * 13 * 17


def test_three_prime_validation():
    with pytest.raises(ValueError):
        three_prime_check(7, 11, 13)
    with pytest.raises(ValueError):
        three_prime_check(13, 11, 17)
    with pytest.raises(ValueError):
        three_prime_check(11, 15, 17)


def test_three_prime_threshold_boundary():
    thr = three_prime_threshold()
    assert 10 ** 90 < thr < 10 ** 91
    assert thr == three_prime_threshold()
    # certified on both sides of the crossover
    from rungemod.bounds import _three_prime_cap_at

    assert thr ** 3 > _three_prime_cap_at(thr, 512).hi_fraction()
    assert (thr - 1) ** 3 <= _three_prime_cap_at(thr - 1, 512).lo_fraction()


def test_three_prime_threshold_unbracketed_cap_is_caught(monkeypatch):
    # a cap of 0 rejects m = 11 too, so the bisection has no bracket
    monkeypatch.setattr(bounds, "_three_prime_cap_at", lambda m, prec: RealInterval.from_int(0, prec))
    with pytest.raises(BoundViolated):
        three_prime_threshold()


def test_three_prime_rejects_past_threshold():
    thr = three_prime_threshold()
    m = thr if thr % 2 else thr + 1
    found = []
    while len(found) < 3:
        if is_probable_prime(m):
            found.append(m)
        m += 2
    p, q, r = found
    assert not three_prime_check(p, q, r).feasible
