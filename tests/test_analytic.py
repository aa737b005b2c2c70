"""Tests for certified j / Siegel evaluation and the inequality checks.

Oracles: exact Fraction arithmetic for field operations and the
fixed-point kernel, the Fraction tail cuts for the int ones, mpmath theta
functions at high working precision for j, and a direct high-precision
product for |g_a|.  Enclosures must contain the oracle values; verdicts
on the inequalities must certify without violations.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

import rungemod.analytic as analytic
from rungemod.analytic import (
    DEFAULT_PRECISION,
    CheckReport,
    ErrorBall,
    RealInterval,
    SweepResult,
    UpperHalfPoint,
    _dyadic_ceil,
    _escalate,
    _exp_2pii,
    _sigma3_prefix,
    _tail_cut_e4,
    _tail_cut_geometric,
    eval_j,
    eval_siegel,
    mobius_apply,
    nearest_cusp,
    padic_siegel_order,
    reduce_fundamental,
    run_all_sweeps,
    sweep_cdplus,
    sweep_everysimple,
    sweep_pqj,
    sweep_siegel,
    sweep_smallj,
    verify_everysimple,
    verify_pqj,
    verify_siegel_bounds,
)
from rungemod.cusps import cusp_containing
from rungemod.errors import BoundViolated, Indeterminate, NotInPlusRegion, PrecisionExhausted
from rungemod.modnt import preset_subgroup
from rungemod.units import TorsionIndex


def dyadic(x) -> Fraction:
    """Exact value of an mpmath float, without re-rounding to context precision."""
    sign, man, exp, bc = x._mpf_ if hasattr(x, "_mpf_") else mp.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


def interval_contains(iv: RealInterval, fr: Fraction) -> bool:
    return iv.lo_fraction() <= fr <= iv.hi_fraction()


def mp_from_fraction(fr: Fraction):
    return mp.mpf(fr.numerator) / fr.denominator


def j_oracle(re: Fraction, im: Fraction, dps: int = 60):
    with mp.workdps(dps):
        tau = mp.mpc(mp_from_fraction(re), mp_from_fraction(im))
        qn = mp.exp(1j * mp.pi * tau)
        t2 = mp.jtheta(2, 0, qn)
        t3 = mp.jtheta(3, 0, qn)
        t4 = mp.jtheta(4, 0, qn)
        return 32 * (t2 ** 8 + t3 ** 8 + t4 ** 8) ** 3 / (t2 * t3 * t4) ** 8


def siegel_oracle(a: TorsionIndex, re: Fraction, im: Fraction, terms: int):
    """g_a(tau) by its product formula at the current mpmath precision."""
    n = a.n
    al = mp.mpf(a.a1) / n
    a2 = mp.mpf(a.a2) / n
    tau = mp.mpc(mp_from_fraction(re), mp_from_fraction(im))
    q = mp.exp(2j * mp.pi * tau)
    qz = mp.exp(2j * mp.pi * (al * tau + a2))
    b2 = al * al - al + mp.mpf(1) / 6
    g = -mp.exp(2j * mp.pi * tau * (b2 / 2)) * mp.exp(2j * mp.pi * (a2 * (al - 1) / 2)) * (1 - qz)
    for k in range(1, terms):
        g *= (1 - q ** k * qz) * (1 - q ** k / qz)
    return g


def siegel_abs_oracle(a: TorsionIndex, re: Fraction, im: Fraction, dps: int = 45, terms: int = 90):
    with mp.workdps(dps):
        return abs(siegel_oracle(a, re, im, terms))


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=64)


# ---------------------------------------------------------------- intervals


@settings(max_examples=150, deadline=None)
@given(small_fractions, small_fractions)
def test_interval_field_ops_contain_exact(a, b):
    p = 64
    ia = RealInterval.from_fraction(a, p)
    ib = RealInterval.from_fraction(b, p)
    assert interval_contains(ia.add(ib), a + b)
    assert interval_contains(ia.sub(ib), a - b)
    assert interval_contains(ia.mul(ib), a * b)
    assert interval_contains(ia.neg(), -a)
    assert interval_contains(ia.abs(), abs(a))
    assert interval_contains(ia.scale_fraction(b), a * b)


@settings(max_examples=80, deadline=None)
@given(small_fractions)
def test_interval_exp_log_contain_oracle(a):
    p = 64
    iv = RealInterval.from_fraction(a, p).exp()
    with mp.workdps(60):
        want = dyadic(mp.exp(mp_from_fraction(a)))
    assert interval_contains(iv, want)
    if a > 0:
        lg = RealInterval.from_fraction(a, p).log()
        with mp.workdps(60):
            want = dyadic(mp.log(mp_from_fraction(a)))
        assert interval_contains(lg, want)


def round_at(v: Fraction, prec: int, up: bool) -> Fraction:
    """v rounded down (or up) to a prec-bit dyadic, in exact arithmetic."""
    if v == 0:
        return v
    e = abs(v).numerator.bit_length() - abs(v).denominator.bit_length()
    if Fraction(2) ** e > abs(v):
        e -= 1
    unit = Fraction(2) ** (e + 1 - prec)  # 2^(prec-1) <= |v| / unit < 2^prec
    k = v / unit
    return (-(-k.numerator // k.denominator) if up else k.numerator // k.denominator) * unit


# endpoints with up to 200-bit mantissas, so that even an integer scale must round
interval_ends = st.builds(from_man_exp, st.integers(-(1 << 200), 1 << 200), st.integers(-300, 20))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([53, 64, 160]),
    interval_ends,
    interval_ends,
    st.one_of(st.just(0), st.integers(-1000, 1000), st.fractions(-100, 100, max_denominator=10 ** 9)),
)
def test_scale_fraction_is_exact_and_tight(prec, a, b, fr):
    # each end is the exact end * fr, rounded outward once at prec bits
    exact = analytic._mpf_to_fraction
    lo, hi = sorted((a, b), key=exact)
    got = RealInterval(lo, hi, prec).scale_fraction(fr)
    ends = sorted((exact(lo) * fr, exact(hi) * fr))
    assert got.lo_fraction() == round_at(ends[0], prec, up=False)
    assert got.hi_fraction() == round_at(ends[1], prec, up=True)


def test_interval_log_rejects_zero():
    iv = RealInterval.from_fraction(Fraction(0), 64)
    with pytest.raises(Indeterminate):
        iv.log()


def test_pi_interval_brackets_pi():
    iv = RealInterval.pi(128)
    with mp.workdps(80):
        want = dyadic(mp.pi)
    assert interval_contains(iv, want)
    assert Fraction(314159, 100000) < iv.lo_fraction() < iv.hi_fraction() < Fraction(314160, 100000)


EPS = Fraction(1, 2 ** 20)


def _iv(lo: Fraction, hi: Fraction) -> RealInterval:
    return RealInterval(RealInterval.from_fraction(lo, 64).lo, RealInterval.from_fraction(hi, 64).hi, 64)


@pytest.mark.parametrize(
    "t", [0, 2500, Fraction(1, 1024), RealInterval.from_int(2500, 64)], ids=["0", "2500", "1/1024", "interval"]
)
def test_le_lt_tie_semantics(t):
    v = t.lo_fraction() if isinstance(t, RealInterval) else Fraction(t)
    # [t, t]: t <= t holds and t < t fails
    assert _iv(v, v).le(t, "le") is True
    assert _iv(v, v).lt(t, "lt") is False
    # [t - eps, t]: every point is <= t, but not every point is < t
    assert _iv(v - EPS, v).le(t, "le") is True
    with pytest.raises(Indeterminate, match="^lt straddles$"):
        _iv(v - EPS, v).lt(t, "lt straddles")
    # [t, t + eps]: not every point is <= t, and none is < t
    with pytest.raises(Indeterminate, match="^le straddles$"):
        _iv(v, v + EPS).le(t, "le straddles")
    assert _iv(v, v + EPS).lt(t, "lt") is False
    # clear of t on either side
    assert _iv(v - 2 * EPS, v - EPS).lt(t, "lt") is True
    assert _iv(v + EPS, v + 2 * EPS).le(t, "le") is False


def test_le_lt_against_a_wide_interval():
    # hi is compared with t.lo and lo with t.hi
    t = _iv(Fraction(1), 1 + EPS)
    assert _iv(Fraction(1), Fraction(1)).le(t, "le") is True
    assert _iv(1 + EPS, 1 + EPS).lt(t, "lt") is False
    with pytest.raises(Indeterminate):
        _iv(1 + EPS, 1 + EPS).le(t, "le")
    with pytest.raises(Indeterminate):
        _iv(Fraction(1), Fraction(1)).lt(t, "lt")


@settings(max_examples=150, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-12, 12), st.sampled_from([1, 3, 8]))
def test_le_lt_agree_with_exact_comparison(a, b, k, den):
    # every form of t decides as exact Fraction comparisons of the endpoints do
    lo, hi = sorted((Fraction(a, 8), Fraction(b, 8)))
    iv, v = _iv(lo, hi), Fraction(k, den)
    forms = [v, RealInterval.from_fraction(v, 64)] + ([k] if den == 1 else [])
    for strict in (False, True):
        below = (lambda x: x < v) if strict else (lambda x: x <= v)
        want = True if below(hi) else (False if not below(lo) else None)
        for t in forms:
            try:
                got = iv.lt(t, "undecided") if strict else iv.le(t, "undecided")
            except Indeterminate:
                got = None
            assert got is want


def test_report_holds_on_an_exact_zero():
    assert analytic._report("x", RealInterval.from_int(0, 128), 128).holds is True


def test_report_margin_is_rounded_down():
    # lo = -(1 + 2^-70) is not a float; rounding toward zero would print -1.0, above it
    lo = from_man_exp(-((1 << 70) + 1), -70)
    rep = analytic._report("x", RealInterval(lo, lo, 128), 128)
    assert rep.holds is False
    assert Fraction(rep.margin) <= analytic._mpf_to_fraction(lo)


def test_cdplus_margin_is_rounded_down(monkeypatch):
    # |j| = 2499 + 2^-60 exactly, so the margin is the slack 1 - 2^-60, which rounds to nearest as 1.0
    j = ErrorBall(from_man_exp((2499 << 60) + 1, -60), analytic.fzero, analytic.fzero, 160)
    monkeypatch.setattr(analytic, "eval_j", lambda tau, prec: j)
    rep = analytic._cdplus_report(UpperHalfPoint(Fraction(0), Fraction(1)), 128)
    assert rep.holds is True
    assert Fraction(rep.margin) <= 1 - Fraction(1, 2 ** 60)


# ------------------------------------------------------------------- balls


@settings(max_examples=120, deadline=None)
@given(small_fractions, small_fractions, small_fractions, small_fractions)
def test_ball_ring_ops_contain_exact(a, b, c, d):
    p = 64
    z = ErrorBall.from_fractions(a, b, p)
    w = ErrorBall.from_fractions(c, d, p)
    assert z.add(w).contains_point(a + c, b + d)
    assert z.sub(w).contains_point(a - c, b - d)
    assert z.mul(w).contains_point(a * c - b * d, a * d + b * c)
    assert z.mul_int(3).contains_point(3 * a, 3 * b)
    assert z.neg().contains_point(-a, -b)
    assert z.rotate90().contains_point(-b, a)


@settings(max_examples=120, deadline=None)
@given(small_fractions, small_fractions)
def test_ball_inverse_contains_exact(a, b):
    nn = a * a + b * b
    if nn < Fraction(1, 1024):
        return
    z = ErrorBall.from_fractions(a, b, 96)
    inv = z.inverse()
    assert inv.contains_point(a / nn, -b / nn)


def test_ball_inverse_rejects_zero():
    z = ErrorBall.from_fractions(Fraction(0), Fraction(0), 64)
    with pytest.raises(Indeterminate):
        z.inverse()


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=-2, max_value=2, max_denominator=32),
    st.fractions(min_value=-2, max_value=2, max_denominator=32),
)
def test_ball_exp_contains_oracle(a, b):
    z = ErrorBall.from_fractions(a, b, 96).exp()
    with mp.workdps(70):
        w = mp.exp(mp.mpc(mp_from_fraction(a), mp_from_fraction(b)))
        re, im = dyadic(w.real), dyadic(w.imag)
    assert z.contains_point(re, im)


@settings(max_examples=80, deadline=None)
@given(small_fractions, small_fractions)
def test_ball_abs_interval_contains_oracle(a, b):
    z = ErrorBall.from_fractions(a, b, 96)
    with mp.workdps(70):
        want = dyadic(mp.sqrt(mp_from_fraction(a * a + b * b)))
    assert interval_contains(z.abs_interval(), want)


def test_ball_pow_int_exact():
    z = ErrorBall.from_fractions(Fraction(1, 2), Fraction(1, 3), 96)
    # (1/2 + i/3)^5 computed exactly
    re, im = Fraction(1, 2), Fraction(1, 3)
    zr, zi = Fraction(1), Fraction(0)
    for _ in range(5):
        zr, zi = zr * re - zi * im, zr * im + zi * re
    assert z.pow_int(5).contains_point(zr, zi)
    assert z.pow_int(0).contains_point(Fraction(1), Fraction(0))


# ------------------------------------------------------ fixed-point kernel


def covers(rad: Fraction, prop: Fraction, dre: Fraction, dim: Fraction) -> bool:
    """Exactly: rad >= prop + |dre + i dim|."""
    slack = rad - prop
    return slack >= 0 and dre * dre + dim * dim <= slack * slack


def abs_upper(re: int, im: int) -> Fraction:
    """An upper bound for |re + i im| that exceeds it by at most 2^-64."""
    return Fraction(math.isqrt((re * re + im * im) << 128) + 1, 1 << 64)


def fixed_pairs():
    """(w, x, y) with w in {64, 160, 1056} and x, y fixed-point balls with
    parts of both signs up to 4 in modulus and radii from 0 up to 2."""

    def balls(w):
        part = st.integers(-(1 << (w + 2)), 1 << (w + 2))
        ball = st.tuples(part, part, st.integers(0, 1 << (w + 1)))
        return st.tuples(st.just(w), ball, ball)

    return st.sampled_from([64, 160, 1056]).flatmap(balls)


@settings(max_examples=300, deadline=None)
@given(fixed_pairs())
def test_fixed_point_product_encloses_exact(case):
    w, (xr, xi, xe), (yr, yi, ye) = case
    zr, zi, zrad = analytic._fx_mul((xr, xi, xe), (yr, yi, ye), w)
    # everything in ulps of 2^-w: the exact product of the midpoints is
    # (xr + i xi)(yr + i yi) / 2^w, and the propagated radius is
    # (|x| ry + |y| rx + rx ry) / 2^w
    dre = Fraction(xr * yr - xi * yi, 1 << w) - zr
    dim = Fraction(xr * yi + xi * yr, 1 << w) - zi
    prop = (abs_upper(xr, xi) * ye + abs_upper(yr, yi) * xe + xe * ye) / (1 << w)
    assert covers(Fraction(zrad), prop, dre, dim)


mpf_values = st.builds(from_man_exp, st.integers(-(1 << 70), 1 << 70), st.integers(-1150, 2))
mpf_radii = st.one_of(
    st.just(analytic.fzero), st.builds(from_man_exp, st.integers(1, 1 << 30), st.integers(-1150, -10))
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([64, 160, 1056]), mpf_values, mpf_values, mpf_radii)
def test_fixed_point_round_trip_encloses(w, re, im, rad):
    exact = analytic._mpf_to_fraction
    ball = ErrorBall(re, im, rad, w)
    fr, fi, frad = fixed = analytic._fx(ball, w)
    unit = Fraction(1, 1 << w)
    assert covers(frad * unit, exact(rad), exact(re) - fr * unit, exact(im) - fi * unit)
    back = analytic._fx_ball(fixed, w, w)
    assert (exact(back.re), exact(back.im)) == (fr * unit, fi * unit)
    assert exact(back.rad) >= frad * unit


# The loops of eval_j and eval_siegel are checked against the same ball
# recurrences in exact arithmetic.  Ball products are isotone under
# inclusion, so each fixed-point ball must contain the exact one: its radius
# covers the exact radius plus the distance between the midpoints.


def spy(monkeypatch, *names):
    """Record (name, args, result) of each call to these analytic helpers."""
    calls = []
    for name in names:

        def record(*args, _name=name, _real=getattr(analytic, name)):
            calls.append((_name, args, _real(*args)))
            return calls[-1][2]

        monkeypatch.setattr(analytic, name, record)
    return calls


def exact_ball(x, w: int):
    return tuple(Fraction(v, 1 << w) for v in x)


def exact_mul(x, y):
    """Ball product with an exact midpoint and |.| bounded below, so its radius
    is at most the one exact ball arithmetic gives."""
    (xr, xi, xe), (yr, yi, ye) = x, y

    def abs_lower(re, im):
        s = re * re + im * im
        return Fraction(math.isqrt((s.numerator << 128) // s.denominator), 1 << 64)

    return xr * yr - xi * yi, xr * yi + xi * yr, abs_lower(xr, xi) * ye + abs_lower(yr, yi) * xe + xe * ye


def one_minus(x):
    return 1 - x[0], -x[1], x[2]


def assert_contains(fixed, ball, w: int):
    fr, fi, frad = exact_ball(fixed, w)
    assert covers(frad, ball[2], ball[0] - fr, ball[1] - fi)


@pytest.mark.parametrize("x, y", [(Fraction(-1, 2), Fraction(8661, 10000)), (Fraction(3, 10), Fraction(13, 10))])
def test_j_loop_contains_exact_ball_series(monkeypatch, x, y):
    calls = spy(monkeypatch, "_fx", "_fx_mul", "_fx_ball", "_tail_cut_e4", "_tail_cut_geometric")
    eval_j(UpperHalfPoint(x, y), precision=128)
    [(_, (_, w), qf)] = [c for c in calls if c[0] == "_fx"]
    # after the loop, _fx_mul forms A^2, A^3, P^2, P^3, P^6, P^12 and P^24 in that order
    muls = [c[1] for c in calls if c[0] == "_fx_mul"][-7:]
    acc_tail, prod = muls[0][0], muls[2][0]
    a3, p24 = [c[1][0] for c in calls if c[0] == "_fx_ball"]
    [(m, a_tail)] = [c[2] for c in calls if c[0] == "_tail_cut_e4"]
    [(T, _)] = [c[2] for c in calls if c[0] == "_tail_cut_geometric"]
    sig3 = _sigma3_prefix(m)
    q = qpow = exact_ball(qf, w)
    a_sum, p_prod = (Fraction(1), Fraction(0), Fraction(0)), (Fraction(1), Fraction(0), Fraction(0))
    for n in range(1, max(m, T) + 1):
        if n <= m:
            k = 240 * sig3[n]
            a_sum = tuple(s + k * v for s, v in zip(a_sum, qpow))
        if n <= T:
            p_prod = exact_mul(p_prod, one_minus(qpow))
        qpow = exact_mul(qpow, q)
    # the loop's acc is acc_tail less the tail of A, in ulps rounded up
    acc = acc_tail[:2] + (acc_tail[2] + ((-a_tail.numerator << w) // a_tail.denominator),)
    assert Fraction(acc_tail[2] - acc[2], 1 << w) >= a_tail
    assert_contains(acc, a_sum, w)
    assert_contains(prod, p_prod, w)
    a = exact_ball(acc_tail, w)
    assert_contains(a3, exact_mul(exact_mul(a, a), a), w)
    p = exact_ball(prod, w)
    p_pow = exact_mul(exact_mul(p, p), p)
    for _ in range(3):
        p_pow = exact_mul(p_pow, p_pow)
    assert_contains(p24, p_pow, w)


@pytest.mark.parametrize(
    "a, x, y",
    [
        (TorsionIndex(13, 12, 5), Fraction(37, 100), Fraction(9, 10)),
        (TorsionIndex(13, 1, 5), Fraction(37, 100), Fraction(1)),
        (TorsionIndex(7, 2, 3), Fraction(-1, 5), Fraction(1)),
    ],
)
def test_siegel_loop_contains_exact_ball_product(monkeypatch, a, x, y):
    calls = spy(monkeypatch, "_fx", "_fx_ball", "_tail_cut_geometric")
    eval_siegel(a, UpperHalfPoint(x, y), precision=128)
    # _fx is applied to q, q q_z, q / q_z and q_z, in that order
    fx = [c for c in calls if c[0] == "_fx"]
    w = fx[0][1][1]
    q, up, down, z = [exact_ball(c[2], w) for c in fx]
    [(_, (prod, _, _), _)] = [c for c in calls if c[0] == "_fx_ball"]
    [T] = [c[2][0] for c in calls if c[0] == "_tail_cut_geometric"]
    p_prod = one_minus(z)
    for _ in range(T):
        p_prod = exact_mul(exact_mul(p_prod, one_minus(up)), one_minus(down))
        up, down = exact_mul(up, q), exact_mul(down, q)
    assert_contains(prod, p_prod, w)


def test_evaluations_compute_each_exponential_once(monkeypatch):
    # eval_siegel takes q, the prefactor with its phase, and q_z; 1/q_z is an inverse.
    # Neither evaluation recomputes |q| through abs_q_interval, nor takes ErrorBall.pow_int.
    counts = {"_exp_2pii": 0, "abs_q_interval": 0, "pow_int": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counting(analytic, "_exp_2pii")
    counting(UpperHalfPoint, "abs_q_interval")
    counting(ErrorBall, "pow_int")
    for a in (TorsionIndex(7, 2, 3), TorsionIndex(5, 0, 2)):
        eval_siegel(a, UpperHalfPoint(Fraction(37, 100), Fraction(9, 10)), 128)
    assert counts == {"_exp_2pii": 6, "abs_q_interval": 0, "pow_int": 0}
    eval_j(UpperHalfPoint(Fraction(3, 10), Fraction(13, 10)), 128)
    assert counts == {"_exp_2pii": 7, "abs_q_interval": 0, "pow_int": 0}


def test_exp_2pii_special_points():
    p = 96
    assert _exp_2pii(Fraction(0), Fraction(0), p).contains_point(Fraction(1), Fraction(0))
    assert _exp_2pii(Fraction(1, 2), Fraction(0), p).contains_point(Fraction(-1), Fraction(0))
    assert _exp_2pii(Fraction(1, 4), Fraction(0), p).contains_point(Fraction(0), Fraction(1))
    # |q| for tau = i is e^{-2 pi}
    with mp.workdps(70):
        want = dyadic(mp.exp(-2 * mp.pi))
    q = _exp_2pii(Fraction(0), Fraction(1), p)
    assert interval_contains(q.abs_interval(), want)


# --------------------------------------------------------------- reduction


def test_reduce_fundamental_wrong_matrix_is_caught(monkeypatch):
    real = analytic.mobius_apply
    monkeypatch.setattr(
        analytic, "mobius_apply", lambda m, t: UpperHalfPoint(real(m, t).re + 1, real(m, t).im)
    )
    with pytest.raises(BoundViolated):
        reduce_fundamental(UpperHalfPoint(Fraction(1, 3), Fraction(1, 2)))


def test_upper_half_point_validation():
    with pytest.raises(ValueError):
        UpperHalfPoint(0, 0)
    with pytest.raises(ValueError):
        UpperHalfPoint(1, -2)
    t = UpperHalfPoint.from_complex(0.25 + 1.5j)
    assert t.re == Fraction(1, 4) and t.im == Fraction(3, 2)


def test_reduce_fundamental_examples():
    t, g = reduce_fundamental(UpperHalfPoint(0, 2))
    assert (t.re, t.im) == (0, 2) and g == (1, 0, 0, 1)
    t, g = reduce_fundamental(UpperHalfPoint(5, 2))
    assert (t.re, t.im) == (0, 2) and g == (1, -5, 0, 1)
    t, g = reduce_fundamental(UpperHalfPoint(0, Fraction(1, 2)))
    assert (t.re, t.im) == (0, 2) and g == (0, -1, 1, 0)


def in_domain(t: UpperHalfPoint) -> bool:
    if not (Fraction(-1, 2) <= t.re < Fraction(1, 2)):
        return False
    norm = t.re * t.re + t.im * t.im
    if norm < 1:
        return False
    if norm == 1 and t.re > 0:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=-8, max_value=8, max_denominator=128),
    st.fractions(min_value=Fraction(1, 64), max_value=8, max_denominator=128),
)
def test_reduce_fundamental_random(x, y):
    tau = UpperHalfPoint(x, y)
    red, g = reduce_fundamental(tau)
    a, b, c, d = g
    assert a * d - b * c == 1
    assert in_domain(red)
    moved = mobius_apply(g, tau)
    assert moved.re == red.re and moved.im == red.im
    again, gid = reduce_fundamental(red)
    assert gid == (1, 0, 0, 1) and again.re == red.re


def test_reduce_boundary_conventions():
    # right edge folds onto the left edge
    t, _ = reduce_fundamental(UpperHalfPoint(Fraction(1, 2), 2))
    assert t.re == Fraction(-1, 2) and t.im == 2
    # unit-circle points keep the arc with re <= 0
    t, _ = reduce_fundamental(UpperHalfPoint(Fraction(3, 5), Fraction(4, 5)))
    assert in_domain(t)
    t, _ = reduce_fundamental(UpperHalfPoint(Fraction(-3, 5), Fraction(4, 5)))
    assert in_domain(t) and t.re <= 0


# ------------------------------------------------------------------ eval_j


def test_j_classical_values():
    assert eval_j(UpperHalfPoint(0, 1)).contains_point(Fraction(1728))
    assert eval_j(UpperHalfPoint(0, 2)).contains_point(Fraction(287496))
    assert eval_j(UpperHalfPoint(7, 1)).contains_point(Fraction(1728))
    ball = eval_j(UpperHalfPoint(0, 1), precision=256)
    assert ball.contains_point(Fraction(1728))
    assert ball.radius_float() < 2.0 ** -260
    for y, want in [(1, 1728), (2, 287496)]:
        ball = eval_j(UpperHalfPoint(0, y), precision=1024)
        assert ball.contains_point(Fraction(want))
        assert ball.radius_float() < 2.0 ** -1020


def test_j_matches_theta_oracle():
    rng = random.Random(1205)
    pts = [
        (Fraction(-1, 2), Fraction(8661, 10000)),  # near the j = 0 corner
        (Fraction(0), Fraction(13, 10)),
        (Fraction(1, 3), Fraction(17, 8)),
        (Fraction(7, 2), Fraction(1, 3)),  # needs reduction
    ]
    for _ in range(8):
        pts.append(
            (Fraction(rng.randrange(-499, 500), 1000), Fraction(rng.randrange(400, 3000), 1000))
        )
    for re, im in pts:
        ball = eval_j(UpperHalfPoint(re, im))
        w = j_oracle(re, im)
        assert ball.contains_point(dyadic(w.real), dyadic(w.imag)), (re, im)


def test_j_series_anchor():
    # independent integer q-expansion of j: coefficients of q^{-1}, q^0, q^1
    K = 8
    sig = [0] * (K + 1)
    for d in range(1, K + 1):
        for k in range(d, K + 1, d):
            sig[k] += d ** 3
    assert tuple(sig) == _sigma3_prefix(K)
    A = [0] * (K + 1)
    A[0] = 1
    for n_ in range(1, K + 1):
        A[n_] = 240 * sig[n_]

    def mul_trunc(u, v):
        out = [0] * (K + 1)
        for i, ui in enumerate(u):
            if ui:
                for j_, vj in enumerate(v[: K + 1 - i]):
                    out[i + j_] += ui * vj
        return out

    A3 = mul_trunc(mul_trunc(A, A), A)
    B = [1] + [0] * K  # prod (1-x^n)^24
    for n_ in range(1, K + 1):
        factor = [0] * (K + 1)
        factor[0] = 1
        if n_ <= K:
            factor[n_] = -1
        for _ in range(24):
            B = mul_trunc(B, factor)
    inv = [0] * (K + 1)
    inv[0] = 1
    for n_ in range(1, K + 1):
        inv[n_] = -sum(B[i] * inv[n_ - i] for i in range(1, n_ + 1))
    series = mul_trunc(A3, inv)  # j * q as a power series in q
    assert series[:3] == [1, 744, 196884]


def test_j_nested_precision():
    rng = random.Random(77)
    for _ in range(1000):
        re = Fraction(rng.randrange(-499, 500), 1000)
        im = Fraction(rng.randrange(300, 3000), 1000)
        tau = UpperHalfPoint(re, im)
        b1 = eval_j(tau, precision=128)
        b2 = eval_j(tau, precision=256)
        assert b2.radius_float() < b1.radius_float()
        assert b1.intersects(b2)


def test_j_modular_invariance():
    rng = random.Random(4040)
    s_mat = (0, -1, 1, 0)
    for _ in range(100):
        tau = UpperHalfPoint(
            Fraction(rng.randrange(-499, 500), 1000), Fraction(rng.randrange(500, 2500), 1000)
        )
        moved = tau
        for _ in range(rng.randrange(1, 4)):
            if rng.randrange(2):
                moved = mobius_apply(s_mat, moved)
            else:
                moved = mobius_apply((1, rng.choice([-1, 1]), 0, 1), moved)
        assert eval_j(tau).intersects(eval_j(moved))


# -------------------------------------------------------------- eval_siegel


def exact_cut_e4(u: Fraction, target: Fraction):
    """The tail cut of _tail_cut_e4 in exact Fraction arithmetic."""
    m, pw = 1, u * u
    while 480 * (m + 1) ** 3 * pw > target:
        m, pw = m + 1, pw * u
    return m, 480 * (m + 1) ** 3 * pw


def exact_cut_geometric(u: Fraction, coeff: Fraction, target: Fraction):
    """The tail cut of _tail_cut_geometric in exact Fraction arithmetic."""
    T, pw = 1, u
    while pw > Fraction(1, 10) or coeff * pw / (1 - u) > target:
        T, pw = T + 1, pw * u
    return T, coeff * pw / (1 - u)


@pytest.mark.parametrize("prec", [128, 256, 512, 1024])
def test_tail_cuts_match_exact_oracle(prec):
    # Im tau = sqrt(3)/2 (the corner, longest cuts), i, 4i, and one
    # unreduced point of the size eval_siegel sees
    pts = [(Fraction(-1, 2), Fraction(8661, 10000)), (0, 1), (0, 4), (Fraction(1, 5), Fraction(1, 2))]
    target = Fraction(1, 2 ** (prec + 16))
    for re, im in pts:
        u = UpperHalfPoint(re, im).abs_q_interval(prec + 32).hi_fraction()
        cuts = [(_tail_cut_e4(u, target), exact_cut_e4(u, target))]
        for coeff in (Fraction(264, 10), Fraction(22, 10)):
            cuts.append((_tail_cut_geometric(u, coeff, target), exact_cut_geometric(u, coeff, target)))
        for (n, tail), (n_exact, tail_exact) in cuts:
            assert n_exact <= n <= n_exact + 1, (re, im, prec)
            assert tail <= target
            if n == n_exact:
                assert tail >= tail_exact


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=Fraction(1, 2 ** 1100), max_value=2))
def test_dyadic_ceil_is_a_tight_upper_bound(x):
    if x <= 0:
        return
    d = _dyadic_ceil(x)
    assert d >= x
    assert d - x <= x / 2 ** 62
    assert d.denominator & (d.denominator - 1) == 0


def test_geometric_cut_rejects_u_rounding_to_one():
    # 1 - 2^-80 rounds up to 1; the guard refuses at once instead of
    # running the loop to its iteration limit
    with pytest.raises(Indeterminate, match="reaches 1"):
        _tail_cut_geometric(1 - Fraction(1, 2 ** 80), Fraction(22, 10), Fraction(1, 2 ** 144))


def fraction_cut_e4(u_hi: Fraction, target: Fraction):
    """_tail_cut_e4 as it was in Fraction arithmetic, kept as an oracle."""
    u = _dyadic_ceil(u_hi)
    m = 1
    pw = _dyadic_ceil(u * u)
    while 480 * (m + 1) ** 3 * pw > target:
        m += 1
        pw = _dyadic_ceil(pw * u)
    return m, 480 * (m + 1) ** 3 * pw


def fraction_cut_geometric(u_hi: Fraction, coeff: Fraction, target: Fraction):
    """_tail_cut_geometric as it was in Fraction arithmetic, kept as an oracle."""
    u = _dyadic_ceil(u_hi)
    one_minus = 1 - u
    T = 1
    pw = u
    while pw > Fraction(1, 10) or coeff * pw / one_minus > target:
        T += 1
        pw = _dyadic_ceil(pw * u)
    return T, coeff * pw / one_minus


def dyadics(low_bits: int, top: Fraction):
    """Dyadic k / 2^e in (0, top], e from low_bits to 1100."""
    return st.integers(low_bits, 1100).flatmap(
        lambda e: st.integers(1, int(top * 2 ** e)).map(lambda k: Fraction(k, 2 ** e))
    )


@settings(max_examples=150, deadline=None)
@given(dyadics(5, Fraction(1, 32)), st.integers(128, 1024))
def test_int_e4_cut_is_the_fraction_cut(u, prec):
    target = Fraction(1, 2 ** (prec + 16))
    assert _tail_cut_e4(u, target) == fraction_cut_e4(u, target)


# u <= 15/16 keeps the oracle under 12000 steps at 1024 bits
@settings(max_examples=150, deadline=None)
@given(
    dyadics(4, Fraction(15, 16)), st.sampled_from([Fraction(264, 10), Fraction(22, 10)]), st.integers(128, 1024)
)
def test_int_geometric_cut_is_the_fraction_cut(u, coeff, prec):
    # target 1 also reaches the u^T <= 1/10 condition
    for target in (Fraction(1, 2 ** (prec + 16)), Fraction(1)):
        assert _tail_cut_geometric(u, coeff, target) == fraction_cut_geometric(u, coeff, target)


def test_siegel_half_example():
    # a = (0, 1/2) at 10i: log|g| = (1/12) log|q| + log 2 up to 3|q|
    # 3|q| = 3 e^{-20 pi} = 1.55e-27, so the comparison must stay exact
    a = TorsionIndex(2, 0, 1)
    iv = eval_siegel(a, UpperHalfPoint(0, 10)).abs_interval().log()
    with mp.workdps(60):
        want = dyadic(-20 * mp.pi / 12 + mp.log(2))
    tol = Fraction(2, 10 ** 27)
    assert abs(iv.lo_fraction() - want) <= tol
    assert abs(iv.hi_fraction() - want) <= tol


def test_siegel_fifth_example():
    # a = (1/5, 0) at 10i: log|g| within 3|q|^{1/5} of (1/300)(-20 pi)
    a = TorsionIndex(5, 1, 0)
    iv = eval_siegel(a, UpperHalfPoint(0, 10)).abs_interval().log()
    want = -20 * math.pi / 300
    tol = 3 * math.exp(-4 * math.pi)
    lo, hi = iv.to_floats()
    assert abs(lo - want) <= tol and abs(hi - want) <= tol


def test_siegel_matches_oracle():
    cases = [
        (TorsionIndex(5, 1, 0), Fraction(0), Fraction(2)),
        (TorsionIndex(5, 2, 3), Fraction(1, 3), Fraction(1)),
        (TorsionIndex(7, 0, 4), Fraction(-1, 4), Fraction(3, 4)),
        (TorsionIndex(3, 1, 1), Fraction(1, 7), Fraction(1, 2)),
        (TorsionIndex(12, 5, 11), Fraction(2, 5), Fraction(5, 4)),
    ]
    for a, re, im in cases:
        iv = eval_siegel(a, UpperHalfPoint(re, im)).abs_interval()
        want = dyadic(siegel_abs_oracle(a, re, im))
        slack = Fraction(1, 10 ** 25)
        assert iv.lo_fraction() - slack <= want <= iv.hi_fraction() + slack, (a, re, im)


def test_siegel_matches_oracle_at_1024_bits():
    cases = [
        (TorsionIndex(5, 1, 2), Fraction(0), Fraction(1, 2)),
        (TorsionIndex(7, 0, 4), Fraction(-1, 4), Fraction(3, 4)),
        (TorsionIndex(12, 5, 11), Fraction(2, 5), Fraction(5, 4)),
    ]
    for a, re, im in cases:
        ball = eval_siegel(a, UpperHalfPoint(re, im), precision=1024)
        assert ball.radius_float() < 2.0 ** -1000
        # factors past `terms` move g by a relative 2.2 |q|^terms < 2^-1190
        terms = math.ceil(1200 * math.log(2) / (2 * math.pi * im)) + 2
        with mp.workprec(1200):
            g = siegel_oracle(a, re, im, terms)
            oracle = ErrorBall(g.real._mpf_, g.imag._mpf_, (mp.mpf(2) ** -1100)._mpf_, 1200)
        assert ball.intersects(oracle), (a, re, im)


@pytest.mark.parametrize("prec", [128, 1024])
def test_siegel_at_the_low_end_of_smallj(prec):
    # Im tau = 3/10 is the lowest smallj samples, and a1/n = 12/13 is the
    # largest, so |1/q_z| = e^{2 pi (3/10)(12/13)} is the largest it meets there
    a = TorsionIndex(13, 12, 5)
    y = Fraction(3, 10)
    # factors past `terms` move g by a relative 2.2 |q|^terms < 2^-(prec+100)
    terms = math.ceil((prec + 100) * math.log(2) / (2 * math.pi * y)) + 2
    for x in (Fraction(0), Fraction(-1, 2), Fraction(37, 100)):
        ball = eval_siegel(a, UpperHalfPoint(x, y), precision=prec)
        assert ball.radius_float() < 2.0 ** -(prec - 24)
        with mp.workprec(prec + 100):
            g = siegel_oracle(a, x, y, terms)
            oracle = ErrorBall(g.real._mpf_, g.imag._mpf_, (mp.mpf(2) ** -(prec + 60))._mpf_, prec + 100)
        assert ball.intersects(oracle), (x, prec)


def test_siegel_nested_precision():
    rng = random.Random(78)
    for _ in range(200):
        n = rng.randrange(2, 14)
        a1, a2 = rng.randrange(n), rng.randrange(1, n)
        x, y = Fraction(rng.randrange(-500, 500), 1000), Fraction(rng.randrange(300, 3001), 1000)
        tau = UpperHalfPoint(x, y)
        b1 = eval_siegel(TorsionIndex(n, a1, a2), tau, precision=128)
        b2 = eval_siegel(TorsionIndex(n, a1, a2), tau, precision=256)
        assert b2.radius_float() < b1.radius_float()
        assert b1.intersects(b2)


def test_siegel_translation_consistency():
    rng = random.Random(99)
    t_mat = (1, 1, 0, 1)
    for _ in range(20):
        n = rng.randrange(2, 9)
        a1 = rng.randrange(n)
        a2 = rng.randrange(n)
        if a1 == 0 and a2 == 0:
            a2 = 1
        a = TorsionIndex(n, a1, a2)
        tau = UpperHalfPoint(
            Fraction(rng.randrange(-400, 400), 1000), Fraction(rng.randrange(600, 2000), 1000)
        )
        shifted = UpperHalfPoint(tau.re + 1, tau.im)
        lhs = eval_siegel(a, shifted).abs_interval()
        rhs = eval_siegel(a.times_matrix(t_mat), tau).abs_interval()
        assert lhs.lo_fraction() <= rhs.hi_fraction() and rhs.lo_fraction() <= lhs.hi_fraction()


# ------------------------------------------------------------ verification


def test_pqj_examples():
    assert verify_pqj(UpperHalfPoint(0, 3)).holds
    assert verify_pqj(UpperHalfPoint(Fraction(49, 100), 2)).holds
    # just above the |q| = 0.005 boundary height ln(200)/(2 pi) = 0.843253...
    rep = verify_pqj(UpperHalfPoint(0, Fraction(8433, 10000)))
    assert rep.holds and rep.margin > 0
    with pytest.raises(ValueError):
        verify_pqj(UpperHalfPoint(0, Fraction(1, 2)))


def test_siegel_bounds_examples():
    reps = verify_siegel_bounds(TorsionIndex(5, 1, 0), UpperHalfPoint(0, 4))
    assert [r.name for r in reps] == ["ega1", "esmallj"]
    assert all(r.holds for r in reps)
    reps = verify_siegel_bounds(TorsionIndex(3, 0, 1), UpperHalfPoint(0, 1))
    assert [r.name for r in reps] == ["ega0", "esmallj"]
    assert all(r.holds for r in reps)
    # near the j = 0 corner only the j-window bound applies
    reps = verify_siegel_bounds(TorsionIndex(7, 1, 3), UpperHalfPoint(Fraction(-1, 2), Fraction(8661, 10000)))
    assert [r.name for r in reps] == ["esmallj"]
    assert reps[0].holds


def test_everysimple_examples():
    assert verify_everysimple(UpperHalfPoint(0, 5)).holds
    assert verify_everysimple(UpperHalfPoint(0, 3)).holds
    assert verify_everysimple(UpperHalfPoint(Fraction(3, 10), 4)).holds


def test_nearest_cusp_examples():
    G = preset_subgroup("split_normalizer", 5)
    assert nearest_cusp(G, UpperHalfPoint(0, 5)).rep == (1, 0)
    # i/1000 reduces through S; (0,1) lies in the same class as the axis rep
    c = nearest_cusp(G, UpperHalfPoint(0, Fraction(1, 1000)))
    assert c == cusp_containing(G, (0, 1))
    with pytest.raises(NotInPlusRegion):
        nearest_cusp(G, UpperHalfPoint(0, Fraction(11, 10)))
    # j(1.2i) = 2736.34... > 2500, so 1.2i lies in the plus region with
    # |q| = 5.3e-4 < 0.001 and classifies to the infinity cusp
    assert nearest_cusp(G, UpperHalfPoint(0, Fraction(12, 10))).rep == (1, 0)


def test_nearest_cusp_undecided_is_not_a_negative():
    # |j(iy)| = 2500 near y = 1.1768; a 340-digit root leaves |j| - 2500
    # far inside the 1024-bit radius, so |j| > 2500 never settles
    with mp.workdps(340):
        root = mp.findroot(lambda t: j_oracle(Fraction(0), dyadic(t), dps=340).real - 2500, mp.mpf("1.19"))
        y = dyadic(root)
    G = preset_subgroup("split_normalizer", 5)
    with pytest.raises(PrecisionExhausted):
        nearest_cusp(G, UpperHalfPoint(0, y))


def test_nearest_cusp_other_groups():
    for kind, p in [("borel", 7), ("nonsplit_normalizer", 5), ("full", 5)]:
        G = preset_subgroup(kind, p)
        assert nearest_cusp(G, UpperHalfPoint(0, 6)) == cusp_containing(G, (1, 0))


# ------------------------------------------------------------------- padic


def test_padic_examples():
    r = padic_siegel_order(TorsionIndex(5, 1, 0), Fraction(1), 5, True)
    assert r.value == Fraction(1, 300) and r.within_bound
    r = padic_siegel_order(TorsionIndex(5, 0, 1), Fraction(1), 5, True)
    assert r.value == Fraction(1, 12) + Fraction(1, 4) and r.within_bound
    r = padic_siegel_order(TorsionIndex(3, 0, 1), Fraction(1), 5, False)
    assert r.value == Fraction(1, 12) and r.within_bound
    # zeta_25 at p = 5
    r = padic_siegel_order(TorsionIndex(25, 0, 1), Fraction(2), 5, True)
    assert r.value == Fraction(2, 12) + Fraction(1, 20)
    with pytest.raises(ValueError):
        padic_siegel_order(TorsionIndex(5, 1, 0), Fraction(0), 5, True)
    with pytest.raises(ValueError):
        padic_siegel_order(TorsionIndex(5, 1, 0), Fraction(1), 1, True)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=39),
    st.integers(min_value=0, max_value=39),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.fractions(min_value=Fraction(1, 12), max_value=6, max_denominator=24),
)
def test_padic_bound_property(n, a1, a2, p, vq):
    if (a1 % n, a2 % n) == (0, 0):
        return
    a = TorsionIndex(n, a1, a2)
    r = padic_siegel_order(a, vq, p, True)
    assert r.within_bound
    assert abs(r.value) <= r.bound


# ------------------------------------------------------------------ sweeps


def test_sweeps_small_clean():
    for fn in (sweep_pqj, sweep_cdplus, sweep_siegel, sweep_smallj, sweep_everysimple):
        r = fn(samples=25, seed=3)
        assert r.violations == 0 and r.indeterminate == 0, r
        assert r.holds == r.checked
        assert r.worst_margin is not None and r.worst_margin > 0


def test_sweep_determinism():
    a = sweep_pqj(samples=10, seed=7)
    b = sweep_pqj(samples=10, seed=7)
    assert a == b
    c = sweep_pqj(samples=10, seed=8)
    assert c != a


# Exact outcomes of seeded sweeps: a change to any sampler's draw order, to a
# check or to the tally changes at least one of these.
FROZEN_SWEEPS_128 = [
    SweepResult("pqj", 25, 25, 0, 0, 1.702352330338805e-06),
    SweepResult("cdplus", 25, 25, 0, 0, 0.0006844920723724134),
    SweepResult("siegel", 50, 50, 0, 0, 0.00021110234291723065),
    SweepResult("smallj", 25, 25, 0, 0, 1.1868669757346473),
    SweepResult("everysimple", 25, 25, 0, 0, 3667.8431821899144),
]
FROZEN_SWEEPS_1024 = [
    SweepResult("pqj", 4, 4, 0, 0, 0.0004595873366828682),
    SweepResult("cdplus", 4, 4, 0, 0, 0.0009742819553679163),
    SweepResult("siegel", 8, 8, 0, 0, 0.00021110234291723065),
    SweepResult("smallj", 4, 4, 0, 0, 1.9162448744783005),
    SweepResult("everysimple", 4, 4, 0, 0, 3667.8431821899144),
]


def test_sweep_outcomes_frozen():
    assert run_all_sweeps(samples=25, seed=42) == FROZEN_SWEEPS_128
    assert run_all_sweeps(samples=4, seed=42, precision=1024) == FROZEN_SWEEPS_1024


@pytest.mark.parametrize(
    "a, tau, name",
    [
        (TorsionIndex(5, 0, 2), UpperHalfPoint(Fraction(1, 3), 1), "ega0"),
        (TorsionIndex(5, 1, 2), UpperHalfPoint(Fraction(1, 7), Fraction(5, 2)), "ega1"),
    ],
)
def test_siegel_bounds_evaluate_g_once(monkeypatch, a, tau, name):
    calls = []
    original = analytic.eval_siegel

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analytic, "eval_siegel", counting)
    reports = verify_siegel_bounds(a, tau)
    assert [r.name for r in reports] == [name, "esmallj"]
    assert all(r.holds and r.precision == DEFAULT_PRECISION for r in reports)
    # one attempt at the starting precision, so one evaluation of g_a
    assert len(calls) == 1


# -------------------------------------------------------------- escalation


def test_escalation_to_exhaustion():
    seen = []

    def never(prec):
        seen.append(prec)
        raise Indeterminate("still too wide")

    with pytest.raises(PrecisionExhausted):
        _escalate(never, 128)
    assert seen == [128, 256, 512, 1024]


def test_escalation_succeeds_midway():
    def needs_512(prec):
        if prec < 512:
            raise Indeterminate("narrow enough only at 512")
        return CheckReport("stub", True, 1.0, prec)

    rep = _escalate(needs_512, 128)
    assert rep.precision == 512 and rep.holds
