"""Certified evaluation of j and Siegel functions over the upper half plane.

Complex arithmetic is midpoint-radius (ErrorBall) on raw mpmath.libmp
mantissa-exponent tuples, except in the q-series loops of eval_j and
eval_siegel.  Those run on fixed-point balls (re, im, rad) of ints in units
of 2^-w, w >= wp + 16, with the rounding error counted in ulps: sums and
integer multiples are exact, and a product floors its parts and its radius
((|xr|+|xi|) ry + (|yr|+|yi|) rx + rx ry) 2^-w, then adds 3 ulp.  Real
enclosures are endpoint intervals with floor/ceiling rounding.  Library
kernels (exp, log, pi) are not proven correctly rounded, so every kernel
output is padded by a 32-ulp cushion before it enters an enclosure.
Verification routines return certified verdicts and escalate precision by
doubling when a comparison is too close to call at the current width.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    fone,
    mpc_add,
    mpc_div,
    mpc_exp,
    mpc_mul,
    mpc_mul_int,
    mpc_sub,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    to_fixed,
    to_float,
)

from .cusps import CuspClass, cusp_containing
from .errors import BoundViolated, Indeterminate, NotInPlusRegion, PrecisionExhausted
from .modnt import SubgroupG
from .units import TorsionIndex, bernoulli2, ell

Mat = Tuple[int, int, int, int]
MpfT = tuple
FixBall = Tuple[int, int, int]  # (re, im, rad) in units of 2^-w

DEFAULT_PRECISION = 128
MAX_PRECISION = 1024

# libmp exp/log/pi are empirically within 1-2 ulp; 2**_KERNEL_PAD_BITS ulp
# of padding gives a 16x-32x safety factor on every kernel call.
_KERNEL_PAD_BITS = 5
_RAD_PREC = 30


def _mpf_to_fraction(t: MpfT) -> Fraction:
    sign, man, exp, bc = t
    if man == 0:
        if t == fzero:
            return Fraction(0)
        raise ValueError("non-finite value in enclosure")
    v = Fraction(int(man)) * (Fraction(2) ** exp)
    return -v if sign else v


def _fraction_to_mpf(fr: Fraction, prec: int, rnd: str) -> MpfT:
    return from_rational(fr.numerator, fr.denominator, prec, rnd)


def _pad_dir(t: MpfT, prec: int, up: bool) -> MpfT:
    """Widen a kernel output by 2^_KERNEL_PAD_BITS ulp in one direction."""
    if t[1] == 0:
        eps = from_man_exp(1, -2 * prec)
    else:
        eps = from_man_exp(1, t[2] + t[3] - prec + _KERNEL_PAD_BITS)
    if up:
        return mpf_add(t, eps, prec + 8, "c")
    return mpf_sub(t, eps, prec + 8, "f")


def _r_add(a: MpfT, b: MpfT) -> MpfT:
    return mpf_add(a, b, _RAD_PREC, "u")


def _r_mul(a: MpfT, b: MpfT) -> MpfT:
    return mpf_mul(a, b, _RAD_PREC, "u")


def _r_max(a: MpfT, b: MpfT) -> MpfT:
    return a if mpf_cmp(a, b) >= 0 else b


@dataclass(frozen=True)
class RealInterval:
    """Closed interval [lo, hi] with exact dyadic endpoints."""

    lo: MpfT
    hi: MpfT
    prec: int

    def __post_init__(self) -> None:
        if mpf_cmp(self.lo, self.hi) > 0:
            raise ValueError("interval endpoints out of order")

    @classmethod
    def from_fraction(cls, fr: Fraction, prec: int) -> "RealInterval":
        fr = Fraction(fr)
        return cls(_fraction_to_mpf(fr, prec, "f"), _fraction_to_mpf(fr, prec, "c"), prec)

    @classmethod
    def from_int(cls, k: int, prec: int) -> "RealInterval":
        t = from_int(k)
        return cls(t, t, prec)

    @classmethod
    def pi(cls, prec: int) -> "RealInterval":
        return _pi_interval(prec)

    def add(self, o: "RealInterval") -> "RealInterval":
        p = self.prec
        return RealInterval(mpf_add(self.lo, o.lo, p, "f"), mpf_add(self.hi, o.hi, p, "c"), p)

    def sub(self, o: "RealInterval") -> "RealInterval":
        return self.add(o.neg())

    def neg(self) -> "RealInterval":
        return RealInterval(mpf_neg(self.hi), mpf_neg(self.lo), self.prec)

    def mul(self, o: "RealInterval") -> "RealInterval":
        p = self.prec
        pairs = [(self.lo, o.lo), (self.lo, o.hi), (self.hi, o.lo), (self.hi, o.hi)]
        los = [mpf_mul(a, b, p, "f") for a, b in pairs]
        his = [mpf_mul(a, b, p, "c") for a, b in pairs]
        lo = los[0]
        for t in los[1:]:
            if mpf_cmp(t, lo) < 0:
                lo = t
        hi = his[0]
        for t in his[1:]:
            if mpf_cmp(t, hi) > 0:
                hi = t
        return RealInterval(lo, hi, p)

    def scale_fraction(self, fr: Fraction) -> "RealInterval":
        return self.mul(RealInterval.from_fraction(Fraction(fr), self.prec))

    def add_fraction(self, fr: Fraction) -> "RealInterval":
        return self.add(RealInterval.from_fraction(Fraction(fr), self.prec))

    def abs(self) -> "RealInterval":
        if mpf_cmp(self.lo, fzero) >= 0:
            return self
        if mpf_cmp(self.hi, fzero) <= 0:
            return self.neg()
        hi = _r_max(mpf_neg(self.lo), self.hi)
        return RealInterval(fzero, hi, self.prec)

    def exp(self) -> "RealInterval":
        p = self.prec
        lo = _pad_dir(mpf_exp(self.lo, p, "f"), p, up=False)
        hi = _pad_dir(mpf_exp(self.hi, p, "c"), p, up=True)
        if mpf_cmp(lo, fzero) < 0:
            lo = fzero
        return RealInterval(lo, hi, p)

    def log(self) -> "RealInterval":
        if mpf_cmp(self.lo, fzero) <= 0:
            raise Indeterminate("log over an interval touching zero")
        p = self.prec
        lo = _pad_dir(mpf_log(self.lo, p, "f"), p, up=False)
        hi = _pad_dir(mpf_log(self.hi, p, "c"), p, up=True)
        return RealInterval(lo, hi, p)

    def lo_fraction(self) -> Fraction:
        return _mpf_to_fraction(self.lo)

    def hi_fraction(self) -> Fraction:
        return _mpf_to_fraction(self.hi)

    def to_floats(self) -> Tuple[float, float]:
        """The endpoints as floats, rounded outward: lo down, hi up."""
        return to_float(self.lo, rnd="f"), to_float(self.hi, rnd="c")


@functools.lru_cache(maxsize=16)
def _pi_interval(prec: int) -> RealInterval:
    lo = _pad_dir(mpf_pi(prec, "f"), prec, up=False)
    hi = _pad_dir(mpf_pi(prec, "c"), prec, up=True)
    return RealInterval(lo, hi, prec)


def _verdict(diff: RealInterval) -> Optional[bool]:
    """True when diff >= 0 everywhere, False when diff < 0 everywhere."""
    if mpf_cmp(diff.lo, fzero) >= 0:
        return True
    if mpf_cmp(diff.hi, fzero) < 0:
        return False
    return None


@dataclass(frozen=True)
class ErrorBall:
    """Complex midpoint with a rigorous radius on total error."""

    re: MpfT
    im: MpfT
    rad: MpfT
    prec: int

    @classmethod
    def from_fractions(cls, re_fr: Fraction, im_fr: Fraction, prec: int) -> "ErrorBall":
        re_fr = Fraction(re_fr)
        im_fr = Fraction(im_fr)
        re = _fraction_to_mpf(re_fr, prec, "n")
        im = _fraction_to_mpf(im_fr, prec, "n")
        return cls(re, im, _cushion(re, im, 2, prec), prec)

    @classmethod
    def from_int(cls, k: int, prec: int) -> "ErrorBall":
        return cls(from_int(k), fzero, fzero, prec)

    @classmethod
    def from_interval(cls, iv: RealInterval, prec: int) -> "ErrorBall":
        mid = mpf_shift(mpf_add(iv.lo, iv.hi, prec, "n"), -1)
        d = _r_max(mpf_sub(iv.hi, mid, _RAD_PREC, "u"), mpf_sub(mid, iv.lo, _RAD_PREC, "u"))
        return cls(mid, fzero, _r_add(d, _cushion(mid, fzero, 1, prec)), prec)

    def _z(self) -> Tuple[MpfT, MpfT]:
        return (self.re, self.im)

    def add(self, o: "ErrorBall") -> "ErrorBall":
        p = self.prec
        re, im = mpc_add(self._z(), o._z(), p, "n")
        rad = _r_add(_r_add(self.rad, o.rad), _cushion(re, im, 1, p))
        return ErrorBall(re, im, rad, p)

    def sub(self, o: "ErrorBall") -> "ErrorBall":
        p = self.prec
        re, im = mpc_sub(self._z(), o._z(), p, "n")
        rad = _r_add(_r_add(self.rad, o.rad), _cushion(re, im, 1, p))
        return ErrorBall(re, im, rad, p)

    def neg(self) -> "ErrorBall":
        return ErrorBall(mpf_neg(self.re), mpf_neg(self.im), self.rad, self.prec)

    def rotate90(self) -> "ErrorBall":
        # multiplication by i is exact
        return ErrorBall(mpf_neg(self.im), self.re, self.rad, self.prec)

    def mul(self, o: "ErrorBall") -> "ErrorBall":
        p = self.prec
        re, im = mpc_mul(self._z(), o._z(), p, "n")
        m1 = _r_add(mpf_abs(self.re), mpf_abs(self.im))
        m2 = _r_add(mpf_abs(o.re), mpf_abs(o.im))
        rad = _r_add(_r_mul(m1, o.rad), _r_mul(m2, self.rad))
        rad = _r_add(rad, _r_mul(self.rad, o.rad))
        rad = _r_add(rad, _cushion(re, im, 2, p))
        return ErrorBall(re, im, rad, p)

    def mul_int(self, k: int) -> "ErrorBall":
        p = self.prec
        re, im = mpc_mul_int(self._z(), k, p, "n")
        rad = _r_add(_r_mul(self.rad, from_int(abs(k))), _cushion(re, im, 1, p))
        return ErrorBall(re, im, rad, p)

    def mul_fraction(self, fr: Fraction) -> "ErrorBall":
        return self.mul(ErrorBall.from_fractions(Fraction(fr), Fraction(0), self.prec))

    def inverse(self) -> "ErrorBall":
        p = self.prec
        a = mpf_mul(self.re, self.re, p, "f")
        b = mpf_mul(self.im, self.im, p, "f")
        hyp_lo = mpf_sqrt(mpf_add(a, b, p, "f"), p, "f")
        low = mpf_sub(hyp_lo, self.rad, p, "f")
        if mpf_cmp(low, fzero) <= 0:
            raise Indeterminate("division by a ball whose enclosure meets zero")
        re, im = mpc_div((fone, fzero), self._z(), p, "n")
        # |1/z - 1/mid| <= rad / (|mid| (|mid| - rad))
        denom = mpf_mul(hyp_lo, low, p, "f")
        if denom == fzero:
            raise Indeterminate("inverse of a ball too close to zero")
        rad = mpf_div(self.rad, denom, _RAD_PREC, "u")
        rad = _r_add(rad, _cushion(re, im, 4, p))
        return ErrorBall(re, im, rad, p)

    def div(self, o: "ErrorBall") -> "ErrorBall":
        return self.mul(o.inverse())

    def exp(self) -> "ErrorBall":
        p = self.prec
        re, im = mpc_exp(self._z(), p, "n")
        mag = _r_add(_r_add(mpf_abs(re), mpf_abs(im)), _cushion(re, im, 7, p))
        rad = _r_mul(mag, _expm1_upper(self.rad))
        rad = _r_add(rad, _cushion(re, im, 7, p))
        return ErrorBall(re, im, rad, p)

    def pow_int(self, k: int) -> "ErrorBall":
        if k < 0:
            raise ValueError("negative powers go through inverse()")
        acc = ErrorBall.from_int(1, self.prec)
        base = self
        e = k
        while e:
            if e & 1:
                acc = acc.mul(base)
            base = base.mul(base)
            e >>= 1
        return acc

    def add_error(self, extra: MpfT) -> "ErrorBall":
        return ErrorBall(self.re, self.im, _r_add(self.rad, extra), self.prec)

    def abs_interval(self) -> RealInterval:
        p = self.prec
        a = mpf_mul(self.re, self.re, p, "f")
        b = mpf_mul(self.im, self.im, p, "f")
        lo = mpf_sqrt(mpf_add(a, b, p, "f"), p, "f")
        lo = mpf_sub(lo, self.rad, p, "f")
        if mpf_cmp(lo, fzero) < 0:
            lo = fzero
        a = mpf_mul(self.re, self.re, p, "c")
        b = mpf_mul(self.im, self.im, p, "c")
        hi = mpf_sqrt(mpf_add(a, b, p, "c"), p, "c")
        hi = mpf_add(hi, self.rad, p, "c")
        return RealInterval(lo, hi, p)

    def contains_point(self, re_fr: Fraction, im_fr: Fraction = Fraction(0)) -> bool:
        """Exact rational test: is the given point inside the closed ball?"""
        dre = _mpf_to_fraction(self.re) - Fraction(re_fr)
        dim = _mpf_to_fraction(self.im) - Fraction(im_fr)
        r = _mpf_to_fraction(self.rad)
        return dre * dre + dim * dim <= r * r

    def intersects(self, o: "ErrorBall") -> bool:
        dre = _mpf_to_fraction(self.re) - _mpf_to_fraction(o.re)
        dim = _mpf_to_fraction(self.im) - _mpf_to_fraction(o.im)
        r = _mpf_to_fraction(self.rad) + _mpf_to_fraction(o.rad)
        return dre * dre + dim * dim <= r * r

    def radius_float(self) -> float:
        return to_float(self.rad)


def _cushion(re: MpfT, im: MpfT, kbits: int, prec: int) -> MpfT:
    mag = mpf_add(mpf_abs(re), mpf_abs(im), _RAD_PREC, "u")
    if mag == fzero:
        return fzero
    return mpf_shift(mag, kbits - prec)


def _expm1_upper(r: MpfT) -> MpfT:
    """Upper bound for e^r - 1, r >= 0."""
    if r == fzero:
        return fzero
    if mpf_cmp(r, fone) <= 0:
        # e^r - 1 <= r(1 + r) on [0, 1]
        return _r_mul(r, _r_add(fone, r))
    return _pad_dir(mpf_exp(r, _RAD_PREC, "c"), _RAD_PREC, up=True)


@dataclass(frozen=True)
class UpperHalfPoint:
    """Point of the upper half plane with exact rational coordinates.

    Floats are dyadic, so constructing from float input loses nothing.
    Balls and q-enclosures are derived on demand at any precision.
    """

    re: Fraction
    im: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))
        if self.im <= 0:
            raise ValueError("point must have positive imaginary part")

    @classmethod
    def from_complex(cls, z: complex) -> "UpperHalfPoint":
        return cls(Fraction(z.real), Fraction(z.imag))

    def q_ball(self, prec: int) -> ErrorBall:
        return _exp_2pii(self.re, self.im, prec)

    def abs_q_interval(self, prec: int) -> RealInterval:
        # |q| = e^{-2 pi im}, with im exact
        return _pi_interval(prec).scale_fraction(-2 * self.im).exp()

    def log_abs_q_interval(self, prec: int) -> RealInterval:
        return _pi_interval(prec).scale_fraction(-2 * self.im)


def _exp_2pii(x: Fraction, y: Fraction, prec: int) -> ErrorBall:
    """e^{2 pi i (x + iy)} for exact rational x, y."""
    piv = _pi_interval(prec)
    re_iv = piv.scale_fraction(-2 * Fraction(y))
    im_iv = piv.scale_fraction(2 * Fraction(x))
    re_ball = ErrorBall.from_interval(re_iv, prec)
    im_ball = ErrorBall.from_interval(im_iv, prec)
    expo = re_ball.add(im_ball.rotate90())
    return expo.exp()


def mobius_apply(m: Mat, tau: UpperHalfPoint) -> UpperHalfPoint:
    """Exact action of an integer matrix with positive determinant."""
    a, b, c, d = m
    if a * d - b * c <= 0:
        raise ValueError("matrix must have positive determinant")
    x, y = tau.re, tau.im
    den_re = c * x + d
    den_im = c * y
    nn = den_re * den_re + den_im * den_im
    if nn == 0:
        raise ValueError("tau is the pole of the transformation")
    num_re = a * x + b
    num_im = a * y
    re = (num_re * den_re + num_im * den_im) / nn
    im = (num_im * den_re - num_re * den_im) / nn
    return UpperHalfPoint(re, im)


def reduce_fundamental(tau: UpperHalfPoint) -> Tuple[UpperHalfPoint, Mat]:
    """Move tau to the standard fundamental domain by an exact SL2(Z) element.

    Convention: -1/2 <= Re < 1/2 and |tau| >= 1, keeping the arc with
    Re <= 0 on the unit circle (ties on |tau| = 1 with Re > 0 are sent
    to the mirror point).
    """
    x, y = tau.re, tau.im
    ga, gb, gc, gd = 1, 0, 0, 1
    for _ in range(100000):
        n = (2 * x + 1) // 2  # floor(x + 1/2)
        if n:
            x -= n
            ga, gb = ga - n * gc, gb - n * gd
        norm = x * x + y * y
        if norm > 1 or (norm == 1 and x <= 0):
            break
        # apply S: tau -> -1/tau
        x, y = -x / norm, y / norm
        ga, gb, gc, gd = -gc, -gd, ga, gb
    else:
        raise PrecisionExhausted("fundamental-domain reduction did not terminate")
    gamma = (ga, gb, gc, gd)
    check = mobius_apply(gamma, tau)
    if ga * gd - gb * gc != 1 or check.re != x or check.im != y:
        raise BoundViolated("reduction matrix does not send tau to the reduced point")
    return UpperHalfPoint(x, y), gamma


@functools.lru_cache(maxsize=64)
def _sigma3_prefix(m: int) -> Tuple[int, ...]:
    s = [0] * (m + 1)
    for d in range(1, m + 1):
        d3 = d * d * d
        for k in range(d, m + 1, d):
            s[k] += d3
    return tuple(s)


def _dyadic_ceil(x: Fraction) -> Fraction:
    """Upper bound k / 2^s >= x with 2^63 <= k < 2^65, for 0 < x <= 2."""
    s = 64 + x.denominator.bit_length() - x.numerator.bit_length()
    return Fraction(-((-x.numerator << s) // x.denominator), 1 << s)


def _ceil65(man: int, exp: int) -> Tuple[int, int]:
    """(k, e) with k 2^e = _dyadic_ceil(man 2^exp) and 2^64 <= k <= 2^65, for man > 0."""
    sh = man.bit_length() - 65
    return (-((-man) >> sh) if sh > 0 else man << -sh), exp + sh


def _tail_cut_e4(u_hi: Fraction, target: Fraction) -> Tuple[int, Fraction]:
    """Smallest m with 480 (m+1)^3 u^{m+1} <= target (valid for u <= 1/16).

    u and each running power pm 2^pe are rounded up to 65-bit dyadics, so the
    cut costs O(m) short int products.  The bound is increasing in u and every
    rounding goes upward, so the returned tail still bounds the true one.
    """
    u = _dyadic_ceil(u_hi)
    um, ue = _ceil65(u.numerator, 1 - u.denominator.bit_length())
    m = 1
    pm, pe = _ceil65(um * um, 2 * ue)  # >= u^{m+1}
    while 480 * (m + 1) ** 3 * pm * target.denominator > target.numerator << -pe:
        m += 1
        pm, pe = _ceil65(pm * um, pe + ue)
        if m > 200000:
            raise Indeterminate("series cut not reachable; |q| too close to 1")
    return m, Fraction(480 * (m + 1) ** 3 * pm, 1 << -pe)


def _tail_cut_geometric(u_hi: Fraction, coeff: Fraction, target: Fraction) -> Tuple[int, Fraction]:
    """Smallest T with coeff * u^T / (1-u) <= target, requiring u^T <= 1/10.

    u and each running power pm 2^pe are rounded up to 65-bit dyadics.  Both
    conditions and the bound are increasing in u < 1 and every rounding goes
    upward, so the returned tail still bounds the true one.
    """
    u = _dyadic_ceil(u_hi)
    if u >= 1:
        raise Indeterminate("|q| enclosure reaches 1")
    um, ue = _ceil65(u.numerator, 1 - u.denominator.bit_length())
    dm = (1 << -ue) - um  # 1 - u = dm 2^ue, and pe <= ue as the powers never grow
    lhs = coeff.numerator * target.denominator
    rhs = target.numerator * coeff.denominator * dm
    T = 1
    pm, pe = um, ue  # >= u^T
    while 10 * pm > 1 << -pe or lhs * pm > rhs << (ue - pe):
        T += 1
        pm, pe = _ceil65(pm * um, pe + ue)
        if T > 200000:
            raise Indeterminate("product cut not reachable; |q| too close to 1")
    return T, Fraction(coeff.numerator * pm, coeff.denominator * (dm << (ue - pe)))


def _fx(b: ErrorBall, w: int) -> FixBall:
    """b as a fixed-point ball: parts floored, radius rounded up, plus 3 ulp."""
    return to_fixed(b.re, w), to_fixed(b.im, w), 3 - to_fixed(mpf_neg(b.rad), w)


def _fx_ball(x: FixBall, w: int, prec: int) -> ErrorBall:
    """x as an ErrorBall: parts exact, radius rounded up."""
    return ErrorBall(from_man_exp(x[0], -w), from_man_exp(x[1], -w), from_man_exp(x[2], -w, _RAD_PREC, "u"), prec)


def _fx_mul(x: FixBall, y: FixBall, w: int) -> FixBall:
    """x y with floored parts: 1 ulp covers the floored radius, 2 the parts (< sqrt 2)."""
    (xr, xi, xe), (yr, yi, ye) = x, y
    rad = ((abs(xr) + abs(xi)) * ye + (abs(yr) + abs(yi)) * xe + xe * ye >> w) + 3
    return (xr * yr - xi * yi) >> w, (xr * yi + xi * yr) >> w, rad


def eval_j(tau: UpperHalfPoint, precision: int = DEFAULT_PRECISION) -> ErrorBall:
    """Ball containing j(tau), via the normalized Eisenstein/discriminant series.

    j = A^3 / D with A = 1 + 240 sum sigma_3(n) q^n and D = q prod (1-q^n)^24;
    the point is first reduced so |q| <= e^{-pi sqrt 3} and tails are cut
    against 2^-(precision+16).  One loop over the fixed-point powers q^n
    sums A and multiplies out the product; the 24th and 3rd powers and the
    division, where j can be large, run on ErrorBall.
    """
    red, _ = reduce_fundamental(tau)
    wp = precision + 32
    q = red.q_ball(wp)
    u_hi = red.abs_q_interval(wp).hi_fraction()
    if u_hi >= Fraction(1, 32):
        raise Indeterminate("reduced |q| enclosure too wide")
    target = Fraction(1, 2 ** (precision + 16))

    m, a_tail = _tail_cut_e4(u_hi, target)
    T, eps = _tail_cut_geometric(u_hi, Fraction(264, 10), target)
    sig3 = _sigma3_prefix(m)
    # 4 more bits per bit of m absorb the factors 240 sigma_3(n) < 2^9 n^3 on each power's ulps
    w = wp + 16 + 4 * m.bit_length()
    one = 1 << w
    qf = qpow = _fx(q, w)
    acc, prod = (one, 0, 0), (one, 0, 0)
    for n in range(1, max(m, T) + 1):
        if n <= m:
            k = 240 * sig3[n]
            acc = (acc[0] + k * qpow[0], acc[1] + k * qpow[1], acc[2] + k * qpow[2])
        if n <= T:
            prod = _fx_mul(prod, (one - qpow[0], -qpow[1], qpow[2]), w)
        qpow = _fx_mul(qpow, qf, w)
    a_ball = _fx_ball(acc, w, wp).add_error(_fraction_to_mpf(a_tail, _RAD_PREC, "u"))
    d_ball = q.mul(_fx_ball(prod, w, wp).pow_int(24))
    # the discarded factors lie in exp(v), |v| <= eps
    slack = _fraction_to_mpf(eps * (1 + eps), _RAD_PREC, "u")
    d_ball = d_ball.mul(ErrorBall(fone, fzero, slack, wp))

    return a_ball.pow_int(3).div(d_ball)


def eval_siegel(a: TorsionIndex, tau: UpperHalfPoint, precision: int = DEFAULT_PRECISION) -> ErrorBall:
    """Ball containing g_a(tau) for the representative with 0 <= a1/n < 1.

    Product form: -q^{B2(a1/n)/2} e(a2(a1/n-1)/2) (1-q_z)
    prod_{n>=1} (1-q^n q_z)(1-q^n/q_z), truncated with a certified tail.
    The product runs on fixed-point balls.  Its running powers q^k q_z and
    q^k/q_z start from ErrorBall products and step by q, so they stay <= 1
    and the fixed format never meets 1/q_z, which can reach e^{2 pi y a1/n}.
    """
    wp = precision + 32
    w = wp + 16
    n = a.n
    alpha = Fraction(a.a1, n)
    a2 = Fraction(a.a2, n)
    x, y = tau.re, tau.im

    u_hi = tau.abs_q_interval(wp).hi_fraction()
    target = Fraction(1, 2 ** (precision + 16))
    # factors beyond T contribute exp(v) with
    # |v| <= 1.1 (u^{T+1} + u^T)/(1-u) <= 2.2 u^T/(1-u), each |z| <= u^T <= 1/10
    T, eps = _tail_cut_geometric(u_hi, Fraction(22, 10), target)

    q = _exp_2pii(x, y, wp)
    pref = _exp_2pii(ell(a) * x, ell(a) * y, wp)
    phase = _exp_2pii(a2 * (alpha - 1) / 2, Fraction(0), wp)
    qz = _exp_2pii(alpha * x + a2, alpha * y, wp)
    qz_inv = _exp_2pii(-(alpha * x + a2), -alpha * y, wp)

    one = 1 << w
    qf, up, down, z = _fx(q, w), _fx(q.mul(qz), w), _fx(q.mul(qz_inv), w), _fx(qz, w)
    prod = (one - z[0], -z[1], z[2])
    for _ in range(T):
        prod = _fx_mul(prod, (one - up[0], -up[1], up[2]), w)
        prod = _fx_mul(prod, (one - down[0], -down[1], down[2]), w)
        up, down = _fx_mul(up, qf, w), _fx_mul(down, qf, w)
    slack = _fraction_to_mpf(eps * (1 + eps), _RAD_PREC, "u")
    prod = _fx_ball(prod, w, wp).mul(ErrorBall(fone, fzero, slack, wp))

    return pref.mul(phase).mul(prod).neg()


@dataclass(frozen=True)
class CheckReport:
    """Certified verdict for one inequality at one point."""

    name: str
    holds: bool
    margin: float
    precision: int


T_ = TypeVar("T_")


def _escalate(attempt: Callable[[int], T_], precision: int) -> T_:
    cap = max(MAX_PRECISION, precision)
    prec = precision
    while True:
        try:
            return attempt(prec)
        except Indeterminate as exc:
            if prec >= cap:
                raise PrecisionExhausted(
                    "indeterminate at %d bits: %s" % (prec, exc)
                ) from exc
            prec = min(2 * prec, cap)


def _report(name: str, diff: RealInterval, prec: int) -> CheckReport:
    v = _verdict(diff)
    if v is None:
        raise Indeterminate("comparison %s too close at %d bits" % (name, prec))
    return CheckReport(name, v, to_float(diff.lo), prec)


def verify_pqj(tau: UpperHalfPoint, precision: int = DEFAULT_PRECISION) -> CheckReport:
    """Certify |j - 1/q - 744| <= 330000 |q| (requires |q| <= 0.005)."""

    def attempt(prec: int) -> CheckReport:
        wp = prec + 32
        u = tau.abs_q_interval(wp)
        if u.lo_fraction() > Fraction(1, 200):
            raise ValueError("|q| exceeds 0.005; inequality not applicable")
        if u.hi_fraction() > Fraction(1, 200):
            raise Indeterminate("cannot certify |q| <= 0.005")
        j = eval_j(tau, prec)
        q = tau.q_ball(wp)
        lhs = j.sub(q.inverse()).sub(ErrorBall.from_int(744, wp)).abs_interval()
        rhs = u.scale_fraction(Fraction(330000))
        return _report("pqj", rhs.sub(lhs), prec)

    return _escalate(attempt, precision)


def _cdplus_report(tau: UpperHalfPoint, precision: int) -> CheckReport:
    """Certify the dichotomy |j| <= 2500 or |q| < 0.001 for tau in D."""

    def attempt(prec: int) -> CheckReport:
        wp = prec + 32
        aj = eval_j(tau, prec).abs_interval()
        qu = tau.abs_q_interval(wp)
        slack_j = Fraction(2500) - aj.hi_fraction()
        slack_q = Fraction(1, 1000) - qu.hi_fraction()
        if slack_j >= 0 or slack_q > 0:
            return CheckReport("cdplus", True, float(max(slack_j, slack_q)), prec)
        if aj.lo_fraction() > 2500 and qu.lo_fraction() >= Fraction(1, 1000):
            worst = max(Fraction(2500) - aj.lo_fraction(), Fraction(1, 1000) - qu.lo_fraction())
            return CheckReport("cdplus", False, float(worst), prec)
        raise Indeterminate("dichotomy straddles both thresholds")

    return _escalate(attempt, precision)


def _esmallj_diff(a: TorsionIndex, tau: UpperHalfPoint, prec: int, log_g: RealInterval) -> RealInterval:
    """(1/12) log(|j| + 2200) + log(order) + 0.1 - |log|g_a||, given log|g_a(tau)|."""
    wp = prec + 32
    aj = eval_j(tau, prec).abs_interval()
    rhs = aj.add_fraction(Fraction(2200)).log().scale_fraction(Fraction(1, 12))
    rhs = rhs.add(RealInterval.from_int(a.order, wp).log())
    rhs = rhs.add_fraction(Fraction(1, 10))
    return rhs.sub(log_g.abs())


def verify_siegel_bounds(
    a: TorsionIndex, tau: UpperHalfPoint, precision: int = DEFAULT_PRECISION
) -> Tuple[CheckReport, ...]:
    """Certify the Siegel log bounds applicable at (a, tau).

    Near the cusp (|q| <= 10^-n, first coordinate nonzero):
        | log|g_a| - l_a log|q| | <= 3 |q|^{1/n}.
    For a1 = 0 and |q| <= 0.1:
        | log|g_a| - l_a log|q| - log|1 - e(a2/n)| | <= 3 |q|.
    Everywhere: | log|g_a| | <= (1/12) log(|j| + 2200) + log(order) + 0.1.
    """

    def attempt(prec: int) -> Tuple[CheckReport, ...]:
        wp = prec + 32
        n = a.n
        u = tau.abs_q_interval(wp)
        log_g = eval_siegel(a, tau, prec).abs_interval().log()
        reports: List[CheckReport] = []
        first = a.a1 % n != 0
        if u.hi_fraction() <= Fraction(1, 10 ** n if first else 10):
            lhs = log_g.sub(tau.log_abs_q_interval(wp).scale_fraction(ell(a)))
            if first:
                # 3 |q|^{1/n} = 3 e^{-2 pi y / n}, exact in y
                rhs = _pi_interval(wp).scale_fraction(Fraction(-2 * tau.im, n)).exp()
                rhs = rhs.scale_fraction(Fraction(3))
                name = "ega1"
            else:
                zeta = _exp_2pii(Fraction(a.a2, n), Fraction(0), wp)
                gap = ErrorBall.from_int(1, wp).sub(zeta).abs_interval()
                lhs = lhs.sub(gap.log())
                rhs = u.scale_fraction(Fraction(3))
                name = "ega0"
            reports.append(_report(name, rhs.sub(lhs.abs()), prec))
        reports.append(_report("esmallj", _esmallj_diff(a, tau, prec, log_g), prec))
        return tuple(reports)

    return _escalate(attempt, precision)


def _verify_smallj(a: TorsionIndex, tau: UpperHalfPoint, precision: int) -> CheckReport:
    """Certify the j-window bound on |log|g_a|| alone."""

    def attempt(prec: int) -> CheckReport:
        log_g = eval_siegel(a, tau, prec).abs_interval().log()
        return _report("esmallj", _esmallj_diff(a, tau, prec, log_g), prec)

    return _escalate(attempt, precision)


def _abs_j_above_2500(tau: UpperHalfPoint, prec: int) -> RealInterval:
    """|j(tau)|, certified > 2500; else NotInPlusRegion or Indeterminate."""
    aj = eval_j(tau, prec).abs_interval()
    if aj.hi_fraction() <= 2500:
        raise NotInPlusRegion("certified |j| <= 2500")
    if aj.lo_fraction() <= 2500:
        raise Indeterminate("cannot certify |j| > 2500")
    return aj


def verify_everysimple(tau: UpperHalfPoint, precision: int = DEFAULT_PRECISION) -> CheckReport:
    """Certify (3/2)|j| >= |1/q_c| >= (1/2)|j| at the reduced point."""

    def attempt(prec: int) -> CheckReport:
        wp = prec + 32
        aj = _abs_j_above_2500(tau, prec)
        red, _ = reduce_fundamental(tau)
        # |1/q_c| = e^{2 pi y'}, exact in y'
        inv_qc = _pi_interval(wp).scale_fraction(2 * red.im).exp()
        hi_diff = aj.scale_fraction(Fraction(3, 2)).sub(inv_qc)
        lo_diff = inv_qc.sub(aj.scale_fraction(Fraction(1, 2)))
        v_hi = _verdict(hi_diff)
        v_lo = _verdict(lo_diff)
        if v_hi is None or v_lo is None:
            raise Indeterminate("two-sided comparison too close")
        margin = min(to_float(hi_diff.lo), to_float(lo_diff.lo))
        return CheckReport("everysimple", v_hi and v_lo, margin, prec)

    return _escalate(attempt, precision)


def nearest_cusp(G: SubgroupG, tau: UpperHalfPoint, precision: int = DEFAULT_PRECISION) -> CuspClass:
    """Cusp whose neighbourhood contains tau, given certified |j| > 2500.

    The reduction gamma sends tau into D; the cusp is the class of the
    first column of gamma^{-1} mod n, with certified |q| < 0.001 at the
    reduced point.  Raises NotInPlusRegion when |j| <= 2500 is certified,
    and PrecisionExhausted when the precision cap leaves |j| > 2500
    undecided.
    """

    _escalate(lambda prec: _abs_j_above_2500(tau, prec), precision)

    red, gamma = reduce_fundamental(tau)

    def q_gate(prec: int) -> bool:
        qu = red.abs_q_interval(prec + 16)
        if qu.hi_fraction() < Fraction(1, 1000):
            return True
        if qu.lo_fraction() >= Fraction(1, 1000):
            raise BoundViolated("|j| > 2500 with reduced |q| >= 0.001")
        raise Indeterminate("cannot certify reduced |q| < 0.001")

    _escalate(q_gate, precision)

    return cusp_containing(G, (gamma[3], -gamma[2]))  # the first column of gamma^-1


@dataclass(frozen=True)
class PadicSiegelOrder:
    """Exact valuation of g_a together with the coarse global bound."""

    value: Fraction
    bound: Fraction
    within_bound: bool


def padic_siegel_order(
    a: TorsionIndex, vq: Fraction, p: int, v_divides_n: bool
) -> PadicSiegelOrder:
    """Exact v(g_a) for v(q) = vq > 0 at residue characteristic p.

    v(g_a) = l_a vq, plus v(1 - zeta_m) when the first coordinate vanishes,
    where m is the order of the second coordinate; v(1 - zeta_{p^k}) =
    1/(p^{k-1}(p-1)) and roots of unity of order prime to p are units.
    The reported bound is vq/12 + 1/(p-1) (the latter only when v | n).
    """
    vq = Fraction(vq)
    if vq <= 0:
        raise ValueError("vq must be positive")
    if p < 2:
        raise ValueError("p must be a prime")
    value = ell(a) * vq
    if a.a1 % a.n == 0:
        m = a.n // math.gcd(a.a2, a.n)
        mm, k = m, 0
        while mm % p == 0:
            mm //= p
            k += 1
        if mm == 1 and k >= 1:
            value += Fraction(1, p ** (k - 1) * (p - 1))
    bound = vq / 12 + (Fraction(1, p - 1) if v_divides_n else Fraction(0))
    return PadicSiegelOrder(value, bound, abs(value) <= bound)


@dataclass(frozen=True)
class SweepResult:
    """Aggregate outcome of one randomized verification sweep."""

    name: str
    checked: int
    holds: int
    violations: int
    indeterminate: int
    worst_margin: Optional[float]


def _random_index(rng: random.Random, top: int) -> TorsionIndex:
    """Level n in [2, top) and a nonzero (a1, a2) mod n."""
    n = rng.randrange(2, top)
    while True:
        a1 = rng.randrange(n)
        a2 = rng.randrange(n)
        if a1 or a2:
            return TorsionIndex(n, a1, a2)


def _sample_pqj(rng: random.Random) -> tuple:
    x = Fraction(rng.randrange(-499, 500), 1000)
    y = Fraction(rng.randrange(845, 4001), 1000)
    return (UpperHalfPoint(x, y),)


def _sample_cdplus(rng: random.Random) -> tuple:
    while True:
        x = Fraction(rng.randrange(-500, 500), 1000)
        y = Fraction(rng.randrange(866, 3001), 1000)
        if x * x + y * y >= 1:
            return (UpperHalfPoint(x, y),)


def _sample_siegel(rng: random.Random) -> tuple:
    a = _random_index(rng, 8)
    if a.a1:
        y = Fraction(rng.randrange(370 * a.n, 370 * a.n + 1500), 1000)
    else:
        y = Fraction(rng.randrange(370, 1870), 1000)
    x = Fraction(rng.randrange(-500, 500), 1000)
    return a, UpperHalfPoint(x, y)


def _sample_smallj(rng: random.Random) -> tuple:
    a = _random_index(rng, 14)
    x = Fraction(rng.randrange(-500, 500), 1000)
    y = Fraction(rng.randrange(300, 3001), 1000)
    return a, UpperHalfPoint(x, y)


def _sample_everysimple(rng: random.Random) -> tuple:
    x = Fraction(rng.randrange(-500, 500), 1000)
    y = Fraction(rng.randrange(1400, 3501), 1000)
    tau = UpperHalfPoint(x, y)
    letters = ((0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 0, 1))  # S, T, T^-1
    for _ in range(rng.randrange(4)):
        tau = mobius_apply(letters[rng.randrange(3)], tau)
    return (tau,)


# family -> (sampler: rng -> args, check: (*args, precision) -> reports).
# A check raises PrecisionExhausted when the precision cap leaves it undecided.
_SWEEPS: Dict[str, Tuple[Callable[[random.Random], tuple], Callable[..., Tuple[CheckReport, ...]]]] = {
    "pqj": (_sample_pqj, lambda tau, prec: (verify_pqj(tau, prec),)),
    "cdplus": (_sample_cdplus, lambda tau, prec: (_cdplus_report(tau, prec),)),
    "siegel": (_sample_siegel, verify_siegel_bounds),
    "smallj": (_sample_smallj, lambda a, tau, prec: (_verify_smallj(a, tau, prec),)),
    "everysimple": (_sample_everysimple, lambda tau, prec: (verify_everysimple(tau, prec),)),
}


def _sweep(family: str, samples: int, seed: int, precision: int) -> SweepResult:
    """Run `samples` seeded draws of one family; an exhausted sample counts once."""
    sample, check = _SWEEPS[family]
    rng = random.Random("%s:%d" % (family, seed))
    reports: List[CheckReport] = []
    exhausted = 0
    for _ in range(samples):
        args = sample(rng)
        try:
            reports.extend(check(*args, precision))
        except PrecisionExhausted:
            exhausted += 1
    holds = sum(r.holds for r in reports)
    worst = min((r.margin for r in reports), default=None)
    return SweepResult(family, len(reports) + exhausted, holds, len(reports) - holds, exhausted, worst)


def sweep_pqj(samples: int = 1000, seed: int = 42, precision: int = DEFAULT_PRECISION) -> SweepResult:
    """Random tau with |q| <= 0.005 (im >= 0.845)."""
    return _sweep("pqj", samples, seed, precision)


def sweep_cdplus(samples: int = 1000, seed: int = 42, precision: int = DEFAULT_PRECISION) -> SweepResult:
    """Random tau in the fundamental domain; |j| <= 2500 or |q| < 0.001."""
    return _sweep("cdplus", samples, seed, precision)


def sweep_siegel(samples: int = 1000, seed: int = 42, precision: int = DEFAULT_PRECISION) -> SweepResult:
    """Random torsion index and tau inside the near-cusp validity regions."""
    return _sweep("siegel", samples, seed, precision)


def sweep_smallj(samples: int = 1000, seed: int = 42, precision: int = DEFAULT_PRECISION) -> SweepResult:
    """Random torsion index, tau anywhere (im in [0.3, 3]): the j-window bound."""
    return _sweep("smallj", samples, seed, precision)


def sweep_everysimple(
    samples: int = 1000,
    seed: int = 42,
    precision: int = DEFAULT_PRECISION,
    group: Optional[SubgroupG] = None,
) -> SweepResult:
    """Random tau with |j| large, moved by a random small SL2(Z) word.

    `benchmarks/workloads.py` passes `group`; the check reads no field of it,
    so it does not change the result.
    """
    return _sweep("everysimple", samples, seed, precision)


def run_all_sweeps(
    samples: int = 1000, seed: int = 42, precision: int = DEFAULT_PRECISION
) -> List[SweepResult]:
    return [_sweep(family, samples, seed, precision) for family in _SWEEPS]
