"""Explicit height and level bounds for integral points on the curves X_G.

Every bound is evaluated two ways at once: as an exact rational whenever
the formula is log-free, and always as a certified interval with round-up
semantics (the .hi endpoint is a proven upper bound).  The checkers at the
end chain the bounds together for the split Cartan application (height cap,
isogeny degree cap, level cap, three-prime test), deciding by RealInterval.le/lt.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple, Union

from .analytic import DEFAULT_PRECISION, RealInterval, _escalate
from .cusps import galois_orbits
from .errors import BoundViolated, DegenerateJ, HypothesisFailed, Indeterminate
from .modnt import SubgroupG

# level cap constant: isogeny degree bound instantiated at field degree 2,
# where max{1, log 2}^2 = 1; assembled here, not a quoted constant
KAPPA_SPLIT_CARTAN = 16 * Fraction(10) ** 82

HValue = Union[int, Fraction, RealInterval, Callable[[int], RealInterval]]


def _as_interval(x, prec: int) -> RealInterval:
    if isinstance(x, RealInterval):
        return x
    if isinstance(x, CalR):
        return x.value
    return RealInterval.from_fraction(Fraction(x), prec)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24, fixed 15-base test beyond."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ------------------------------------------------------------ basic values


def height_rational(j, precision: int = DEFAULT_PRECISION) -> RealInterval:
    """Logarithmic height of a rational: log max(|num|, den), reduced form."""
    j = Fraction(j)
    m = max(abs(j.numerator), j.denominator)
    if m == 1:
        return RealInterval.from_fraction(Fraction(0), precision)
    return RealInterval.from_int(m, precision).log()


@dataclass(frozen=True)
class CurveInput:
    """A rational j-invariant with its height and integrality flag."""

    j: Fraction
    height: RealInterval
    is_integer: bool

    @classmethod
    def from_j(cls, j, precision: int = DEFAULT_PRECISION) -> "CurveInput":
        j = Fraction(j)
        return cls(j, height_rational(j, precision), j.denominator == 1)


@dataclass(frozen=True)
class CalR:
    """Sum of (log p)/(p-1) over primes of the level visible to S.

    `cap` is log N; the sum never exceeds it since the p are distinct
    divisors of N and (log p)/(p-1) <= log p.  `exact` is set only for
    the empty sum, where the value is exactly zero.
    """

    value: RealInterval
    cap: RealInterval
    primes_used: Tuple[int, ...]
    exact: Optional[Fraction] = None


def calR(n: int, finite_primes, precision: int = DEFAULT_PRECISION) -> CalR:
    if n < 1:
        raise ValueError("level must be positive")
    primes = sorted(set(int(p) for p in finite_primes))
    for p in primes:
        if not is_probable_prime(p):
            raise ValueError("not a prime: %d" % p)
    used = tuple(p for p in primes if n % p == 0)
    total = RealInterval.from_fraction(Fraction(0), precision)
    for p in used:
        term = RealInterval.from_int(p, precision).log().scale_fraction(Fraction(1, p - 1))
        total = total.add(term)
    if n == 1:
        cap = RealInterval.from_fraction(Fraction(0), precision)
    else:
        cap = RealInterval.from_int(n, precision).log()
    exact = Fraction(0) if not used else None
    return CalR(total, cap, used, exact)


# ----------------------------------------------------------- theorem bounds


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: certified interval, optional exact rational."""

    name: str
    inputs: Dict[str, str]
    value_log: RealInterval
    value_exact_form: str
    applicable: bool
    reason: str = ""
    value_exact: Optional[Fraction] = None

    def upper_float(self) -> float:
        return self.value_log.to_floats()[1]


def bound_th1(G: SubgroupG, precision: int = DEFAULT_PRECISION) -> BoundReport:
    """log|j(P)| <= 30 |G| N^2 log N, for a non-transitive cusp action."""
    n = G.n
    if n < 2:
        raise ValueError("level must be at least 2")
    orbits = galois_orbits(G)
    if len(orbits) < 2:
        raise HypothesisFailed("cusp action is transitive: %s" % G.label)
    coeff = 30 * G.order * n * n
    value = RealInterval.from_int(n, precision).log().scale_fraction(Fraction(coeff))
    return BoundReport(
        name="th1",
        inputs={
            "group": G.label,
            "order": str(G.order),
            "level": str(n),
            "orbits": str(len(orbits)),
            "coefficient": str(coeff),
        },
        value_log=value,
        value_exact_form="30·|G|·N²·log N",
        applicable=True,
    )


def _root_power_exact(s: int) -> Optional[Fraction]:
    # s^{s/2+1} as a rational, when the half power collapses
    if s % 2 == 0:
        return Fraction(s) ** ((s + 2) // 2)
    t = math.isqrt(s)
    if t * t == s:
        return Fraction(t) ** (s + 2)
    return None


def bound_tbo(
    s: int,
    g: int,
    n: int,
    r: Union[int, Fraction, RealInterval, CalR] = 0,
    via_g: bool = False,
    precision: int = DEFAULT_PRECISION,
) -> BoundReport:
    """h(P) <= s^{s/2+1} (g N^2)^s N (R + 30).

    `g` is the order of the stabilizer subgroup G' acting on the chosen
    cusp orbits; passing the full |G| instead (via_g) is the weaker form.
    """
    if s < 1 or g < 1 or n < 1:
        raise ValueError("parameters must be positive")
    r_exact: Optional[Fraction] = None
    if isinstance(r, CalR) and r.exact is not None:
        r = r.exact
    if isinstance(r, (int, Fraction)):
        r_exact = Fraction(r)
        if r_exact < 0:
            raise ValueError("R must be nonnegative")
    r_iv = _as_interval(r, precision)
    base = Fraction(g * n * n) ** s * n
    root_exact = _root_power_exact(s)
    if root_exact is not None:
        root_iv = RealInterval.from_fraction(root_exact, precision)
    else:
        half = Fraction(s + 2, 2)
        root_iv = RealInterval.from_int(s, precision).log().scale_fraction(half).exp()
    value = root_iv.scale_fraction(base).mul(r_iv.add_fraction(Fraction(30)))
    exact = None
    if root_exact is not None and r_exact is not None:
        exact = root_exact * base * (30 + r_exact)
        value = RealInterval.from_fraction(exact, max(precision, _bits_of(exact) + 8))
    sym = "|G|" if via_g else "|G'|"
    return BoundReport(
        name="tbo",
        inputs={"s": str(s), "g": str(g), "level": str(n), "via_g": str(via_g).lower()},
        value_log=value,
        value_exact_form="s^(s/2+1)·(%s·N²)^s·N·(R+30)" % sym,
        applicable=True,
        value_exact=exact,
    )


def _bits_of(fr: Fraction) -> int:
    return abs(fr.numerator).bit_length() + fr.denominator.bit_length()


def bound_tspto(p: int, precision: int = DEFAULT_PRECISION) -> BoundReport:
    """log|j(P)| <= 23 p log p on the integral points of Y_split(p)."""
    if p == 2 or not is_probable_prime(p):
        raise ValueError("p must be an odd prime")
    value = RealInterval.from_int(p, precision).log().scale_fraction(Fraction(23 * p))
    return BoundReport(
        name="tspto",
        inputs={"p": str(p), "coefficient": str(23 * p)},
        value_log=value,
        value_exact_form="23·p·log p",
        applicable=True,
    )


def pellarin_degree(d: int, h: Union[int, Fraction, RealInterval],
                    precision: int = DEFAULT_PRECISION) -> RealInterval:
    """Isogeny degree cap 10^82 d^4 max{1, log d}^2 (1 + h)^2."""
    if d < 1:
        raise ValueError("field degree must be at least 1")
    lead = Fraction(10) ** 82 * d ** 4
    h_iv = h
    if isinstance(h, (int, Fraction)):
        h = Fraction(h)
        if h < 0:
            raise ValueError("height must be nonnegative")
        if d <= 2:
            # log d < 1, so the max term is 1 and the value is rational
            exact = lead * (1 + h) ** 2
            return RealInterval.from_fraction(exact, max(precision, _bits_of(exact) + 8))
        h_iv = RealInterval.from_fraction(h, precision)
    one_plus = h_iv.add_fraction(Fraction(1))
    logd = RealInterval.from_int(d, precision).log()
    maxed = _max_with_one(logd)
    return maxed.mul(maxed).mul(one_plus.mul(one_plus)).scale_fraction(lead)


def _max_with_one(iv: RealInterval) -> RealInterval:
    """The endpointwise max [max(lo, 1), max(hi, 1)]."""
    one = RealInterval.from_int(1, iv.prec)
    try:
        return one if iv.lt(1, "interval straddles 1") else iv
    except Indeterminate:
        return RealInterval(one.lo, iv.hi, iv.prec)


# ------------------------------------------------------------- level caps


def _max_power(p: int, bound: Fraction) -> int:
    """Largest n with p^n <= bound, or 0 when bound < p."""
    n, pw = 0, p
    while pw <= bound:
        n += 1
        pw *= p
    return n


@dataclass(frozen=True)
class SplitCartanCap:
    """Level cap p^n <= kappa (1+h)^2 with a queryable max exponent."""

    cap: RealInterval
    cap_exact: Optional[Fraction]
    kappa_note: str
    _cap_at: Callable[[int], RealInterval]

    def max_n(self, p: int) -> int:
        if p < 2:
            raise ValueError("p must be at least 2")
        if self.cap_exact is not None:
            return _max_power(p, self.cap_exact)

        def attempt(prec: int) -> int:
            cap = self._cap_at(prec)
            n_lo = _max_power(p, cap.lo_fraction())
            if n_lo != _max_power(p, cap.hi_fraction()):
                raise Indeterminate("cap interval straddles a power of %d" % p)
            return n_lo

        return _escalate(attempt, self.cap.prec)


def split_cartan_level_cap(h: HValue, precision: int = DEFAULT_PRECISION) -> SplitCartanCap:
    """Cap 16·10^82 (1+h)^2 on the level p^n of a split Cartan structure."""
    note = "kappa = 16·10^82, assembled from the degree-2 isogeny cap"
    if isinstance(h, (int, Fraction)):
        h = Fraction(h)
        if h < 0:
            raise ValueError("height must be nonnegative")
        exact = KAPPA_SPLIT_CARTAN * (1 + h) ** 2

        def cap_at(prec: int) -> RealInterval:
            return RealInterval.from_fraction(exact, max(prec, _bits_of(exact) + 8))

        return SplitCartanCap(cap_at(precision), exact, note, cap_at)
    provider = (lambda prec: h) if isinstance(h, RealInterval) else h

    def cap_at(prec: int) -> RealInterval:
        one_plus = provider(prec).add_fraction(Fraction(1))
        return one_plus.mul(one_plus).scale_fraction(KAPPA_SPLIT_CARTAN)

    return SplitCartanCap(cap_at(precision), None, note, cap_at)


@dataclass(frozen=True)
class GrhCap:
    """Conditional cap log(N_E)(log log 2N_E)^6 with its constant left open."""

    value: RealInterval
    grh_constant_unknown: bool
    exact_form: str


def grh_level_cap(conductor: int, precision: int = DEFAULT_PRECISION) -> GrhCap:
    if conductor < 1:
        raise ValueError("conductor must be positive")
    outer = (
        RealInterval.from_fraction(Fraction(0), precision)
        if conductor == 1
        else RealInterval.from_int(conductor, precision).log()
    )
    inner = RealInterval.from_int(2 * conductor, precision).log().log()
    sq = inner.mul(inner)
    value = outer.mul(sq.mul(sq).mul(sq))
    return GrhCap(value, True, "log(N_E)·(log log 2N_E)^6")


# -------------------------------------------------------- twists and caps


def conductor_cap(j) -> int:
    """Conductor bound 2^8 3^5 j^2 (j-1728)^2 for the minimal twist."""
    j = Fraction(j)
    if j.denominator != 1:
        raise ValueError("j must be an integer")
    j = int(j)
    if j in (0, 1728):
        raise DegenerateJ("j = %d has extra automorphisms" % j)
    return 2 ** 8 * 3 ** 5 * j * j * (j - 1728) ** 2


@dataclass(frozen=True)
class WeierstrassTwist:
    """y^2 + xy = x^3 + a4 x + a6 with discriminant j^2/(j-1728)^3."""

    j: Fraction
    a1: int
    a2: int
    a3: int
    a4: Fraction
    a6: Fraction
    discriminant: Fraction


def twist_equation(j) -> WeierstrassTwist:
    j = Fraction(j)
    if j in (0, 1728):
        raise DegenerateJ("j = %s has extra automorphisms" % j)
    t = j - 1728
    a4 = Fraction(-36) / t
    a6 = Fraction(-1) / t
    b2 = Fraction(1)  # a1^2 + 4 a2
    b4 = 2 * a4  # 2 a4 + a1 a3
    b6 = 4 * a6  # a3^2 + 4 a6
    b8 = a6 - a4 * a4  # a1^2 a6 + 4 a2 a6 - a1 a3 a4 + a2 a3^2 - a4^2
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    c4 = b2 * b2 - 24 * b4
    if disc != j * j / t ** 3 or c4 ** 3 / disc != j:
        raise BoundViolated("twist discriminant identities fail at j = %s" % j)
    return WeierstrassTwist(j, 1, 0, 0, a4, a6, disc)


# -------------------------------------------------------------- checkers


@dataclass(frozen=True)
class SerreReport:
    """Consistency data for a hypothetical integral point at level p^n."""

    p: int
    j: int
    height: RealInterval
    tspto_cap: RealInterval
    integral_consistent: bool
    level_cap: RealInterval
    max_n: int


def serre_check(p: int, j, precision: int = DEFAULT_PRECISION) -> SerreReport:
    """Chain the height cap through the level cap for an integer j."""
    if p == 2 or not is_probable_prime(p):
        raise ValueError("p must be an odd prime")
    j = Fraction(j)
    if j.denominator != 1:
        raise ValueError("j must be an integer")
    j = int(j)
    tspto = bound_tspto(p, precision)
    h = height_rational(j, precision)
    # log|j| <= 23 p log p is, for integer j, the exact test |j| <= p^{23p};
    # decide by intervals first and fall back to the integer power
    try:
        consistent = h.le(tspto.value_log, "height straddles the tspto cap")
    except Indeterminate:
        consistent = abs(j) <= p ** (23 * p)
    cap = split_cartan_level_cap(lambda prec: height_rational(j, prec), precision)
    return SerreReport(
        p=p,
        j=j,
        height=h,
        tspto_cap=tspto.value_log,
        integral_consistent=consistent,
        level_cap=cap.cap,
        max_n=cap.max_n(p),
    )


@dataclass(frozen=True)
class ThreePrimeReport:
    """Feasibility of three split Cartan deficient primes at once."""

    p: int
    q: int
    r: int
    product: int
    degree_cap: RealInterval
    feasible: bool


def _three_prime_cap_at(p: int, prec: int) -> RealInterval:
    one_plus = (
        RealInterval.from_int(p, prec).log().scale_fraction(Fraction(23 * p)).add_fraction(Fraction(1))
    )
    return one_plus.mul(one_plus).scale_fraction(KAPPA_SPLIT_CARTAN)


def three_prime_check(p: int, q: int, r: int, precision: int = DEFAULT_PRECISION) -> ThreePrimeReport:
    """Test pqr <= kappa (1 + 23 p log p)^2, required for a common triple."""
    if not (11 <= p < q < r):
        raise ValueError("need primes 11 <= p < q < r")
    for m in (p, q, r):
        if not is_probable_prime(m):
            raise ValueError("not a prime: %d" % m)
    product = p * q * r

    def attempt(prec: int) -> Tuple[RealInterval, bool]:
        cap = _three_prime_cap_at(p, prec)
        return cap, not cap.lt(product, "cap interval straddles pqr")

    cap, feasible = _escalate(attempt, precision)
    return ThreePrimeReport(p, q, r, product, cap, feasible)


def three_prime_threshold(precision: int = DEFAULT_PRECISION) -> int:
    """Smallest m >= 11 with m^3 > kappa (1 + 23 m log m)^2.

    m^3 grows against (m log m)^2, and m/(log m)^2 is increasing past e^2,
    so every p >= m is rejected by three_prime_check regardless of q and r.
    """

    def rejected(m: int) -> bool:
        return _escalate(lambda prec: _three_prime_cap_at(m, prec).lt(m ** 3, "cap interval straddles m^3"),
                         precision)

    lo, hi = 11, 10 ** 95
    if rejected(lo) or not rejected(hi):
        raise BoundViolated("threshold search interval does not bracket the cap")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rejected(mid):
            hi = mid
        else:
            lo = mid
    return hi
