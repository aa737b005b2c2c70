"""Cusps of X_G: enumeration, widths, rational orbits, place constants.

A cusp is an orbit of <G meet SL2, -1> acting on primitive column vectors
mod N, taken modulo sign; the orbit of the same classes under <G, -1> is
the Galois orbit over Q (valid when det G is all of (Z/N)^*).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import exp, gcd, log
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .errors import BoundViolated, NotDefinedOverQ
from .modnt import (
    Mat,
    SubgroupG,
    det_image,
    generated_orbit,
    mat_inv,
    mat_mul,
    mat_neg,
    mat_vec,
    minus_identity_mat,
    sl2_order,
)

Vec = Tuple[int, int]


def canonical_class(v: Vec, n: int) -> Vec:
    """Lexicographically smaller of v and -v, entries reduced mod n."""
    w = (v[0] % n, v[1] % n)
    neg = ((-w[0]) % n, (-w[1]) % n)
    return min(w, neg)


def primitive_classes(n: int) -> List[Vec]:
    """All +/- classes of primitive vectors mod n, sorted."""
    out: Set[Vec] = set()
    for x in range(n):
        for y in range(n):
            if gcd(gcd(x, y), n) == 1:
                out.add(canonical_class((x, y), n))
    return sorted(out)


def sl2_lift(v: Vec, n: int) -> Mat:
    """Deterministic matrix in SL2(Z/n) whose first column is v.

    Solves x*d - y*b = 1 mod n scanning b upward from 0, then taking the
    smallest nonnegative d; reproducibility matters because the lift
    enters order computations downstream.
    """
    x, y = v[0] % n, v[1] % n
    for b in range(n):
        rhs = (1 + y * b) % n
        g = gcd(x, n)
        if rhs % g != 0:
            continue
        # solve x*d = rhs mod n; gcd(x/g, n/g) = 1 always
        n_red = n // g
        d = 0 if n_red == 1 else (rhs // g) * pow(x // g, -1, n_red) % n_red
        lift = (x, b, y, d)
        if (x * d - y * b) % n == 1:
            return lift
    raise ValueError(f"vector {v} is not primitive mod {n}")


@dataclass(frozen=True)
class CuspClass:
    """A cusp of X_G: sign class of a primitive vector, with width and lift."""

    n: int
    rep: Vec
    width: int
    lift: Mat

    def __post_init__(self) -> None:
        if gcd(gcd(*self.rep), self.n) != 1:
            raise ValueError(f"rep {self.rep} not primitive mod {self.n}")
        if self.n % self.width != 0:
            raise ValueError(f"width {self.width} does not divide {self.n}")
        a, b, c, d = self.lift
        if (a * d - b * c) % self.n != 1 or (a, c) != self.rep:
            raise ValueError("lift must be in SL2 with first column = rep")


@dataclass(frozen=True)
class CuspOrbit:
    """A Galois orbit of cusps over Q; degree is the field degree of each member."""

    members: Tuple[CuspClass, ...]

    @property
    def degree(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class PlaceConstants:
    """Constants R_v and r_v of the near-cusp covering, stored as base**exponent."""

    kind: str
    p: Optional[int]
    v_divides_n: bool
    R_base: int
    R_exp: Fraction
    r_base: int
    r_exp: Fraction

    def R_float(self) -> float:
        return exp(float(self.R_exp) * log(self.R_base)) if self.R_base != 1 else 1.0

    def r_float(self) -> float:
        return exp(float(self.r_exp) * log(self.r_base)) if self.r_base != 1 else 1.0

    def R_fraction(self) -> Optional[Fraction]:
        """Exact value when the exponent is an integer, else None."""
        if self.R_exp.denominator == 1:
            return Fraction(self.R_base) ** int(self.R_exp)
        return None


def _plusminus_sl2(G: SubgroupG) -> FrozenSet[Mat]:
    """Element set of <G meet SL2, -1>."""
    n = G.n
    part = G.sl2_part()
    return frozenset(part | {mat_neg(m, n) for m in part})


@functools.lru_cache(maxsize=128)
def _cusp_data(G: SubgroupG) -> Tuple[Tuple[CuspClass, ...], Dict[Vec, int]]:
    """All cusps plus the map (vector class) -> cusp index."""
    n = G.n
    pm = _plusminus_sl2(G)
    member_of: Dict[Vec, int] = {}
    cusps: List[CuspClass] = []

    seeds = [(1 % n, 0)] + primitive_classes(n)
    for seed in seeds:
        if seed in member_of:
            continue
        orbit = {canonical_class(mat_vec(h, seed, n), n) for h in pm}
        idx = len(cusps)
        for w in orbit:
            member_of[w] = idx
        rep = (1 % n, 0) if (1 % n, 0) in orbit else min(orbit)
        lift = sl2_lift(rep, n)
        width = _width_from_lift(lift, n, pm)
        cusps.append(CuspClass(n=n, rep=rep, width=width, lift=lift))
    return tuple(cusps), member_of


def _width_from_lift(lift: Mat, n: int, pm: FrozenSet[Mat]) -> int:
    lift_inv = mat_inv(lift, n)
    for e in sorted(d for d in range(1, n + 1) if n % d == 0):
        conj = mat_mul(mat_mul(lift, (1, e % n, 0, 1), n), lift_inv, n)
        if conj in pm:
            return e
    raise AssertionError("width search failed; (1, N; 0, 1) is always the identity mod N")


def enumerate_cusps(G: SubgroupG) -> List[CuspClass]:
    """One CuspClass per orbit; the class containing (1, 0) comes first."""
    cusps, _ = _cusp_data(G)
    return list(cusps)


def cusp_containing(G: SubgroupG, v: Vec) -> CuspClass:
    """The cusp whose vector classes include v."""
    cusps, member_of = _cusp_data(G)
    key = canonical_class(v, G.n)
    if key not in member_of:
        raise ValueError(f"vector {v} is not primitive mod {G.n}")
    return cusps[member_of[key]]


def cusp_width(G: SubgroupG, c: CuspClass) -> int:
    """Smallest e > 0 with lift*(1 e; 0 1)*lift^-1 in <G meet SL2, -1>."""
    return _width_from_lift(c.lift, G.n, _plusminus_sl2(G))


def sl2_index(G: SubgroupG) -> int:
    """Index of <G meet SL2, -1> in SL2(Z/N); equals the covering degree to X(1)."""
    pm = _plusminus_sl2(G)
    return sl2_order(G.n) // len(pm)


def galois_orbits(G: SubgroupG) -> List[CuspOrbit]:
    """Orbits of <G, -1> on the cusp set; needs det G = (Z/N)^*."""
    if not det_image(G).is_full:
        raise NotDefinedOverQ(
            f"det image of {G.label} is a proper subgroup of (Z/{G.n})^*"
        )
    cusps, member_of = _cusp_data(G)
    n = G.n
    gens = G.generator_mats() + (minus_identity_mat(n),)

    def act(g: Mat, i: int) -> int:
        return member_of[canonical_class(mat_vec(g, cusps[i].rep, n), n)]

    seen: Set[int] = set()
    orbits: List[List[int]] = []
    for start in range(len(cusps)):
        if start not in seen:
            members = generated_orbit(start, gens, act)
            seen.update(members)
            orbits.append(sorted(members))

    result = [CuspOrbit(members=tuple(cusps[i] for i in ms)) for ms in orbits]
    if sum(o.degree for o in result) != len(cusps):
        raise BoundViolated(f"Galois orbits of {G.label} do not partition its {len(cusps)} cusps")
    return result


def runge_condition(G: SubgroupG, s: int) -> bool:
    """True iff the number of rational cusp orbits exceeds |S|."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return len(galois_orbits(G)) > s


def place_constants(kind: str, p: Optional[int] = None, n: Optional[int] = None) -> PlaceConstants:
    """Covering-radius constants for one place.

    archimedean: R_v = 2500, r_v = 0.001.  Finite with v(N) = 0: both 1.
    Finite with v | p | N: R_v = p**(N/(p-1)), r_v its inverse.
    """
    if kind == "archimedean":
        return PlaceConstants(
            kind=kind, p=None, v_divides_n=False,
            R_base=2500, R_exp=Fraction(1),
            r_base=10, r_exp=Fraction(-3),
        )
    if kind != "finite":
        raise ValueError(f"place kind must be archimedean or finite, got {kind!r}")
    if p is None or n is None:
        raise ValueError("finite places need the residue characteristic p and the level n")
    if n % p != 0:
        return PlaceConstants(
            kind=kind, p=p, v_divides_n=False,
            R_base=1, R_exp=Fraction(1), r_base=1, r_exp=Fraction(1),
        )
    e = Fraction(n, p - 1)
    return PlaceConstants(
        kind=kind, p=p, v_divides_n=True,
        R_base=p, R_exp=e, r_base=p, r_exp=-e,
    )
