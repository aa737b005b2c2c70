"""Cusps of X_G: enumeration, widths, rational orbits, place constants.

A cusp is an orbit of <G, -1> meet SL2 acting on primitive column vectors
mod N, taken modulo sign; the orbit of the same classes under <G, -1> is
the Galois orbit over Q (valid when det G is all of (Z/N)^*).  Both come
from one breadth-first pass under the generators of G over the lines {s*w},
s a scalar of G (`_line_orbits`): its one map has an entry per line, keyed
by the line's point of P1(Z/N) and coset of scalars, and gives the det of a
word reaching any class.  The cusps of an orbit are the cosets of
det(Stab(seed)) in det G; widths follow from the orbit's size by
orbit-stabilizer, and each cusp's rep from one more scan in the seed order
that stops when every cusp has one, so no element set is read and no orbit
is walked twice.  The divisor-matrix rows sum over the pass's line reps.
The pass's results stay on the group (`per_group`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import exp, gcd, log
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import BoundViolated, NotDefinedOverQ
from .modnt import (Mat, SubgroupG, _line_key, det_image, generated_orbit, mat_det, per_group,
                    sl2_order, unit_count)

Vec = Tuple[int, int]


def canonical_class(v: Vec, n: int) -> Vec:
    """Lexicographically smaller of v and -v, entries reduced mod n."""
    w = (v[0] % n, v[1] % n)
    neg = ((-w[0]) % n, (-w[1]) % n)
    return min(w, neg)


def _classes(n: int) -> Iterator[Vec]:
    """The +/- classes of primitive vectors mod n in sorted order, one at a time."""
    # each class by its lex-smaller member: x <= n/2, and y halved where x = -x
    return ((x, y) for x in range(n // 2 + 1) for y in range(n)
            if gcd(x, y, n) == 1 and not (x == -x % n and y > -y % n))


def sl2_lift(v: Vec, n: int) -> Mat:
    """Deterministic matrix (x b; y d) in SL2(Z/n) with v = (x, y): the least b >= 0, then d.

    With g = gcd(x, n), x*d - y*b = 1 needs y*b = -1 mod g, so b is the least
    -1/y mod g, and then (x/g)*d = (1 + y*b)/g mod n/g fixes the least d;
    reproducibility matters because the lift enters order computations downstream.
    """
    x, y = v[0] % n, v[1] % n
    g = gcd(x, n)
    if gcd(y, g) != 1:
        raise ValueError(f"vector {v} is not primitive mod {n}")
    b = -pow(y, -1, g) % g
    return x, b, y, (1 + y * b) // g * pow(x // g, -1, n // g) % (n // g)


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


def _line_orbits(n: int, gens: Sequence[Mat], lams: Sequence[int]
                 ) -> Tuple[List[Tuple[List[Vec], Set[int]]], Callable[[int, int], int]]:
    """The orbits of <gens, -1> on the +/- classes mod n by lines, as (line reps, ratios), and `code`.

    lams are the group's `line_scalars`.  One map holds one entry per line
    {lam*w}: keyed by w's point of P1(Z/n) and the least of s*(+/-lams) for
    w = s*rep (`_line_key`), it stores k*N + t(w)/s^2 for the k-th orbit, t(w)
    the det of a word taking the k-th seed to w; as t(lam*w) = lam^2 t(w),
    `code` gives each class v = s*rep of the line as k*N + t(v).  The seeds are
    (1, 0), then the sorted classes, on no line seen; a line never folds
    (lam*w = +/-w forces lam = +/-1), so the scan stops at #classes/|lams|
    lines.  Only a line's rep meets the gens: scalars are central, so an edge
    from lam*w has the ratio t(w)det(g)/t(g*w) of the edge from w, and a scalar
    edge ratio 1, so the ratios are all of Schreier's and generate det(Stab(seed)).
    """
    key, edges = _line_key(n), [(g, mat_det(g, n)) for g in gens]
    coset: Dict[int, int] = {}  # unit s -> the least of s*(+/-lams), met first in ascending order
    for s in range(1, n):
        if s not in coset and gcd(s, n) == 1:
            coset.update((s * lam * e % n, s) for lam in lams for e in (1, -1))
    seen: Dict[Tuple[Tuple[int, ...], int], int] = {}

    def line_of(x: int, y: int) -> Tuple[Tuple[Tuple[int, ...], int], int]:
        point, s = key(x, y)
        return (point, coset[s]), s

    def code(x: int, y: int) -> int:
        line, s = line_of(x, y)
        return seen[line] // n * n + seen[line] * s * s % n

    walks: List[Tuple[List[Vec], Set[int]]] = []
    total = sl2_order(n) // (n if n == 2 else 2 * n) // len(lams)  # two vectors per class but mod 2
    for x0, y0 in chain([(1 % n, 0)], _classes(n)):
        if len(seen) == total:
            break
        line, s = line_of(x0, y0)
        if line in seen:
            continue
        base, queue, ratios = len(walks) * n, [(x0, y0, 1)], set()
        seen[line] = base + pow(s, -2, n)
        for x, y, tw in queue:
            for (a, b, c, d), det_g in edges:
                u, v = (a * x + b * y) % n, (c * x + d * y) % n
                tv = tw * det_g % n
                line, s = line_of(u, v)
                if line not in seen:
                    seen[line] = base + tv * pow(s, -2, n) % n
                    queue.append((u, v, tv))
                elif (seen[line] - base) * s * s % n != tv:
                    ratios.add(tv * pow((seen[line] - base) * s * s, -1, n) % n)
        walks.append(([(x, y) for x, y, _ in queue], ratios))
    return walks, code


@per_group
def _cusp_data(G: SubgroupG) -> Tuple[
    Tuple[CuspClass, ...], Tuple[Callable[[int, int], int], Dict[int, CuspClass]],
    Tuple[CuspOrbit, ...], Dict[CuspClass, List[Vec]]
]:
    """All cusps, the maps vector -> code -> cusp, the <G, -1>-orbits of cusps, cusp -> line reps.

    The k-th walk of `_line_orbits` covers the k-th orbit of <G, -1> on the
    vector classes, and its `code` gives a class's k*N + t.  The ratios
    generate S = det(Stab(seed)), and Gamma = <G, -1> meet SL2 is the kernel of
    det on <G, -1>, so two classes of the orbit lie in one cusp iff their
    t-values lie in one coset of S in D = det G; so a code names its cusp, and
    the orbit holds |D|/|S| cusps, which <G, -1> permutes transitively.  The
    orbit holds len(lines)*|lams| classes, |S|/|D| of them in each cusp.  A
    cusp c whose classes hold |V_c| vectors has width N |V_c| / |Gamma|: the
    N |V_c| matrices of SL2 taking e1 into V_c are Gamma*lift*U, and Gamma meets
    lift*U*lift^-1 in N/width elements.  One scan over (1, 0), then the sorted
    classes, gives each cusp the first class it meets as rep: (1, 0) for its
    own cusp, the least class for every other.  Each cusp maps to its orbit's
    line reps; `orbit_classes` fills them out.
    """
    n = G.n
    one = (1 % n, 0)
    lams = G.line_scalars(n)
    dets = sorted(det_image(G).residues)
    index = sl2_index(G)
    gamma_order = sl2_order(n) // index
    signs = 1 if n == 2 else 2  # vectors per +/- class: v = -v only mod 2

    walks, code = _line_orbits(n, G.generators, lams)
    key_of: Dict[int, int] = {}  # code k*N + t -> k*N + the least t' in t*S
    widths: List[int] = []
    for k, (lines, ratios) in enumerate(walks):
        stab_dets = generated_orbit(1, ratios, lambda r, s: r * s % n)
        for d in dets:  # ascending, so d is the least of its coset when first met
            if k * n + d not in key_of:
                key_of.update((k * n + d * s % n, k * n + d) for s in stab_dets)
        width, rem = divmod(n * len(lines) * len(lams) * len(stab_dets) * signs,
                            len(dets) * gamma_order)
        if rem or n % width:
            raise BoundViolated(f"width of cusp {lines[0]} of {G.label} is not a divisor of {n}")
        widths.append(width)

    reps: Dict[int, Vec] = {}  # key -> the first class of its cusp that the scan meets
    total = len(set(key_of.values()))
    for w in chain([one], _classes(n)):
        reps.setdefault(key_of[code(*w)], w)
        if len(reps) == total:
            break

    cusp_at = {key: CuspClass(n=n, rep=rep, width=widths[key // n], lift=sl2_lift(rep, n))
               for key, rep in sorted(reps.items(), key=lambda kr: (kr[1] != one, kr[1]))}
    cusps = tuple(cusp_at.values())
    if sum(c.width for c in cusps) != index:
        raise BoundViolated(f"cusp widths of {G.label} do not sum to its index {index}")
    members: Dict[int, List[CuspClass]] = {}
    for key, c in cusp_at.items():  # (1, 0) first, then by rep: so are the orbits, by first member
        members.setdefault(key // n, []).append(c)
    orbits = tuple(CuspOrbit(members=tuple(m)) for m in members.values())
    cusp_of = {code: cusp_at[key] for code, key in key_of.items()}
    lines_of = {c: walks[key // n][0] for key, c in cusp_at.items()}
    return cusps, (code, cusp_of), orbits, lines_of


def enumerate_cusps(G: SubgroupG) -> List[CuspClass]:
    """One CuspClass per orbit; the class containing (1, 0) comes first."""
    return list(_cusp_data(G)[0])


def cusp_containing(G: SubgroupG, v: Vec) -> CuspClass:
    """The cusp whose vector classes include v: the code of v in the pass's map names it."""
    if gcd(v[0], v[1], G.n) != 1:  # else its P1 key would name some line all the same
        raise ValueError(f"vector {v} is not primitive mod {G.n}")
    code, cusp_of = _cusp_data(G)[1]
    return cusp_of[code(*v)]


def orbit_classes(G: SubgroupG, c: CuspClass) -> List[Vec]:
    """The vector classes of the <G, -1>-orbit of c.rep, filled out from the pass's lines."""
    lines, lams = _cusp_data(G)[3][cusp_containing(G, c.rep)], G.line_scalars(G.n)
    return [canonical_class((lam * x, lam * y), G.n) for x, y in lines for lam in lams]


def cusp_width(G: SubgroupG, c: CuspClass) -> int:
    """Width of the cusp of G that contains c.rep, looked up in the cusp data."""
    return cusp_containing(G, c.rep).width


def sl2_index(G: SubgroupG) -> int:
    """Index of <G, -1> meet SL2 in SL2(Z/N); equals the covering degree to X(1).

    <G, -1> meet SL2 is the kernel of det on <G, -1>: |<G, -1>| / |det G| elements.
    """
    plus_order = G.order if G.contains_minus_one else 2 * G.order
    return sl2_order(G.n) * len(det_image(G).residues) // plus_order


def galois_orbits(G: SubgroupG) -> List[CuspOrbit]:
    """Orbits of <G, -1> on the cusp set; needs det G = (Z/N)^*."""
    if not det_image(G).is_full:
        raise NotDefinedOverQ(
            f"det image of {G.label} is a proper subgroup of (Z/{G.n})^*"
        )
    cusps, _, orbits, _ = _cusp_data(G)
    if sum(o.degree for o in orbits) != len(cusps):
        raise BoundViolated(f"Galois orbits of {G.label} do not partition its {len(cusps)} cusps")
    return list(orbits)


def runge_condition(G: SubgroupG, s: int) -> bool:
    """True iff the number of rational cusp orbits exceeds |S|."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return len(galois_orbits(G)) > s


def place_constants(kind: str, p: Optional[int] = None, n: Optional[int] = None) -> PlaceConstants:
    """Covering-radius constants for one place.

    archimedean: R_v = 2500, r_v = 0.001.  Finite with v(N) = 0: both 1.
    Finite with v | p | N: R_v = p**(N/(p-1)), r_v its inverse.
    Finite places need a prime p and a level n >= 1.
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
    if unit_count(p) != p - 1 or n < 1:  # phi(p) = p - 1 only for primes p
        raise ValueError(f"finite places need a prime p and a level n >= 1, got p={p}, n={n}")
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
