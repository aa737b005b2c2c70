"""Siegel-unit divisors on X_G and the Runge unit.

Everything here is exact integer or rational arithmetic.  The basic datum
is ell(a) = B2({a1})/2; all cusp orders are integer combinations of the
scaled values 12*n^2*ell(x/n) = 6x^2 - 6nx + n^2.  A row of the divisor
matrix sums them over one cusp orbit's lines {s*r}, s a scalar of G, as one
table lookup F(a*r) = sum over s of the value at s*a*r per line rep r that
the cusp pass in `cusps` kept; nothing here walks a cusp orbit again.  The
column classes come from those lines too, and below level N from the same
pass, `_line_orbits`, one map entry per line (see `_column_reps`).  The
rank of the divisor matrix, the Runge minor S and the determinants of
Cramer's rule all come from one fraction-free elimination, `_echelon`.
"""

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Sequence, Tuple

from .cusps import (CuspClass, CuspOrbit, Vec, _cusp_data, _line_orbits, cusp_containing,
                    galois_orbits, runge_condition)
from .errors import (
    BoundViolated,
    ModulusMismatch,
    NotDefinedOverQ,
    NotIntegral,
    RankDeficient,
    RungeConditionFailed,
    SigmaNotProper,
)
from .modnt import Mat, SubgroupG, det_image, mat_det, per_group, unit_count


@dataclass(frozen=True)
class TorsionIndex:
    """Nonzero a = (a1/n, a2/n) in (n^-1 Z/Z)^2, stored by residues mod n."""

    n: int
    a1: int
    a2: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "a1", self.a1 % self.n)
        object.__setattr__(self, "a2", self.a2 % self.n)
        if self.a1 == 0 and self.a2 == 0:
            raise ValueError("torsion index must be nonzero")

    @property
    def order(self) -> int:
        return self.n // gcd(gcd(self.a1, self.a2), self.n)

    def times_matrix(self, m: Mat) -> "TorsionIndex":
        """Right action a -> a*m by a row vector times matrix product."""
        a1, a2 = self.a1, self.a2
        return TorsionIndex(
            self.n, (a1 * m[0] + a2 * m[2]) % self.n, (a1 * m[1] + a2 * m[3]) % self.n
        )


@dataclass(frozen=True)
class CuspDivisor:
    """Divisor supported on cusps: an exact integer order at each class."""

    orders: Dict[CuspClass, int]

    def degree(self) -> int:
        # plain sum over the stored classes (all geometric points)
        return sum(self.orders.values())


def bernoulli2(t: Fraction) -> Fraction:
    """Second Bernoulli polynomial T^2 - T + 1/6 on [0, 1]."""
    t = Fraction(t)
    if t < 0 or t > 1:
        raise ValueError("argument must lie in [0, 1]")
    return t * t - t + Fraction(1, 6)


def ell(a: TorsionIndex) -> Fraction:
    """Half of B2 at the fractional part of a1/n; |ell| <= 1/12."""
    return bernoulli2(Fraction(a.a1, a.n)) / 2


@functools.lru_cache(maxsize=64)
def _ell_table(n: int, lams: Tuple[int, ...]) -> Tuple[int, ...]:
    # F(x) = the sum over lam in lams of 12*n^2*ell(lam*x/n), an exact integer, for x in [0, n);
    # lams are a group's `line_scalars` and the summand is even, so F is constant on each
    # orbit {+/-lam*x} and summed once per orbit
    table: Dict[int, int] = {}
    for x in range(n):
        if x not in table:
            orbit = [lam * x % n for lam in lams]
            total = sum(6 * y * y - 6 * n * y + n * n for y in orbit)
            table.update((z, total) for y in orbit for z in (y, -y % n))
    return tuple(table[x] for x in range(n))


def ord_u(n: int, a: TorsionIndex, c: CuspClass) -> int:
    """Order of u_a at a cusp of the full level-n curve: 12 n^2 ell(a*lift)."""
    if a.n != n or c.n != n:
        raise ModulusMismatch(f"expected modulus {n}, got a mod {a.n}, cusp mod {c.n}")
    # only the first column of the lift enters the row-vector product
    x = (a.a1 * c.lift[0] + a.a2 * c.lift[2]) % n
    val = 6 * x * x - 6 * n * x + n * n
    if abs(val) > n * n:
        raise BoundViolated(f"|12 n^2 ell| = {abs(val)} exceeds n^2 = {n * n}")
    return val


@per_group  # runge_unit rebuilds the divisor matrix that a caller often has just built
def _trace_row(G: SubgroupG, c: CuspClass, columns: Tuple[TorsionIndex, ...]) -> Tuple[int, ...]:
    """Orders at the cusp c of the trace products w_a, a in columns, over c's orbit lines.

    Each is (width/n) * sum over sigma in G of 12 n^2 ell(a*sigma*lift), and
    sigma*lift has first column sigma*rep.  The table is even, and as -1
    commutes with G, G*rep meets every +/- class of the orbit in the same
    number (1 or 2) of vectors: the sum is |G|/|classes| times that over the
    classes lam*r, r a line rep.  As a*(lam*r) = lam*(a*r), that is the sum
    over r of F(a*r), where F(k) sums the table at lam*k over the lams.
    """
    n = G.n
    if not det_image(G).is_full:
        raise NotDefinedOverQ("trace orders need the determinant map onto (Z/n)*")
    lines, lams = _cusp_data(G)[3][cusp_containing(G, c.rep)], G.line_scalars(n)
    mult, rem = divmod(G.order, len(lines) * len(lams))
    if rem:
        raise BoundViolated(f"an orbit's {len(lines)}*{len(lams)} classes do not divide {G.order}")
    table = _ell_table(n, lams)
    row = []
    for a in columns:
        a1, a2 = a.a1, a.a2
        total = mult * sum(table[(a1 * u + a2 * w) % n] for u, w in lines)
        val, rem = divmod(c.width * total, n)
        if rem:
            raise NotIntegral(f"width {c.width} times {total} is not divisible by {n}")
        if abs(val) > G.order * n * n:
            raise BoundViolated(f"|ord_w| = {abs(val)} exceeds |G| n^2 = {G.order * n * n}")
        row.append(val)
    return tuple(row)


def ord_w(G: SubgroupG, a: TorsionIndex, c: CuspClass) -> int:
    """Order at the cusp c of X_G of the trace product w_a over G: a one-column row."""
    n = G.n
    if a.n != n or c.n != n:
        raise ModulusMismatch(f"expected modulus {n}, got a mod {a.n}, cusp mod {c.n}")
    return _trace_row(G, c, (a,))[0]


def _least_row(lines: Sequence[Vec], m: int, lams: Sequence[int]) -> Vec:
    """Least row of an orbit of +/- column classes mod m, from one class per line.

    As b = J*a^T, the line of (x, y) holds the rows u*(-y, x), u in +/-lams.  If
    those are all units, the least first entry is g = gcd(y, m), got by u = g/(-y) mod m/g.
    """
    if 2 * len(lams) < unit_count(m):
        return min(min((lam * -y % m, lam * x % m), (lam * y % m, lam * -x % m))
                   for x, y in lines for lam in lams)
    first = min(gcd(y, m) % m for _, y in lines)
    g = gcd(first, m)
    return first, min(u * x % m for x, y in lines if gcd(y, m) % m == first
                      for u in range(pow(-y % m // g, -1, m // g), m, m // g) if gcd(u, m) == 1)


def _level_reps(m: int, gens: Sequence[Mat], lams: Sequence[int]) -> List[Vec]:
    """Least row of each orbit of the +/- primitive column classes mod m under gens and lams."""
    return [_least_row(lines, m, lams) for lines, _ in _line_orbits(m, gens, lams)[0]]


@per_group
def _column_reps(G: SubgroupG) -> Tuple[TorsionIndex, ...]:
    """Lex-least representatives of nonzero row vectors modulo a -> +/-(a*sigma), sorted.

    With J = (0 1; -1 0) and b = J*a^T, J*(a*sigma)^T = det(sigma) sigma^-1 b, so
    the row classes are the +/- column classes under G' = <det(g)^-1 g>, as
    g -> det(g)^-1 g is a homomorphism.  Rows of content d = gcd(a1, a2, N) are
    d times the primitive rows mod N/d: one class-orbit pass under G' mod N/d
    each, by lines, as G' holds lam^-1 for each scalar lam of G.  If G holds
    every scalar, G' lies in G and, the map being injective, is G: the
    content-1 classes are then the cusp pass's <G, -1>-orbits, by lines.
    """
    n = G.n
    gens = [tuple(pow(mat_det(g, n), -1, n) * x % n for x in g) for g in G.generators]
    if G.contains_scalars:
        _, _, orbits, lines_of = _cusp_data(G)
        reps = [_least_row(lines_of[o.members[0]], n, G.line_scalars(n)) for o in orbits]
    else:
        reps = _level_reps(n, gens, G.line_scalars(n))
    for d in [d for d in range(2, n) if n % d == 0]:
        reps += [(d * x, d * y) for x, y in _level_reps(n // d, gens, G.line_scalars(n // d))]
    return tuple(TorsionIndex(n, x, y) for x, y in sorted(reps))


@dataclass(frozen=True)
class DivisorMatrix:
    """Exact matrix (ord_c w_a): rows are Galois orbits, columns classes of a."""

    group: SubgroupG
    orbits: Tuple[CuspOrbit, ...]
    columns: Tuple[TorsionIndex, ...]
    entries: Tuple[Tuple[int, ...], ...]
    entry_bound: int


def divisor_matrix(G: SubgroupG) -> DivisorMatrix:
    """Divisor matrix of the w_a, one row per Galois orbit of cusps."""
    orbits = galois_orbits(G)
    cols = _column_reps(G)
    rows = tuple(_trace_row(G, orbit.members[0], cols) for orbit in orbits)
    bound = G.order * G.n * G.n
    if any(abs(e) > bound for row in rows for e in row):
        raise BoundViolated(f"a divisor matrix entry exceeds |G| n^2 = {bound}")
    return DivisorMatrix(G, orbits, cols, rows, bound)


def weighted_column_sums(M: DivisorMatrix) -> Tuple[int, ...]:
    """Orbit-degree-weighted column sums; zero for divisors of units."""
    degs = [o.degree for o in M.orbits]
    t = len(M.columns)
    return tuple(
        sum(d * M.entries[i][j] for i, d in enumerate(degs)) for j in range(t)
    )


def _echelon(rows: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], int]:
    """Pivot columns and signed last pivot of an integer matrix (Bareiss elimination).

    The pivot columns are the first independent columns from the left.  The
    last pivot is the minor on them and on the rows swapped to the top, so the
    sign of the row swaps times it is det of the pivot-column minor when every
    row holds a pivot; with no pivot it is 1.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: List[int] = []
    sign = prev = 1
    for col in range(nc):
        row = len(pivots)
        piv = next((r for r in range(row, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            sign = -sign
        for r in range(row + 1, nr):
            for c in range(col + 1, nc):
                # Bareiss step: the division is exact
                m[r][c] = (m[row][col] * m[r][c] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        pivots.append(col)
        if len(pivots) == nr:
            break
    return tuple(pivots), sign * prev


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("determinant needs a square matrix")
    pivots, det = _echelon(rows)
    return det if len(pivots) == len(rows) else 0


def divisor_rank(M: DivisorMatrix) -> int:
    """Rank of the divisor matrix over the rationals."""
    return len(_echelon(M.entries)[0])


def runge_vector(M: Sequence[Sequence[int]], A: int) -> Tuple[int, ...]:
    """Integer vector b with M*b componentwise positive and small l1 norm.

    Takes S, the s x s minor on the first s independent columns from the left,
    and its determinant from one elimination, then sets b on those columns by
    b_k = sign(det S) * det(S with column k replaced by all-ones), so that
    M*b = (|det S|, ..., |det S|).  Hadamard's inequality gives
    l1(b) <= s^(s/2+1) * A^(s-1), checked exactly on squares.
    """
    rows = [list(r) for r in M]
    s = len(rows)
    if s == 0:
        raise ValueError("matrix must have at least one row")
    t = len(rows[0])
    if any(len(r) != t for r in rows):
        raise ValueError("ragged matrix")
    if A < 0 or any(abs(e) > A for r in rows for e in r):
        raise ValueError(f"matrix entries exceed the stated bound {A}")

    chosen, d = _echelon(rows)
    if len(chosen) < s:
        raise RankDeficient(f"matrix has rank below its row count {s}")

    S = [[row[k] for k in chosen] for row in rows]
    sign = 1 if d > 0 else -1
    b = [0] * t
    for k in range(s):
        replaced = [row[:k] + [1] + row[k + 1 :] for row in S]
        b[chosen[k]] = sign * _int_det(replaced)
    target = abs(d)
    for i in range(s):
        got = sum(rows[i][j] * b[j] for j in range(t))
        if got != target:
            raise BoundViolated(f"row {i} gives {got}, not |det S| = {target}")

    norm = sum(abs(x) for x in b)
    if norm * norm > s ** (s + 2) * A ** (2 * (s - 1)):
        raise BoundViolated(f"l1 norm {norm} exceeds s^(s/2+1) A^(s-1)")
    return tuple(b)


_LOG2_UP = Fraction(6931471805599453095, 10 ** 19)  # > log 2, by less than 2^-60


def _float_up(q) -> float:
    """The least float >= q: inf only when q passes the float range."""
    f = math.inf if q > sys.float_info.max else float(q)
    return f if f >= q else math.nextafter(f, math.inf)


@dataclass(frozen=True)
class RungeUnit:
    """Unit with positive cusp orders on a target orbit set.

    exponents maps a-classes to integers b_a; the unit is prod w_a^(b_a).
    B = s^(s/2+1) (|G| n^2)^(s-1); bound_B_squared is its exact square.  The
    float fields are upper bounds, rounded up: bound_B of B and the budgets.
    """

    group: SubgroupG
    s: int
    sigma: Tuple[CuspOrbit, ...]
    exponents: Dict[TorsionIndex, int]
    divisor: CuspDivisor
    l1_norm: int
    bound_B: float
    bound_B_squared: int
    lambda_budget_log2: float
    lambda_budget_relaxed: float


def runge_unit(G: SubgroupG, sigma: Iterable[CuspOrbit], s: int) -> RungeUnit:
    """Unit positive on the orbits in sigma, built by the determinant trick.

    Requires sigma to be a nonempty proper subset of the Galois orbits with
    |sigma| <= s and more orbits than s in total.  Also reports the height
    budgets 12 B |G| n log 2 and 9 B |G| n for the leading coefficient.
    """
    M = divisor_matrix(G)
    orbits = M.orbits
    sig = list(dict.fromkeys(sigma))
    if any(o not in orbits for o in sig):
        raise SigmaNotProper("sigma must consist of Galois orbits of this group")
    if not sig or len(sig) >= len(orbits):
        raise SigmaNotProper("sigma must be a nonempty proper subset of the orbits")
    if not runge_condition(G, s) or len(sig) > s:
        raise RungeConditionFailed(
            f"need |sigma| <= s and more than s orbits; got {len(sig)}, s={s}, "
            f"{len(orbits)} orbits"
        )

    idx = sorted(orbits.index(o) for o in sig)
    b = runge_vector([M.entries[i] for i in idx], M.entry_bound)

    n = G.n
    g = G.order
    exponents = {M.columns[j]: b[j] for j in range(len(b)) if b[j] != 0}
    orbit_orders = [
        sum(b[j] * M.entries[i][j] for j in range(len(b)))
        for i in range(len(orbits))
    ]
    orders: Dict[CuspClass, int] = {}
    for i, orbit in enumerate(orbits):
        for member in orbit.members:
            orders[member] = orbit_orders[i]

    l1 = sum(abs(x) for x in b)
    bound_sq = s ** (s + 2) * (g * n * n) ** (2 * (s - 1))
    if l1 * l1 > bound_sq:
        raise BoundViolated(f"l1 norm {l1} exceeds B")
    if any(orbit_orders[i] <= 0 for i in idx):
        raise BoundViolated("the unit is not positive on every orbit of sigma")
    # |ord| <= B |G| n^2 everywhere, compared on exact squares
    if any(v * v > bound_sq * (g * n * n) ** 2 for v in orbit_orders):
        raise BoundViolated("a cusp order exceeds B |G| n^2")

    r = math.isqrt(bound_sq - 1) + 1  # the least integer >= B
    return RungeUnit(
        group=G,
        s=s,
        sigma=tuple(orbits[i] for i in idx),
        exponents=exponents,
        divisor=CuspDivisor(orders),
        l1_norm=l1,
        bound_B=_float_up(r),
        bound_B_squared=bound_sq,
        lambda_budget_log2=_float_up(12 * r * g * n * _LOG2_UP),
        lambda_budget_relaxed=_float_up(9 * r * g * n),
    )
