"""Exact 2x2 matrix arithmetic over Z/N and subgroups of GL2(Z/N) given by generators.

Matrices are row-major 4-tuples (a, b, c, d) of least nonnegative residues.
A subgroup is described by its generators alone: |G| and the scalars in G
come from a three-level stabilizer chain: the orbit G*[e1] of the line of e1
in P1(Z/N), the image A of Stab([e1]) under (a b; 0 d) -> a, and Stab(e1),
kept as a det image, one translate per det and a translation step.  The
determinant image, the cusps and the orbits that downstream sums over G
reduce to are orbits under the generators, exact by orbit-stabilizer.  No
element set is built, not even a stabilizer's; moduli are capped.  What is
computed per group is kept in the group's own dict (`per_group`), freed with it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd
from typing import (
    Callable, Collection, Dict, FrozenSet, List, Optional, Sequence, Tuple, TypeVar,
)

from .errors import BoundViolated, NonInvertibleGenerator, UnsupportedModulus

Mat = Tuple[int, int, int, int]

MAX_USER_MODULUS = 101
MAX_PRESET_MODULUS = 343

PRESET_KINDS = ("split_normalizer", "nonsplit_normalizer", "borel", "full")


def mat_reduce(m: Sequence[int], n: int) -> Mat:
    a, b, c, d = m
    return (a % n, b % n, c % n, d % n)


def mat_mul(x: Mat, y: Mat, n: int) -> Mat:
    return (
        (x[0] * y[0] + x[1] * y[2]) % n,
        (x[0] * y[1] + x[1] * y[3]) % n,
        (x[2] * y[0] + x[3] * y[2]) % n,
        (x[2] * y[1] + x[3] * y[3]) % n,
    )


def mat_det(m: Mat, n: int) -> int:
    return (m[0] * m[3] - m[1] * m[2]) % n


T = TypeVar("T")


def generated_orbit(seed: T, gens: Collection, act: Callable[..., T]) -> List[T]:
    """Orbit of `seed` under the group generated by `gens`, breadth-first.

    act(g, x) is the action of one generator.  In a finite group every
    inverse is a positive power, so the generators alone reach the whole
    orbit.
    """
    seen = {seed}
    out = [seed]
    for x in out:
        for g in gens:
            y = act(g, x)
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


def identity_mat() -> Mat:
    return (1, 0, 0, 1)


def minus_identity_mat(n: int) -> Mat:
    return mat_reduce((-1, 0, 0, -1), n)


def per_group(fn: Callable[..., T]) -> Callable[..., T]:
    """Memoize fn(G, *args) in G's instance dict, freed with G: no value may refer back to G."""
    @functools.wraps(fn)
    def memo(G: SubgroupG, *args) -> T:
        cache, key = G.__dict__.setdefault("_per_group", {}), (fn, *args)
        if key not in cache:
            cache[key] = fn(G, *args)
        return cache[key]
    return memo


@dataclass(frozen=True)
class SubgroupG:
    """A subgroup of GL2(Z/N), described by its generators.

    Invariant: `generators` (reduced 4-tuples) generate a group of `order`
    elements, whose scalars s*1 are those with s in the sorted `scalars`;
    both facts come from the three levels of the stabilizer chain (the line
    G*[e1], A, Stab(e1)) when the group is built.  The generators drive the
    determinant image and every orbit search (cusps, Galois orbits, trace
    rows, columns); their results stay in the instance dict (`per_group`).
    """

    n: int
    generators: Tuple[Mat, ...]
    order: int
    scalars: Tuple[int, ...]
    label: str = "custom"

    contains_minus_one = property(lambda self: self.scalars[-1] == self.n - 1)
    contains_scalars = property(lambda self: len(self.scalars) == unit_count(self.n))

    @per_group
    def line_scalars(self, m: int) -> Tuple[int, ...]:
        """The least of +/-s mod m for each scalar s, once each: a primitive w's line is {s*w}."""
        return tuple(sorted({min(s % m, -s % m) for s in self.scalars}))

    def generator_mats(self) -> Tuple[Mat, ...]:
        """Alias of `generators`, kept because the benchmark fingerprint reads it."""
        return self.generators

    @functools.cached_property
    def elements(self) -> FrozenSet[Mat]:
        """Every element, built on demand as u*t_a*(1 b; 0 d) from the chain's three levels.

        The library never reads it; it stays for callers that hash or search
        a small group's element set, like the benchmark fingerprint and tests.
        """
        n = self.n
        transversal, units, beta, step, _ = _stabilizer_chain(n, self.generators)
        cols = (  # the columns of u*t_a, once per (u, a)
            (a * x0 % n, a * x1 % n, (b * x0 + d * y0) % n, (b * x1 + d * y1) % n)
            for x0, x1, y0, y1, _ in transversal.values() for a, (b, d, _, _) in units.items()
        )
        return frozenset(
            (x0, (x0 * b + y0 * d) % n, x1, (x1 * b + y1 * d) % n)
            for x0, x1, y0, y1 in cols
            for d, b0 in beta.items() for b in range(b0 % step, n, step)
        )


@dataclass(frozen=True)
class DetImage:
    """Image of a subgroup under det, with the full-image flag."""

    n: int
    residues: FrozenSet[int]
    is_full: bool


def _factorize(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    m, p = n, 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def unit_count(n: int) -> int:
    """Euler phi: N prod_{p|N} (1 - 1/p)."""
    result = n
    for p in _factorize(n):
        result = result // p * (p - 1)
    return result


def gl2_order(n: int) -> int:
    """|GL2(Z/N)| = N^4 prod_{p|N} (1 - 1/p)(1 - 1/p^2)."""
    result = n ** 4
    for p in _factorize(n):
        result = result // p ** 3 * (p - 1) * (p * p - 1)
    return result


def sl2_order(n: int) -> int:
    return gl2_order(n) // unit_count(n)


Column = Tuple[int, int]


def _line_key(n: int) -> Callable[[int, int], Tuple[Tuple[int, ...], int]]:
    """(key, s) of a primitive (x, y): its point of P1(Z/n) and the unit s with (x, y) = s*rep.

    In Cremona's normal form (Algorithms for Modular Elliptic Curves, 2.2),
    per prime power q = p^e dividing n the rep is (1, y/x) with s_q = x when p
    does not divide x, else (x/y, 1) with s_q = y, keyed y/x or q + x/y mod q.
    By the CRT the tuple over q tells points apart, and s = sum of s_q*e_q over
    the idempotents e_q = 1 mod q, 0 mod n/q.
    """
    parts = [(p, p ** e, [pow(v, -1, p ** e) if v % p else 0 for v in range(p ** e)],
              n // p ** e * pow(n // p ** e, -1, p ** e)) for p, e in _factorize(n).items()]

    def key(x: int, y: int) -> Tuple[Tuple[int, ...], int]:
        point, s = [], 0
        for p, q, inv, e_q in parts:
            if x % p:
                point.append(y * inv[x % q] % q)
                s += x * e_q
            else:
                point.append(q + x * inv[y % q] % q)
                s += y * e_q
        return tuple(point), s % n
    return key


def _stabilizer_chain(n: int, gens: Sequence[Mat]) -> Tuple[dict, dict, dict, int, tuple]:
    """Three-level stabilizer chain of the group G generated by `gens`.

    Level 1 is the orbit G*[e1] in P1(Z/N), found breadth-first: the
    transversal maps each line's key to the columns x, y and 1/det of a
    generator word u with u*[e1] the line.  An edge P -> Q = g*P to a line
    already seen gives the Schreier element h = u_Q^-1*g*u_P, which fixes [e1]:
    it is (a b; 0 d), and these generate Stab([e1]) (Schreier's lemma).
    Level 2 is the image A of Stab([e1]) under (a b; 0 d) -> a: `units` maps
    each a in A to (b, d, 1/a, 1/d) of one t_a = (a b; 0 d) in Stab([e1]).
    Level 3 is the kernel Stab(e1) = {(1 b; 0 d)}, kept as one b per d of
    its det image D, in `beta`, and a step: it is {(beta[d] + k*step, d)}, as
    two elements over one d differ by a translation.  So
    |G| = |G*[e1]| * |A| * |D| * N/step.

    Each h sifts to t_a^-1*h in level 3.  One that fails (or whose a is not
    in A) joins the generators of Stab([e1]), and levels 2 and 3 are rebuilt
    from them by Schreier's lemma again: breadth-first over A, each edge to
    an a already reached sifting t_a'^-1*g*t_a into level 3.  Each rebuild
    at least doubles the group the two levels hold.  Last come the scalars:
    s*1 is in G iff s is in A and t_s^-1*s*1 is in level 3.
    """
    key = _line_key(n)
    dets_inv = [pow(mat_det(g, n), -1, n) for g in gens]
    transversal = {key(1, 0)[0]: (1, 0, 0, 1, 1)}
    queue = list(transversal.values())
    units = {1: (0, 1, 1, 1)}
    beta, step = {1: 0}, n
    borel: List[Tuple[int, int, int, int, int]] = []
    kernel: List[Column] = []

    def residue(a: int, b: int, d: int) -> Optional[Column]:
        # t_a^-1 * (a b; 0 d) = (1 b'; 0 d') as (b', d'), or None when that is in level 3
        tb, td, tai, tdi = units[a]
        kd = tdi * d % n
        kb = tai * (b - tb * kd) % n
        return None if kd in beta and (kb - beta[kd]) % step == 0 else (kb, kd)

    for x0, x1, y0, y1, di in queue:
        for (a, b, c, d), gdi in zip(gens, dets_inv):
            z0, z1 = (a * x0 + b * x1) % n, (c * x0 + d * x1) % n
            w0, w1 = (a * y0 + b * y1) % n, (c * y0 + d * y1) % n
            new = (z0, z1, w0, w1, di * gdi % n)
            u = transversal.setdefault(key(z0, z1)[0], new)
            if u is new:
                queue.append(u)
                continue
            # h = u^-1 * (z w), with u^-1 = adj(u)/det u
            v0, v1, t0, t1, vdi = u
            ha, hd = (t1 * z0 - t0 * z1) * vdi % n, (v0 * w1 - v1 * w0) * vdi % n
            hb = (t1 * w0 - t0 * w1) * vdi % n
            if ha in units and residue(ha, hb, hd) is None:
                continue
            borel.append((ha, hb, hd, pow(ha, -1, n), pow(hd, -1, n)))
            units, reached = {1: (0, 1, 1, 1)}, [1]
            for ra in reached:
                tb, td, tai, tdi = units[ra]
                for sa, sb, sd, sai, sdi in borel:
                    na, nb, nd = sa * ra % n, (sa * tb + sb * td) % n, sd * td % n
                    if na not in units:
                        units[na] = (nb, nd, sai * tai % n, sdi * tdi % n)
                        reached.append(na)
                        continue
                    k = residue(na, nb, nd)
                    if k is None:
                        continue
                    # rebuild (beta, step) breadth-first over D, with (b, d)*(b', d') =
                    # (b' + b*d', d*d'); an edge to a d already reached adds a translation
                    kernel.append(k)
                    beta, step, ds = {1: 0}, n, [1]
                    for rd in ds:
                        for kb, kd in kernel:
                            eb, ed = (kb + beta[rd] * kd) % n, rd * kd % n
                            if ed not in beta:
                                ds.append(ed)
                            step = gcd(step, eb - beta.setdefault(ed, eb))
    # s*1 fixes [e1], whose u is 1: it sifts as (s 0; 0 s)
    scalars = tuple(s for s in range(1, n) if s in units and residue(s, 0, s) is None)
    return transversal, units, beta, step, scalars


def _subgroup(n: int, gens: Sequence[Mat], label: str) -> SubgroupG:
    """SubgroupG for reduced invertible generators, its order and scalars from the chain."""
    transversal, units, beta, step, scalars = _stabilizer_chain(n, gens)
    order = len(transversal) * len(units) * len(beta) * (n // step)
    return SubgroupG(n, tuple(gens), order, scalars, label)


def generate_subgroup(n: int, gens: Sequence[Sequence[int]]) -> SubgroupG:
    """The subgroup of GL2(Z/n) generated by `gens`, each reduced mod n, labelled "custom"."""
    if n < 2 or n > MAX_USER_MODULUS:
        raise UnsupportedModulus(f"modulus {n} outside supported range 2..{MAX_USER_MODULUS}")
    gen_mats = [mat_reduce(g, n) for g in gens]
    for g in gen_mats:
        if gcd(mat_det(g, n), n) != 1:
            raise NonInvertibleGenerator(f"generator {g} has det {mat_det(g, n)} mod {n}")
    return _subgroup(n, gen_mats, "custom")


def kernel_level_group(n: int) -> SubgroupG:
    """The subgroup {1, -1}: the curve with full level-N structure."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    return _subgroup(n, (minus_identity_mat(n),), f"kernel:{n}")


def primitive_root(n: int) -> int:
    """Smallest generator of the cyclic group (Z/p^k)^*, p odd."""
    phi = unit_count(n)
    prime_divs = list(_factorize(phi))
    for g in range(2, n):
        if gcd(g, n) != 1:
            continue
        if all(pow(g, phi // q, n) != 1 for q in prime_divs):
            return g
    raise ValueError(f"no primitive root mod {n}")


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod an odd prime p."""
    squares = {pow(x, 2, p) for x in range(1, p)}
    for eps in range(2, p):
        if eps not in squares:
            return eps
    raise ValueError(f"no non-residue mod {p}")


def _check_preset_modulus(p: int, exponent: int) -> int:
    if p < 3 or p % 2 == 0:
        raise UnsupportedModulus(f"preset base must be an odd prime, got {p}")
    if exponent < 1:
        raise UnsupportedModulus(f"preset exponent must be >= 1, got {exponent}")
    m = 1
    for _ in range(exponent):  # stops once m passes the cap, so no huge power is built
        m *= p
        if m > MAX_PRESET_MODULUS:
            raise UnsupportedModulus(
                f"preset modulus {p}^{exponent} exceeds cap {MAX_PRESET_MODULUS}")
    if _factorize(p) != {p: 1}:
        raise UnsupportedModulus(f"preset base must be prime, got {p}")
    return m


def preset_subgroup(kind: str, p: int, exponent: int = 1) -> SubgroupG:
    """Construct one of the named subgroups mod p^exponent from its generators.

    split_normalizer: diagonal plus antidiagonal invertible matrices.
    nonsplit_normalizer: matrices (a, b*eps; b, a) for a fixed non-residue
    eps, together with the coset by diag(1, -1).
    borel: invertible upper-triangular matrices.
    full: all of GL2(Z/p^exponent).
    The generators are the only description; their chain order must equal
    the closed form for the kind, and the group must contain -1.
    """
    if kind not in PRESET_KINDS:
        raise ValueError(f"unknown preset kind {kind!r}; choose from {PRESET_KINDS}")
    m = _check_preset_modulus(p, exponent)
    phi = unit_count(m)

    if kind == "split_normalizer":
        g = primitive_root(m)
        gens = [(g, 0, 0, 1), (1, 0, 0, g), (0, 1, 1, 0)]
        expected = 2 * phi * phi
    elif kind == "nonsplit_normalizer":
        gens = _nonsplit_generators(m, p, smallest_nonresidue(p)) + [(1, 0, 0, m - 1)]
        expected = 2 * p ** (2 * (exponent - 1)) * (p * p - 1)
    elif kind == "borel":
        g = primitive_root(m)
        gens = [(g, 0, 0, 1), (1, 0, 0, g), (1, 1, 0, 1)]
        expected = phi * phi * m
    else:  # full
        g = primitive_root(m)
        gens = [(g, 0, 0, 1), (1, 1, 0, 1), (0, m - 1, 1, 0)]
        expected = gl2_order(m)

    label = f"{_PRESET_SHORT[kind]}:{p}" + (f"^{exponent}" if exponent > 1 else "")
    group = _subgroup(m, gens, label)
    if group.order != expected:
        raise BoundViolated(
            f"preset {kind} mod {m}: its generators give {group.order} elements, "
            f"expected {expected}"
        )
    if not group.contains_minus_one:
        raise BoundViolated(f"preset {kind} mod {m} lost -1")
    return group


def _nonsplit_generators(m: int, p: int, eps: int) -> List[Mat]:
    """Generators of the nonsplit torus mod m = p^k.

    A Teichmueller-type element of maximal prime-to-p order plus, for k > 1,
    the two standard pro-p generators 1+p and 1+p*sqrt(eps).  Reduction mod
    p has a p-group kernel, so the prime-to-p order of a unit mod m is its
    order mod p.  So the search takes the first candidate of order p^2 - 1
    mod p, tested by fast powering against the primes q | p^2 - 1.
    """
    target = p * p - 1
    cofactors = [target // q for q in _factorize(target)]

    def mat_pow(x: Mat, e: int) -> Mat:
        out = identity_mat()
        while e:
            if e & 1:
                out = mat_mul(out, x, p)
            x = mat_mul(x, x, p)
            e >>= 1
        return out

    gen: Optional[Mat] = None
    for a in range(p):
        for b in range(1, p):
            cand = (a % m, (b * eps) % m, b % m, a % m)
            if mat_det(cand, m) % p == 0:
                continue
            # mat_mul reduces mod p, so the powers are taken mod p
            if all(mat_pow(cand, e) != identity_mat() for e in cofactors):
                gen = cand
                break
        if gen is not None:
            break
    if gen is None:
        raise BoundViolated(f"no generator of the nonsplit torus mod {p}")
    out = [gen]
    if m != p:
        out.append(((1 + p) % m, 0, 0, (1 + p) % m))
        out.append((1, (p * eps) % m, p % m, 1))
    return out


_PRESET_SHORT = {
    "split_normalizer": "split",
    "nonsplit_normalizer": "nonsplit",
    "borel": "borel",
    "full": "full",
}

_PRESET_LONG = {short: long for long, short in _PRESET_SHORT.items()}


@per_group
def det_image(G: SubgroupG) -> DetImage:
    """Image of G under det: the subgroup of (Z/N)^* the generators' dets generate."""
    n = G.n
    dets = {mat_det(g, n) for g in G.generators}
    residues = frozenset(generated_orbit(1, dets, lambda d, r: d * r % n))
    return DetImage(n=n, residues=residues, is_full=len(residues) == unit_count(n))


def parse_preset(token: str) -> SubgroupG:
    """Parse `split:5`, `nonsplit:7`, `borel:3^2`, `full:5` shorthand."""
    if ":" not in token:
        raise ValueError(f"preset shorthand must look like kind:p or kind:p^n, got {token!r}")
    short, _, tail = token.partition(":")
    if short not in _PRESET_LONG:
        raise ValueError(f"unknown preset {short!r}; choose from {sorted(_PRESET_LONG)}")
    if "^" in tail:
        p_str, _, n_str = tail.partition("^")
    else:
        p_str, n_str = tail, "1"
    try:
        p, exponent = int(p_str), int(n_str)
    except ValueError as exc:
        raise ValueError(f"bad preset modulus in {token!r}") from exc
    return preset_subgroup(_PRESET_LONG[short], p, exponent)


def parse_group_text(text: str) -> SubgroupG:
    """Parse the group-definition text format.

    First line `N=<modulus>`, then one generator per line as four
    integers `a b c d` (row-major).  Blank lines and `#` comments allowed.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines or not lines[0].replace(" ", "").upper().startswith("N="):
        raise ValueError("group file must start with a line N=<modulus>")
    try:
        n = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise ValueError(f"bad modulus line {lines[0]!r}") from exc
    gens: List[Mat] = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ValueError(f"generator line must have 4 integers, got {ln!r}")
        a, b, c, d = (int(x) for x in parts)
        gens.append((a, b, c, d))
    return generate_subgroup(n, gens)
