"""Exact 2x2 matrix arithmetic over Z/N and subgroups of GL2(Z/N) given by generators.

Matrices are row-major 4-tuples (a, b, c, d) of least nonnegative residues.
A subgroup is described by its generators alone: |G| and whether -1 lies
in G come from a two-point stabilizer chain with base (e1, e2), found
breadth-first over the orbit G*e1, and the determinant image, the cusps and
the orbits that downstream sums over G reduce to are orbits under the
generators, exact by orbit-stabilizer.  No element set is stored; moduli
are capped.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (
    Callable, Collection, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, TypeVar,
)

from .errors import BoundViolated, NonInvertibleGenerator, UnsupportedModulus

Mat = Tuple[int, int, int, int]

MAX_USER_MODULUS = 101
MAX_PRESET_MODULUS = 343

PRESET_KINDS = ("split_normalizer", "nonsplit_normalizer", "borel", "full")


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def inv_mod(a: int, n: int) -> int:
    g, x, _ = egcd(a % n, n)
    if g != 1:
        raise ValueError(f"{a} is not invertible mod {n}")
    return x % n


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


def mat_inv(m: Mat, n: int) -> Mat:
    di = inv_mod(mat_det(m, n), n)
    return ((m[3] * di) % n, (-m[1] * di) % n, (-m[2] * di) % n, (m[0] * di) % n)


def mat_vec(m: Mat, v: Tuple[int, int], n: int) -> Tuple[int, int]:
    """Column vector v -> m*v."""
    return ((m[0] * v[0] + m[1] * v[1]) % n, (m[2] * v[0] + m[3] * v[1]) % n)


def vec_mat(v: Tuple[int, int], m: Mat, n: int) -> Tuple[int, int]:
    """Row vector v -> v*m."""
    return ((v[0] * m[0] + v[1] * m[2]) % n, (v[0] * m[1] + v[1] * m[3]) % n)


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


@dataclass(frozen=True)
class SubgroupG:
    """A subgroup of GL2(Z/N), described by its generators.

    Invariant: `generators` (reduced 4-tuples) generate a group of `order`
    elements, which contains -1 iff `contains_minus_one`; both facts come
    from the stabilizer chain when the group is built.  The generators
    drive the determinant image and every orbit search (cusps, Galois
    orbits, trace rows, column classes).
    """

    n: int
    generators: Tuple[Mat, ...]
    order: int
    contains_minus_one: bool
    label: str = "custom"

    def generator_mats(self) -> Tuple[Mat, ...]:
        return self.generators

    @functools.cached_property
    def elements(self) -> FrozenSet[Mat]:
        """Every element, built on demand as u_x*(1 b; 0 d) from the chain.

        The library never reads it; it stays for callers that hash or search
        a small group's element set, like the benchmark fingerprint and tests.
        """
        n = self.n
        transversal, stab = _stabilizer_chain(n, self.generators)
        return frozenset(
            (x0, (x0 * b + y0 * d) % n, x1, (x1 * b + y1 * d) % n)
            for (x0, x1), (y0, y1, _) in transversal.items()
            for b, d in stab
        )


@dataclass(frozen=True)
class DetImage:
    """Image of a subgroup under det, with the full-image flag."""

    n: int
    residues: FrozenSet[int]
    is_full: bool


def unit_count(n: int) -> int:
    """Euler phi."""
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def gl2_order(n: int) -> int:
    """|GL2(Z/N)| = N^4 prod_{p|N} (1 - 1/p)(1 - 1/p^2)."""
    result = n ** 4
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result = result // p * (p - 1)
            result = result // (p * p) * (p * p - 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        p = m
        result = result // p * (p - 1)
        result = result // (p * p) * (p * p - 1)
    return result


def sl2_order(n: int) -> int:
    return gl2_order(n) // unit_count(n)


Column = Tuple[int, int]


def _stabilizer_chain(
    n: int, gens: Sequence[Mat]
) -> Tuple[Dict[Column, Tuple[int, int, int]], Set[Column]]:
    """Two-point stabilizer chain of the group G generated by `gens`, base (e1, e2).

    Breadth-first over the orbit G*e1, each vertex x keeps the second column
    y and the inverse det of a generator word u_x with u_x*e1 = x: the
    transversal maps x to (y0, y1, 1/det u_x).  An edge x -> z = g*x to a
    vertex already seen gives the Schreier element u_z^-1*g*u_x, found with
    the adjugate of u_z.  It fixes e1, so it is (1 b; 0 d) and is stored as
    its second column (b, d); these elements generate Stab(e1) (Schreier's
    lemma).  So |G| = |G*e1| * |Stab(e1)| without listing G.
    """
    e1 = (1, 0)
    dets_inv = [pow(mat_det(g, n), -1, n) for g in gens]
    transversal = {e1: (0, 1, 1)}
    queue = [e1]
    stab: Set[Column] = {(0, 1)}
    stab_gens: List[Column] = []
    for x in queue:
        x0, x1 = x
        y0, y1, di = transversal[x]
        for (a, b, c, d), gdi in zip(gens, dets_inv):
            z = ((a * x0 + b * x1) % n, (c * x0 + d * x1) % n)
            w0, w1 = (a * y0 + b * y1) % n, (c * y0 + d * y1) % n
            known = transversal.get(z)
            if known is None:
                transversal[z] = (w0, w1, di * gdi % n)
                queue.append(z)
                continue
            v0, v1, zdi = known
            s = ((v1 * w0 - v0 * w1) * zdi % n, (z[0] * w1 - z[1] * w0) * zdi % n)
            if s in stab:
                continue
            # Dimino's step: <stab, s> is a union of cosets H*r of the old group
            # H, with (b, d)*(b', d') = (b' + b*d', d*d'); a rep r and a
            # generator t open a new coset exactly when r*t lies in none so far
            stab_gens.append(s)
            old = list(stab)
            reps = [(0, 1)]
            for rb, rd in reps:
                for tb, td in stab_gens:
                    r = ((tb + rb * td) % n, rd * td % n)
                    if r not in stab:
                        stab.update(((r[0] + hb * r[1]) % n, hd * r[1] % n) for hb, hd in old)
                        reps.append(r)
    return transversal, stab


def _subgroup(n: int, gens: Sequence[Mat], label: str) -> SubgroupG:
    """SubgroupG for reduced invertible generators, its order and -1 from the chain."""
    transversal, stab = _stabilizer_chain(n, gens)
    # sift -1: it takes e1 to z = -e1, and u_z^-1 * (-1) must lie in
    # Stab(e1); its second column adj(u_z) * (-e2) / det u_z is (y0, 1) / det u_z
    minus = transversal.get(((-1) % n, 0))
    contains_minus_one = minus is not None and (minus[0] * minus[2] % n, minus[2]) in stab
    return SubgroupG(n, tuple(gens), len(transversal) * len(stab), contains_minus_one, label)


def generate_subgroup(
    n: int,
    gens: Sequence[Sequence[int]],
    *,
    max_modulus: int = MAX_USER_MODULUS,
    label: str = "custom",
) -> SubgroupG:
    """The subgroup of GL2(Z/n) generated by `gens`, each reduced mod n."""
    if n < 2 or n > max_modulus:
        raise UnsupportedModulus(f"modulus {n} outside supported range 2..{max_modulus}")
    gen_mats = [mat_reduce(g, n) for g in gens]
    for g in gen_mats:
        if egcd(mat_det(g, n), n)[0] != 1:
            raise NonInvertibleGenerator(f"generator {g} has det {mat_det(g, n)} mod {n}")
    return _subgroup(n, gen_mats, label)


def kernel_level_group(n: int) -> SubgroupG:
    """The subgroup {1, -1}: the curve with full level-N structure."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    return _subgroup(n, (minus_identity_mat(n),), f"kernel:{n}")


def _factorize(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def primitive_root(n: int) -> int:
    """Smallest generator of the cyclic group (Z/p^k)^*, p odd."""
    phi = unit_count(n)
    prime_divs = list(_factorize(phi))
    for g in range(2, n):
        if egcd(g, n)[0] != 1:
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


def _check_preset_modulus(p: int, exponent: int, max_modulus: int) -> int:
    if p < 3 or p % 2 == 0:
        raise UnsupportedModulus(f"preset base must be an odd prime, got {p}")
    for q, _ in _factorize(p).items():
        if q != p:
            raise UnsupportedModulus(f"preset base must be prime, got {p}")
    if exponent < 1:
        raise UnsupportedModulus(f"preset exponent must be >= 1, got {exponent}")
    m = p ** exponent
    if m > max_modulus:
        raise UnsupportedModulus(f"preset modulus {m} exceeds cap {max_modulus}")
    return m


def preset_subgroup(
    kind: str,
    p: int,
    exponent: int = 1,
    *,
    max_modulus: int = MAX_PRESET_MODULUS,
) -> SubgroupG:
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
    m = _check_preset_modulus(p, exponent, max_modulus)
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
    the two standard pro-p generators 1+p and 1+p*sqrt(eps).
    """
    target = p * p - 1

    def mat_of(a: int, b: int) -> Mat:
        return (a % m, (b * eps) % m, b % m, a % m)

    def order_of(mat: Mat) -> int:
        k = 1
        cur = mat
        ident = identity_mat()
        while cur != ident:
            cur = mat_mul(cur, mat, m)
            k += 1
            if k > m * m:
                raise BoundViolated("runaway order computation")
        return k

    gen: Optional[Mat] = None
    for a in range(p):
        for b in range(1, p):
            cand = mat_of(a, b)
            if mat_det(cand, m) % p == 0:
                continue
            if order_of(cand) % target == 0:
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


def det_image(G: SubgroupG) -> DetImage:
    """Image of G under det, as a subset of (Z/N)^*.

    det is a homomorphism, so the image is the subgroup generated by the
    determinants of the generators.
    """
    n = G.n
    dets = {mat_det(g, n) for g in G.generator_mats()}
    residues = frozenset(generated_orbit(1, dets, lambda d, r: d * r % n))
    return DetImage(n=n, residues=residues, is_full=len(residues) == unit_count(n))


def parse_preset(token: str, **kwargs) -> SubgroupG:
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
    return preset_subgroup(_PRESET_LONG[short], p, exponent, **kwargs)


def parse_group_text(text: str, **kwargs) -> SubgroupG:
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
    return generate_subgroup(n, gens, **kwargs)
