"""Workload definitions: seeded inputs, the timed op of each workload, and
the outside-in correctness checks that decide whether an op failed.

Input generation uses only the standard library, so a worker can build its
inputs before it imports (and times the import of) rungemod.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

FAMILIES = ("pqj", "cdplus", "siegel", "smallj", "everysimple")

SWEEP_PRECISION = {"sweeps-128": 128, "sweeps-1024": 1024}
WORKLOADS = ("sweeps-128", "sweeps-1024", "census")

# Rounds in one sweeps pass (one op per family in a round), sized so that a
# pass takes 20 s (128 bits) and 40 s (1024 bits) on a 2-core AMD EPYC with
# the pure-python mpmath backend; at 1024 bits the extra rounds thicken the
# tail, where op_p90_ms falls.  Every FRINGE_EVERY-th round draws its sweep seeds from the
# benchmark seed; the other rounds use the fixed sweep seeds 0, 1, 2, ...
# At 1024 bits one op costs 20 ms to 2 s depending on the sampled point, so a
# pass drawn entirely from the seed would spread by 13-25% from seed to seed.
SWEEP_ROUNDS = {"sweeps-128": 2400, "sweeps-1024": 64}
TINY_SWEEP_ROUNDS = 2
FRINGE_EVERY = 10

# j(i) and j(2i), the setup check of both sweeps workloads.
J_AT_I = 1728
J_AT_2I = 287496


def derive_seed(seed: int, *labels) -> int:
    """A 40-bit seed derived from the benchmark seed and some labels."""
    text = ":".join([str(seed)] + [str(x) for x in labels])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:5], "big")


# ------------------------------------------------------------------ sweeps


@dataclass(frozen=True)
class SweepOp:
    family: str
    sweep_seed: int


def sweep_ops(workload: str, seed: int, tiny: bool = False) -> List[SweepOp]:
    """The ops of one sweeps pass: whole rounds in a seed-shuffled order."""
    rounds = TINY_SWEEP_ROUNDS if tiny else SWEEP_ROUNDS[workload]
    order = list(range(rounds))
    random.Random(derive_seed(seed, workload, "order")).shuffle(order)
    ops = []
    for r in order:
        fringe = r % FRINGE_EVERY == FRINGE_EVERY - 1
        for fam in FAMILIES:
            # fringe seeds sit above 2**40, clear of the fixed seeds
            s = (1 << 40) + derive_seed(seed, workload, fam, r) if fringe else r
            ops.append(SweepOp(fam, s))
    return ops


def sweep_setup(rm, precision: int, inject: bool) -> Tuple[object, List[str]]:
    """Build split:5 and check eval_j at i and 2i; returns (G, failures)."""
    G = rm.parse_preset("split:5")
    failures = []
    expected_i = J_AT_I + (1 if inject else 0)
    for im, want in ((1, expected_i), (2, J_AT_2I)):
        ball = rm.eval_j(rm.UpperHalfPoint(Fraction(0), Fraction(im)), precision)
        if not ball.contains_point(Fraction(want)):
            failures.append("eval_j(%di) at %d bits does not contain %d" % (im, precision, want))
    return G, failures


def sweep_call(rm, op: SweepOp, precision: int, group):
    fn = getattr(rm, "sweep_" + op.family)
    if op.family == "everysimple":
        return fn(samples=1, seed=op.sweep_seed, precision=precision, group=group)
    return fn(samples=1, seed=op.sweep_seed, precision=precision)


def sweep_check(op: SweepOp, r) -> Optional[str]:
    """None when the sweep certified every check it made."""
    if r.name != op.family or r.checked < 1:
        return "%s: %d checks" % (r.name, r.checked)
    if r.holds != r.checked or r.violations or r.indeterminate:
        return "%s seed %d: holds %d of %d, violations %d, indeterminate %d" % (
            op.family, op.sweep_seed, r.holds, r.checked, r.violations, r.indeterminate)
    return None


# ------------------------------------------------------------------ census


@dataclass(frozen=True)
class CensusItem:
    """One group of the census: a preset token or generator text."""

    label: str
    kind: str            # split, nonsplit, borel, full, cartan, gamma1
    p: int
    exponent: int
    order: int           # |G| from the closed form
    token: Optional[str] = None
    text: Optional[str] = None


def _primes(lo: int, hi: int) -> List[int]:
    return [p for p in range(lo, hi + 1) if p > 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))]


def _phi(p: int, k: int) -> int:
    return p ** (k - 1) * (p - 1)


def closed_form_order(kind: str, p: int, k: int) -> int:
    m = p ** k
    phi = _phi(p, k)
    if kind == "split":
        return 2 * phi * phi
    if kind == "nonsplit":
        return 2 * p ** (2 * (k - 1)) * (p * p - 1)
    if kind == "borel":
        return phi * phi * m
    if kind == "full":
        return p ** (4 * (k - 1)) * (p * p - 1) * (p * p - p)
    if kind == "cartan":
        return phi * phi
    if kind == "gamma1":
        return m * phi
    raise ValueError(kind)


# Presets: every kind, |G| from 8 (split:3) to 236196 (borel:3^4).
PRESETS = (
    [("split", p, 1) for p in _primes(3, 101)]
    + [("split", 3, k) for k in (2, 3, 4, 5)]
    + [("split", 5, 2), ("split", 5, 3), ("split", 7, 2), ("split", 7, 3),
       ("split", 11, 2), ("split", 13, 2)]
    + [("nonsplit", p, 1) for p in _primes(3, 97)]
    + [("nonsplit", 3, 2), ("nonsplit", 3, 3), ("nonsplit", 5, 2), ("nonsplit", 7, 2)]
    + [("borel", p, 1) for p in _primes(3, 31)]
    + [("borel", 3, 2), ("borel", 3, 3), ("borel", 3, 4), ("borel", 5, 2), ("borel", 7, 2)]
    + [("full", p, 1) for p in (3, 5, 7, 11, 13)]
    + [("full", 3, 2)]
)

# Groups given as generator text (closure path), each conjugated by a
# seed-drawn matrix so that every seed gives new generators for the same
# group shape.  Their sizes run from 16 to 27900 elements in small steps, so
# the median and p90 of op latency fall where samples are dense.  Gamma1-type
# groups stop at 31: from 47 on, runge_unit raises OverflowError (float
# sqrt of bound_B_squared), and from 37 on their exact linear algebra alone
# outweighs the rest of this list.
TEXT_GROUPS = (
    [(kind, p) for kind in ("split", "nonsplit", "cartan") for p in _primes(5, 101)]
    + [(kind, p) for kind in ("borel", "gamma1") for p in _primes(5, 31)]
)

TINY_PRESETS = (("split", 3, 1), ("split", 5, 1), ("nonsplit", 5, 1), ("borel", 5, 1),
                ("full", 3, 1), ("split", 3, 2))
TINY_TEXT_GROUPS = (("split", 7), ("gamma1", 5))


def _primitive_root(p: int) -> int:
    for g in range(2, p):
        if len({pow(g, e, p) for e in range(1, p)}) == p - 1:
            return g
    raise ValueError(p)


def _mat_mul(x, y, n):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % n, (a * f + b * h) % n, (c * e + d * g) % n, (c * f + d * h) % n)


def _nonsplit_torus_generator(p: int):
    eps = next(e for e in range(2, p) if pow(e, (p - 1) // 2, p) == p - 1)
    for a in range(p):
        for b in range(1, p):
            m = (a, b * eps % p, b, a)
            cur, k = m, 1
            while cur != (1, 0, 0, 1):
                cur = _mat_mul(cur, m, p)
                k += 1
            if k == p * p - 1:
                return m
    raise ValueError(p)


def _generators(kind: str, p: int):
    r = _primitive_root(p)
    if kind == "split":
        return [(r, 0, 0, 1), (1, 0, 0, r), (0, 1, 1, 0)]
    if kind == "borel":
        return [(r, 0, 0, 1), (1, 0, 0, r), (1, 1, 0, 1)]
    if kind == "nonsplit":
        return [_nonsplit_torus_generator(p), (1, 0, 0, p - 1)]
    if kind == "cartan":
        return [(r, 0, 0, 1), (1, 0, 0, r)]
    if kind == "gamma1":
        return [(1, 1, 0, 1), (1, 0, 0, r)]
    raise ValueError(kind)


def _conjugated_text(kind: str, p: int, rng: random.Random) -> str:
    while True:
        g = tuple(rng.randrange(p) for _ in range(4))
        det = (g[0] * g[3] - g[1] * g[2]) % p
        if det:
            break
    inv_det = pow(det, -1, p)
    g_inv = (g[3] * inv_det % p, -g[1] * inv_det % p, -g[2] * inv_det % p, g[0] * inv_det % p)
    lines = ["N=%d" % p]
    for h in _generators(kind, p):
        lines.append("%d %d %d %d" % _mat_mul(_mat_mul(g, h, p), g_inv, p))
    return "\n".join(lines) + "\n"


def census_items(seed: int, tiny: bool = False, pass_index: int = 0) -> List[CensusItem]:
    """The groups of one census pass, in a fixed order; the seed and pass
    index only choose the conjugators of the generator-text groups."""
    rng = random.Random(derive_seed(seed, "census", pass_index))
    items = []
    for kind, p, k in (TINY_PRESETS if tiny else PRESETS):
        token = "%s:%d" % (kind, p) + ("^%d" % k if k > 1 else "")
        items.append(CensusItem(token, kind, p, k, closed_form_order(kind, p, k), token=token))
    for i, (kind, p) in enumerate(TINY_TEXT_GROUPS if tiny else TEXT_GROUPS):
        items.append(CensusItem("text:%s:%d#%d" % (kind, p, i), kind, p, 1,
                                closed_form_order(kind, p, 1), text=_conjugated_text(kind, p, rng)))
    return items


@dataclass
class CensusOutcome:
    group: object
    cusps: list
    orbits: list
    matrix: object
    rank: int
    sigma: list
    s: int
    unit: object       # RungeUnit, or the exception runge_unit raised
    th1: object        # BoundReport, or the exception bound_th1 raised


def _rational_sigma(orbits) -> list:
    """The degree-1 orbits, less the last one when they are all the orbits."""
    sigma = [o for o in orbits if o.degree == 1]
    if len(sigma) == len(orbits):
        sigma = sigma[:-1]
    return sigma


def census_call(rm, item: CensusItem) -> CensusOutcome:
    """The exact chain for one group, as a fresh CLI process would run it."""
    G = rm.parse_preset(item.token) if item.token else rm.parse_group_text(item.text)
    cusps = rm.enumerate_cusps(G)
    orbits = rm.galois_orbits(G)
    M = rm.divisor_matrix(G)
    rank = rm.divisor_rank(M)
    sigma = _rational_sigma(orbits)
    s = max(1, len(sigma))
    try:
        unit = rm.runge_unit(G, sigma, s)
    except (rm.SigmaNotProper, rm.RungeConditionFailed) as exc:
        unit = exc
    try:
        th1 = rm.bound_th1(G)
    except rm.HypothesisFailed as exc:
        th1 = exc
    return CensusOutcome(G, cusps, orbits, M, rank, sigma, s, unit, th1)


def census_check(rm, item: CensusItem, out: CensusOutcome, inject: bool) -> Optional[str]:
    """Exact identities checked from outside; None when all hold."""
    G = out.group
    if G.order != item.order or G.n != item.p ** item.exponent:
        return "order %d mod %d, expected %d mod %d" % (G.order, G.n, item.order, item.p ** item.exponent)
    degrees = [o.degree for o in out.orbits]
    if sum(degrees) != len(out.cusps):
        return "orbit degrees %s do not cover %d cusps" % (degrees, len(out.cusps))
    if item.kind == "split" and item.exponent == 1:
        p = item.p
        want = (p + 1) // 2 + (1 if inject else 0)
        if len(out.cusps) != want or set(degrees) != {1, (p - 1) // 2}:
            return "split:%d has %d cusps, degrees %s" % (p, len(out.cusps), sorted(degrees))
    M = out.matrix
    if out.rank != len(out.orbits) - 1:
        return "rank %d with %d orbits" % (out.rank, len(out.orbits))
    for j in range(len(M.columns)):
        if sum(o.degree * M.entries[i][j] for i, o in enumerate(M.orbits)) != 0:
            return "weighted column sum %d is not zero" % j
    proper = 0 < len(out.sigma) < len(out.orbits)
    if not proper:
        expected_refusal = rm.SigmaNotProper
    elif len(out.orbits) <= out.s:
        expected_refusal = rm.RungeConditionFailed
    else:
        expected_refusal = None
    unit = out.unit
    if expected_refusal is not None:
        if type(unit) is not expected_refusal:
            return "runge_unit gave %r, expected %s" % (unit, expected_refusal.__name__)
    else:
        if isinstance(unit, Exception):
            return "runge_unit refused: %r" % unit
        l1 = sum(abs(b) for b in unit.exponents.values())
        if l1 != unit.l1_norm or l1 * l1 > unit.bound_B_squared:
            return "l1 %d (reported %d) against B^2 %d" % (l1, unit.l1_norm, unit.bound_B_squared)
        for orbit in out.sigma:
            for c in orbit.members:
                if unit.divisor.orders[c] <= 0:
                    return "unit order %d at a cusp of sigma" % unit.divisor.orders[c]
    if len(out.orbits) < 2:
        if not isinstance(out.th1, rm.HypothesisFailed):
            return "bound_th1 gave %r on a transitive cusp action" % (out.th1,)
    else:
        if isinstance(out.th1, Exception) or not out.th1.applicable:
            return "bound_th1 refused: %r" % (out.th1,)
        if out.th1.inputs["coefficient"] != str(30 * G.order * G.n * G.n):
            return "th1 coefficient %s" % out.th1.inputs["coefficient"]
    return None


def group_fingerprint(G) -> Tuple:
    """Equal SubgroupG values give equal fingerprints."""
    return (G.n, G.label, G.generator_mats(), G.order, hash(G.elements))


def op_labels(workload: str, ops) -> List[str]:
    if workload == "census":
        return [item.label for item in ops]
    return ["%s#%d" % (op.family, op.sweep_seed) for op in ops]
