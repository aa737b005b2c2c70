"""Groups from generators: stabilizer-chain order and -1, presets, determinant image."""

import os
import random
import subprocess
import sys
import time
from math import gcd

import pytest
from group_oracle import closure, group_elements, mat_inv, random_generator_set
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rungemod.modnt as modnt
from rungemod.errors import (
    BoundViolated,
    NonInvertibleGenerator,
    UnsupportedModulus,
)
from rungemod.modnt import (
    det_image,
    generate_subgroup,
    gl2_order,
    kernel_level_group,
    mat_mul,
    parse_group_text,
    parse_preset,
    preset_subgroup,
    primitive_root,
    unit_count,
)


def brute_force_gl2(n):
    """Oracle: every invertible 2x2 matrix mod n, by direct filtering."""
    out = set()
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if gcd((a * d - b * c) % n, n) == 1:
                        out.add((a, b, c, d))
    return out


def test_identity_only():
    G = generate_subgroup(5, [(1, 0, 0, 1)])
    assert G.order == 1
    assert not G.contains_minus_one


def test_full_closure_mod3_matches_brute_force():
    oracle = brute_force_gl2(3)
    assert len(oracle) == 48
    G = generate_subgroup(3, sorted(oracle))
    assert G.order == 48
    assert G.elements == frozenset(oracle)
    assert gl2_order(3) == 48


def test_split_normalizer_order_from_explicit_generators():
    G = generate_subgroup(5, [(2, 0, 0, 1), (1, 0, 0, 2), (0, 1, 1, 0)])
    assert G.order == 32  # 2*(p-1)^2 at p=5


@pytest.mark.parametrize(
    "kind,p,n,expected",
    [
        ("split_normalizer", 5, 1, 32),
        ("split_normalizer", 3, 1, 8),
        ("nonsplit_normalizer", 5, 1, 48),
        ("nonsplit_normalizer", 7, 1, 96),
        ("borel", 5, 1, 80),
        ("full", 3, 1, 48),
        ("full", 5, 1, 480),
        ("split_normalizer", 3, 2, 2 * 6 * 6),
        ("nonsplit_normalizer", 3, 2, 2 * 9 * 8),
        ("borel", 3, 2, 6 * 6 * 9),
    ],
)
def test_preset_orders(kind, p, n, expected):
    G = preset_subgroup(kind, p, n)
    assert G.order == expected
    assert G.contains_minus_one
    assert det_image(G).is_full


def test_full_preset_matches_brute_force_mod5():
    G = preset_subgroup("full", 5)
    assert G.elements == frozenset(brute_force_gl2(5))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1).map(random_generator_set))
@example((2, [(1, 1, 0, 1)]))
@example((2, [(1, 1, 0, 1), (0, 1, 1, 0)]))
@example((7, [(1, 0, 0, 1)]))
@example((7, []))
@example((12, [(13, -11, 24, 37), (-1, 0, 0, 1), (5, 0, 0, 1)]))
@example((9, [(1, 1, 0, 1), (1, 0, 3, 1)]))
# (Z/12)* is not cyclic: every scalar, then only the scalars 1 and -1
@example((12, [(5, 0, 0, 5), (7, 0, 0, 7), (1, 0, 1, 1)]))
@example((12, [(11, 0, 0, 11), (1, 0, 1, 1)]))
# some scalars only: 5 has order 4 mod 13, so the scalars are 1, 5, 8 and 12
@example((13, [(1, 1, 0, 1), (5, 0, 0, 5)]))
# three prime factors: G*[e1] runs over lines mod 2, 3 and 5 at once
@example((30, [(1, 1, 0, 1), (1, 0, 5, 1), (7, 0, 0, 1)]))
# G*[e1] reaches lines (x, y) with 3 | x, keyed by x/y mod 9
@example((9, [(2, 3, 0, 1), (0, 8, 1, 0)]))
# Stab([e1]) = G: diag(3, 1) fills A, and Stab(e1) needs the conjugates of
# (1 1; 0 2) by every t_a, not that element alone
@example((7, [(3, 0, 0, 1), (1, 1, 0, 2)]))
def test_chain_matches_closure_oracle(case):
    n, gens = case
    G = generate_subgroup(n, gens)
    elems = closure(n, tuple(map(tuple, gens)))
    assert G.order == len(elems)
    assert G.contains_minus_one == ((n - 1, 0, 0, n - 1) in elems)
    units = [s for s in range(1, n) if gcd(s, n) == 1]
    assert G.scalars == tuple(s for s in units if (s, 0, 0, s) in elems)
    assert G.contains_scalars == all((s, 0, 0, s) in elems for s in units)
    assert G.elements == elems


@pytest.mark.parametrize(
    "kind,p,n",
    [
        ("split_normalizer", 5, 1),
        ("split_normalizer", 3, 3),
        ("nonsplit_normalizer", 5, 1),
        ("nonsplit_normalizer", 3, 2),
        ("borel", 7, 1),
        ("full", 3, 1),
    ],
)
def test_preset_generators_generate_the_element_set(kind, p, n):
    # the chain's elements are the closure of the generators, and each is a
    # matrix of the kind; the closed-form count then makes them the whole kind
    G = preset_subgroup(kind, p, n)
    m = G.n
    eps = modnt.smallest_nonresidue(p)
    described = {
        "split_normalizer": lambda a, b, c, d: (b, c) == (0, 0) or (a, d) == (0, 0),
        "nonsplit_normalizer": lambda a, b, c, d: (
            (b, d) in ((c * eps % m, a), (-c * eps % m, -a % m))
        ),
        "borel": lambda a, b, c, d: c == 0,
        "full": lambda a, b, c, d: True,
    }[kind]
    assert G.elements == group_elements(G)
    assert all(described(*g) for g in G.elements)
    assert len(G.elements) == G.order


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 60))
@example(30)
@example(60)
def test_line_key_is_a_point_of_p1(n):
    # constant on each line {s*v}, and one key per point of P1(Z/n)
    key = modnt._line_key(n)
    units = [s for s in range(1, n) if gcd(s, n) == 1]
    keys = set()
    for x in range(n):
        for y in range(n):
            if gcd(x, y, n) == 1:
                k = key(x, y)
                assert all(key(s * x % n, s * y % n) == k for s in units)
                keys.add(k)
    points = n
    for p in {p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))}:
        points = points // p * (p + 1)
    assert len(keys) == points


@pytest.mark.parametrize("kind", ["nonsplit_normalizer", "full", "split_normalizer"])
def test_17_cubed_presets_build_at_paper_scale(kind, monkeypatch):
    # past the preset cap: the chain walks the 5202 lines of P1(Z/17^3), where
    # a walk over the vectors of G*e1 ran out of memory on nonsplit:17^3
    monkeypatch.setattr(modnt, "MAX_PRESET_MODULUS", 17 ** 3)
    p, m = 17, 17 ** 3
    phi = p ** 2 * (p - 1)
    order = {
        "nonsplit_normalizer": 2 * p ** 4 * (p * p - 1),
        "full": m ** 4 // p ** 3 * (p - 1) * (p * p - 1),
        "split_normalizer": 2 * phi * phi,
    }[kind]
    start = time.perf_counter()
    G = preset_subgroup(kind, p, 3)
    assert time.perf_counter() - start < 2.0
    assert G.order == order and G.contains_minus_one


def test_closure_invariants_random_products():
    G = preset_subgroup("split_normalizer", 7)
    rng = random.Random(7)
    elems = sorted(G.elements)
    assert len(elems) == G.order
    for _ in range(200):
        x = rng.choice(elems)
        y = rng.choice(elems)
        assert mat_mul(x, y, G.n) in G.elements
        assert mat_inv(x, G.n) in G.elements


def test_lagrange_for_presets():
    full = preset_subgroup("full", 5)
    for kind in ("split_normalizer", "nonsplit_normalizer", "borel"):
        G = preset_subgroup(kind, 5)
        assert full.order % G.order == 0


def test_conjugation_invariance():
    G = preset_subgroup("split_normalizer", 5)
    rng = random.Random(11)
    full = sorted(preset_subgroup("full", 5).elements)
    for _ in range(5):
        gamma = rng.choice(full)
        gamma_inv = mat_inv(gamma, 5)
        gens = [mat_mul(mat_mul(gamma, g, 5), gamma_inv, 5) for g in G.generators]
        assert generate_subgroup(5, gens).order == G.order


def test_det_image_trivial_and_full():
    G1 = generate_subgroup(5, [(1, 0, 0, 1)])
    d1 = det_image(G1)
    assert d1.residues == frozenset({1}) and not d1.is_full

    d2 = det_image(preset_subgroup("split_normalizer", 5))
    assert d2.is_full and d2.residues == frozenset({1, 2, 3, 4})

    d3 = det_image(preset_subgroup("borel", 7))
    assert d3.is_full


def test_preset_self_checks_raise_bound_violated(monkeypatch):
    # a wrong phi makes the closed form disagree with the chain order
    monkeypatch.setattr(modnt, "unit_count", lambda n: n)
    with pytest.raises(BoundViolated):
        preset_subgroup("split_normalizer", 5)


DROP_PRO_P_GENERATOR = """
import rungemod.modnt as modnt
from rungemod.errors import BoundViolated

full = modnt._nonsplit_generators
modnt._nonsplit_generators = lambda m, p, eps: [
    g for g in full(m, p, eps) if g != (1 + p, 0, 0, 1 + p)
]
try:
    modnt.preset_subgroup("nonsplit_normalizer", 3, 2)
except BoundViolated as exc:
    print("refused:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_preset_refuses_generators_short_of_the_closed_form(flags):
    # without the pro-p generator 1 + p the nonsplit:3^2 generators span a
    # subgroup of order 48; the check raises, so it holds under python -O
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, *flags, "-c", DROP_PRO_P_GENERATOR],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert "refused: preset nonsplit_normalizer mod 9" in proc.stdout
    assert "expected 144" in proc.stdout


def test_kernel_level_group():
    G = kernel_level_group(5)
    assert G.order == 2 and G.contains_minus_one
    assert not det_image(G).is_full


def test_noninvertible_generator_rejected():
    with pytest.raises(NonInvertibleGenerator):
        generate_subgroup(6, [(2, 0, 0, 1)])
    with pytest.raises(NonInvertibleGenerator):
        generate_subgroup(6, [(1, 0, 0, 1), (8, 0, 0, 1)])  # det 8 = 2 mod 6


def test_generators_reduced_mod_n():
    G = generate_subgroup(5, [(7, -5, 10, -4), (-1, 0, 0, 1)])
    assert G.generators == ((2, 0, 0, 1), (4, 0, 0, 1))
    assert G.order == 4


def test_unsupported_modulus():
    with pytest.raises(UnsupportedModulus):
        preset_subgroup("split_normalizer", 4)
    with pytest.raises(UnsupportedModulus):
        preset_subgroup("split_normalizer", 9)
    with pytest.raises(UnsupportedModulus):
        preset_subgroup("split_normalizer", 3, 7)  # 3^7 over the cap
    with pytest.raises(UnsupportedModulus):
        generate_subgroup(103, [(1, 0, 0, 1)])
    # GL2(Z/343) has about 1.2e10 elements; no element set is built, so it builds
    assert preset_subgroup("full", 7, 3).order == gl2_order(343)


GL2_MOD_101 = """N=101
2 0 0 1
1 1 0 1
0 100 1 0
"""


@pytest.mark.parametrize(
    "build,order",
    [
        (lambda: parse_group_text(GL2_MOD_101), gl2_order(101)),
        (lambda: parse_preset("full:67"), gl2_order(67)),
        (lambda: parse_preset("borel:7^3"), 294 * 294 * 343),
    ],
    ids=["text:gl2:101", "full:67", "borel:7^3"],
)
def test_large_groups_build_from_generators(build, order):
    # once refused by the element cap, or built only after tens of seconds
    # and gigabytes of element set
    start = time.perf_counter()
    G = build()
    assert time.perf_counter() - start < 2.0
    assert G.order == order and G.contains_minus_one


def test_parse_preset_shorthand():
    assert parse_preset("split:5").order == 32
    assert parse_preset("nonsplit:5").order == 48
    assert parse_preset("borel:3^2").order == 6 * 6 * 9
    with pytest.raises(ValueError):
        parse_preset("cartan:5")
    with pytest.raises(ValueError):
        parse_preset("split5")


def test_parse_group_text():
    text = """
    # split normalizer mod 5 from explicit generators
    N=5
    2 0 0 1
    1 0 0 2
    0 1 1 0
    """
    G = parse_group_text(text)
    assert G.order == 32
    with pytest.raises(ValueError):
        parse_group_text("5\n1 0 0 1")
    with pytest.raises(ValueError):
        parse_group_text("N=5\n1 0 0")


def test_primitive_root_small_cases():
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    g = primitive_root(27)
    phi = unit_count(27)
    assert pow(g, phi, 27) == 1
    assert all(pow(g, phi // q, 27) != 1 for q in (2, 3))


def oracle_torus_generator(m, p, eps):
    """First a + b*sqrt(eps) (a in [0, p), b in [1, p)) whose order mod m is divisible
    by p^2 - 1, found by multiplying out its powers one product at a time."""
    for a in range(p):
        for b in range(1, p):
            if (a * a - eps * b * b) % p == 0:
                continue
            cand = (a % m, b * eps % m, b % m, a % m)
            k, cur = 1, cand
            while cur != (1, 0, 0, 1):
                cur = mat_mul(cur, cand, m)
                k += 1
            if k % (p * p - 1) == 0:
                return cand


def test_torus_generator_matches_power_loop():
    # every nonsplit preset modulus p^k <= 343
    primes = [p for p in range(3, 344, 2) if all(p % d for d in range(3, int(p ** 0.5) + 1, 2))]
    for p in primes:
        eps = modnt.smallest_nonresidue(p)
        for m in (p ** k for k in range(1, 6) if p ** k <= modnt.MAX_PRESET_MODULUS):
            assert modnt._nonsplit_generators(m, p, eps)[0] == oracle_torus_generator(m, p, eps)


def test_gl2_order_composite():
    # multiplicative over prime powers: check N=6 against brute force
    assert gl2_order(6) == len(brute_force_gl2(6))
