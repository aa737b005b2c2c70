"""Group enumeration: closure, presets, determinant image."""

import random

import pytest

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
    mat_inv,
    mat_mul,
    parse_group_text,
    parse_preset,
    preset_subgroup,
    primitive_root,
    unit_count,
)


def brute_force_gl2(n):
    """Oracle: every invertible 2x2 matrix mod n, by direct filtering."""
    from math import gcd

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
    G = preset_subgroup(kind, p, n)
    regenerated = generate_subgroup(G.n, list(G.generators), max_modulus=G.n)
    assert regenerated.elements == G.elements


def test_closure_invariants_random_products():
    G = preset_subgroup("split_normalizer", 7)
    rng = random.Random(7)
    elems = sorted(G.elements)
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
    # a wrong phi makes the enumerated element count disagree with the closed
    # form; the check raises, so it also holds under python -O
    monkeypatch.setattr(modnt, "unit_count", lambda n: n)
    with pytest.raises(BoundViolated):
        preset_subgroup("split_normalizer", 5)


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
        preset_subgroup("full", 7, 3)  # |GL2(Z/343)| over the element cap
    with pytest.raises(UnsupportedModulus):
        generate_subgroup(103, [(1, 0, 0, 1)])


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


def test_gl2_order_composite():
    # multiplicative over prime powers: check N=6 against brute force
    assert gl2_order(6) == len(brute_force_gl2(6))
