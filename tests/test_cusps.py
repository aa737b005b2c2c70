"""Cusp enumeration, widths, rational orbits, place constants."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rungemod.cusps as cusps_mod
from rungemod.cusps import (
    _classes,
    CuspOrbit,
    canonical_class,
    cusp_containing,
    cusp_width,
    enumerate_cusps,
    galois_orbits,
    place_constants,
    runge_condition,
    sl2_index,
    sl2_lift,
)
from rungemod.errors import BoundViolated, NotDefinedOverQ
from rungemod.modnt import (
    generate_subgroup,
    kernel_level_group,
    mat_det,
    preset_subgroup,
)


def test_split_5_cusp_count_and_structure():
    G = preset_subgroup("split_normalizer", 5)
    cusps = enumerate_cusps(G)
    assert len(cusps) == 3  # (p+1)/2
    assert cusps[0].rep == (1, 0)  # class of (1,0) first
    assert all(c.width == 5 for c in cusps)


def test_overlapping_galois_orbits_are_caught(monkeypatch):
    # every orbit also claims cusp 0, so the degrees overcount the cusps
    G = preset_subgroup("split_normalizer", 5)
    cusps, member_of, orbits, classes_of = cusps_mod._cusp_data(G)
    overlapping = tuple(CuspOrbit(members=(cusps[0],) + o.members) for o in orbits)
    monkeypatch.setattr(
        cusps_mod, "_cusp_data", lambda G: (cusps, member_of, overlapping, classes_of)
    )
    with pytest.raises(BoundViolated):
        galois_orbits(G)


def test_split_13_cusp_count():
    G = preset_subgroup("split_normalizer", 13)
    assert len(enumerate_cusps(G)) == 7


def test_full_gl2_single_cusp_width_one():
    G = preset_subgroup("full", 5)
    cusps = enumerate_cusps(G)
    assert len(cusps) == 1
    assert cusps[0].width == 1
    assert cusps[0].rep == (1, 0)


def test_kernel_level_widths_and_count():
    # trivial SL2 part: every cusp has width N
    G = kernel_level_group(5)
    cusps = enumerate_cusps(G)
    assert len(cusps) == len(list(_classes(5))) == 12
    assert all(c.width == 5 for c in cusps)


def test_nonsplit_cusp_counts():
    # (p-1)/2 cusps for the nonsplit normalizer
    assert len(enumerate_cusps(preset_subgroup("nonsplit_normalizer", 5))) == 2
    assert len(enumerate_cusps(preset_subgroup("nonsplit_normalizer", 7))) == 3


def test_borel_two_cusps():
    G = preset_subgroup("borel", 7)
    cusps = enumerate_cusps(G)
    assert len(cusps) == 2
    assert sorted(c.width for c in cusps) == [1, 7]


def test_split_7_widths_all_seven():
    G = preset_subgroup("split_normalizer", 7)
    assert all(c.width == 7 for c in enumerate_cusps(G))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_width_sum_equals_covering_degree(p):
    G = preset_subgroup("split_normalizer", p)
    cusps = enumerate_cusps(G)
    assert sum(c.width for c in cusps) == p * (p + 1) // 2 == sl2_index(G)


def test_width_sum_identity_other_presets():
    for token in ("nonsplit_normalizer", "borel", "full"):
        G = preset_subgroup(token, 5)
        assert sum(c.width for c in enumerate_cusps(G)) == sl2_index(G)


def test_primitive_classes_match_brute_force():
    for n in range(2, 40):
        brute = {
            canonical_class((x, y), n)
            for x in range(n)
            for y in range(n)
            if gcd(gcd(x, y), n) == 1
        }
        assert list(_classes(n)) == sorted(brute)


def test_walk_lines_one_map_serves_every_orbit():
    # the cusp pass walks its k-th orbit into one shared map at offset k*N;
    # each walk must give what a walk into a fresh map gives
    G = preset_subgroup("split_normalizer", 7, 2)
    n, lams = G.n, G.line_scalars(G.n)
    codes = {}
    for k, seed in enumerate(cusps_mod._orbit_seeds(n, codes)):
        start, fresh = len(codes), {}
        shared = cusps_mod._walk_lines(n, G.generators, lams, seed, codes, k * n)
        assert shared == cusps_mod._walk_lines(n, G.generators, lams, seed, fresh)
        assert list(codes.items())[start:] == [(w, k * n + t) for w, t in fresh.items()]
    assert k > 0 and len(codes) == len(list(_classes(n)))


def test_lift_shape():
    for n in (3, 4, 5, 7, 12):
        for v in _classes(n):
            lift = sl2_lift(v, n)
            assert (lift[0], lift[2]) == v
            assert mat_det(lift, n) == 1


@pytest.mark.parametrize(
    "p,degrees",
    [(5, [1, 2]), (7, [1, 3]), (11, [1, 5]), (13, [1, 6])],
)
def test_split_galois_orbit_degrees(p, degrees):
    G = preset_subgroup("split_normalizer", p)
    orbits = galois_orbits(G)
    assert sorted(o.degree for o in orbits) == degrees
    assert sum(o.degree for o in orbits) == len(enumerate_cusps(G))


def test_full_gl2_one_orbit_degree_one():
    orbits = galois_orbits(preset_subgroup("full", 5))
    assert len(orbits) == 1 and orbits[0].degree == 1


def test_orbits_refine():
    # each Galois orbit is a union of geometric cusps by construction;
    # check membership covers the cusp list exactly once
    G = preset_subgroup("split_normalizer", 11)
    cusps = enumerate_cusps(G)
    seen = [c for o in galois_orbits(G) for c in o.members]
    assert sorted(c.rep for c in seen) == sorted(c.rep for c in cusps)


def test_galois_orbits_requires_full_det():
    with pytest.raises(NotDefinedOverQ):
        galois_orbits(kernel_level_group(5))
    with pytest.raises(NotDefinedOverQ):
        galois_orbits(generate_subgroup(5, [(1, 0, 0, 1)]))


def test_runge_condition():
    G5 = preset_subgroup("split_normalizer", 5)
    assert runge_condition(G5, 1) is True
    assert runge_condition(G5, 2) is False
    assert runge_condition(preset_subgroup("full", 5), 1) is False
    with pytest.raises(ValueError):
        runge_condition(G5, 0)


def test_cusp_containing():
    G = preset_subgroup("split_normalizer", 5)
    c_inf = enumerate_cusps(G)[0]
    assert cusp_containing(G, (1, 0)) == c_inf
    assert cusp_containing(G, (0, 1)) == c_inf  # axes merge under antidiagonal
    assert cusp_containing(G, (4, 0)) == c_inf
    other = cusp_containing(G, (1, 1))
    assert other != c_inf
    with pytest.raises(ValueError):
        cusp_containing(G, (0, 0))


def test_canonical_class():
    assert canonical_class((4, 0), 5) == (1, 0)
    assert canonical_class((3, 4), 5) == (2, 1)
    assert canonical_class((0, 3), 5) == (0, 2)


def test_place_constants_table():
    arch = place_constants("archimedean")
    assert (arch.R_base, arch.R_exp) == (2500, 1)
    assert arch.R_fraction() == 2500
    assert (arch.r_base, arch.r_exp) == (10, -3)
    assert arch.r_float() == pytest.approx(0.001)

    fin = place_constants("finite", p=7, n=5)
    assert not fin.v_divides_n
    assert fin.R_fraction() == 1 and fin.R_float() == 1.0

    ram = place_constants("finite", p=3, n=3)
    assert ram.v_divides_n
    assert (ram.R_base, ram.R_exp) == (3, Fraction(3, 2))
    assert (ram.r_base, ram.r_exp) == (3, Fraction(-3, 2))
    assert ram.R_float() == pytest.approx(3 ** 1.5)

    exact = place_constants("finite", p=3, n=6)
    assert exact.R_fraction() == 27  # 3**(6/2)

    with pytest.raises(ValueError):
        place_constants("finite")
    with pytest.raises(ValueError):
        place_constants("padic", p=3, n=3)


@pytest.mark.parametrize("p,n", [(0, 5), (1, 5), (4, 4), (-3, 3), (9, 9), (3, 0), (5, -5)])
def test_place_constants_need_prime_p_and_positive_level(p, n):
    with pytest.raises(ValueError):
        place_constants("finite", p=p, n=n)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 7, 11]), st.data())
def test_cusp_partition_property(p, data):
    """Every primitive class belongs to exactly one enumerated cusp."""
    G = preset_subgroup("split_normalizer", p)
    v = data.draw(st.sampled_from(list(_classes(p))))
    c = cusp_containing(G, v)
    assert c in enumerate_cusps(G)
    assert cusp_width(G, c) == c.width


# genus of X_0(N) for the prime powers N <= 49 that the borel presets take
X0_GENUS = {
    3: 0, 5: 0, 7: 0, 9: 0, 11: 1, 13: 0, 17: 1, 19: 1, 23: 2, 25: 0,
    27: 1, 29: 2, 31: 2, 37: 2, 41: 3, 43: 3, 47: 4, 49: 1,
}


@pytest.mark.parametrize("N", sorted(X0_GENUS))
def test_borel_genus_matches_x0(N):
    # 1 + mu/12 - nu2/4 - nu3/3 - nuinf/2, with the classical elliptic point
    # counts of Gamma_0(p^k), p odd: nu2 = 1 + (-1/p), and nu3 = 1 + (-3/p)
    # unless 9 | N, where it is 0; (-3/3) = 0
    p = next(q for q in range(3, N + 1) if N % q == 0)
    k = next(k for k in range(1, 7) if p ** k == N)
    G = preset_subgroup("borel", p, k)
    nu2 = 1 + (1 if p % 4 == 1 else -1)
    nu3 = 0 if N % 9 == 0 else 1 + (0 if p == 3 else 1 if p % 3 == 1 else -1)
    genus = 1 + Fraction(sl2_index(G), 12) - Fraction(nu2, 4) - Fraction(nu3, 3)
    genus -= Fraction(len(enumerate_cusps(G)), 2)
    assert genus == X0_GENUS[N]
