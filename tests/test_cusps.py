"""Cusp enumeration, widths, rational orbits, place constants."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rungemod.cusps as cusps_mod
from group_oracle import scan_sl2_lift
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


@pytest.mark.parametrize("G", [
    preset_subgroup("split_normalizer", 7, 2),
    generate_subgroup(12, [(1, 1, 0, 1), (1, 0, 0, 5), (1, 0, 0, 7)]),  # composite, without -1
    generate_subgroup(13, [(1, 1, 0, 1), (5, 0, 0, 5)]),  # only the scalars +/-1, +/-5
], ids=["split:7^2", "gamma1:12", "scalar5:13"])
def test_line_orbits_one_map_serves_every_orbit(G):
    # the cusp pass walks its k-th orbit into one shared map of lines at offset k*N; the code
    # of every class must be k*N + t, t the det of a word from the k-th seed up to the ratios
    n, lams = G.n, G.line_scalars(G.n)
    walks, code = cusps_mod._line_orbits(n, G.generators, lams)
    covered = 0
    for k, (lines, ratios) in enumerate(walks):
        stab = {1}
        for r in ratios:
            stab |= {s * pow(r, e, n) % n for s in stab for e in range(n)}
        classes = {canonical_class((lam * x, lam * y), n) for x, y in lines for lam in lams}
        assert len(classes) == len(lines) * len(lams)  # a line never folds
        assert code(*lines[0]) == k * n + 1
        for x, y in classes:
            t = code(x, y) - k * n
            assert 0 < t < n and all(code(lam * x, lam * y) == k * n + lam * lam * t % n
                                     for lam in lams)
            for g in G.generators:
                w = canonical_class((g[0] * x + g[1] * y, g[2] * x + g[3] * y), n)
                assert w in classes
                assert code(*w) - k * n in {t * mat_det(g, n) * s % n for s in stab}
        covered += len(classes)
    assert k > 0 and covered == len(list(_classes(n)))


def test_lift_shape():
    for n in (3, 4, 5, 7, 12):
        for v in _classes(n):
            lift = sl2_lift(v, n)
            assert (lift[0], lift[2]) == v
            assert mat_det(lift, n) == 1


def test_lift_closed_form_matches_the_scan():
    # the least b, then the least d, as a scan over b finds them; inputs negated and unreduced too
    for n in range(2, 61):
        for x, y in _classes(n):
            for v in ((x, y), (-x, -y), (x + n, y - 3 * n)):
                assert sl2_lift(v, n) == scan_sl2_lift(v, n)
    for v, n in (((7, 14), 49), ((2, 4), 12), ((0, 0), 5), ((3, 9), 6)):
        with pytest.raises(ValueError):
            scan_sl2_lift(v, n)
        with pytest.raises(ValueError):
            sl2_lift(v, n)


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
    # a nonzero vector that is not primitive has a P1 key all the same: it must still be refused
    with pytest.raises(ValueError):
        cusp_containing(preset_subgroup("split_normalizer", 7, 2), (7, 14))
    gamma1_12 = generate_subgroup(12, [(1, 1, 0, 1), (1, 0, 0, 5), (1, 0, 0, 7)])
    with pytest.raises(ValueError):
        cusp_containing(gamma1_12, (2, 4))
    # negative and unreduced primitive vectors give the cusp of their canonical class
    for H in (G, gamma1_12, generate_subgroup(13, [(1, 1, 0, 1), (5, 0, 0, 5)])):
        n = H.n
        for x, y in [(1, 0), (-1, 0), (-2, 3), (5 + 2 * n, -7), (-n - 1, 4 * n + 1), (3, -3 * n - 5)]:
            if gcd(x, y, n) == 1:
                assert cusp_containing(H, (x, y)) == cusp_containing(H, canonical_class((x, y), n))


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
