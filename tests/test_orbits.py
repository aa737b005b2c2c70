"""Generator-orbit computations against element-enumeration oracles.

The library finds the determinant image, the trace columns behind ord_w
and the column classes of the divisor matrix by breadth-first orbits over
the generators.  The oracles here sweep the whole element set instead.
"""

import random
from collections import Counter

import pytest

from rungemod.cusps import enumerate_cusps
from rungemod.modnt import (
    det_image,
    kernel_level_group,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    parse_group_text,
    parse_preset,
    unit_count,
)
from rungemod.units import TorsionIndex, _column_reps, _trace_columns


def conjugated_borel_text(p, seed):
    rng = random.Random(seed)
    while True:
        gamma = tuple(rng.randrange(p) for _ in range(4))
        if mat_det(gamma, p):
            break
    gamma_inv = mat_inv(gamma, p)
    lines = [f"N={p}"]
    for h in [(2, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1)]:
        lines.append("%d %d %d %d" % mat_mul(mat_mul(gamma, h, p), gamma_inv, p))
    return "\n".join(lines) + "\n"


GROUPS = {
    "split:5": lambda: parse_preset("split:5"),
    "nonsplit:5": lambda: parse_preset("nonsplit:5"),
    "borel:7": lambda: parse_preset("borel:7"),
    "full:5": lambda: parse_preset("full:5"),
    "split:3^3": lambda: parse_preset("split:3^3"),
    "nonsplit:3^2": lambda: parse_preset("nonsplit:3^2"),
    "text:borel:11": lambda: parse_group_text(conjugated_borel_text(11, 3)),
    # Gamma1-type, without -1: the sign in the column classes matters
    "text:gamma1:7": lambda: parse_group_text("N=7\n1 1 0 1\n1 0 0 3\n"),
    "kernel:5": lambda: kernel_level_group(5),
}


def oracle_det_image(G):
    return frozenset(mat_det(m, G.n) for m in G.elements)


def oracle_trace_columns(G, rep):
    """First columns of sigma*lift over every sigma in G, with multiplicity."""
    return Counter(mat_vec(m, rep, G.n) for m in G.elements)


def oracle_column_reps(G):
    """Lex-least member of each class of nonzero row vectors under a -> ±(a*sigma)."""
    n = G.n
    seen = set()
    reps = []
    for a1 in range(n):
        for a2 in range(n):
            if (a1, a2) == (0, 0) or (a1, a2) in seen:
                continue
            cls = set()
            for sa, sb, sc, sd in G.elements:
                u, w = (a1 * sa + a2 * sc) % n, (a1 * sb + a2 * sd) % n
                cls |= {(u, w), ((-u) % n, (-w) % n)}
            seen |= cls
            reps.append(min(cls))
    return [TorsionIndex(n, x, y) for x, y in sorted(reps)]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_det_image_matches_element_sweep(name):
    G = GROUPS[name]()
    d = det_image(G)
    assert d.residues == oracle_det_image(G)
    assert d.is_full == (len(d.residues) == unit_count(G.n))
    assert d.is_full == (name != "kernel:5")


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_trace_columns_match_element_sweep(name):
    G = GROUPS[name]()
    for c in enumerate_cusps(G):
        mult, cols = _trace_columns(G, c.rep)
        assert len(set(cols)) == len(cols)
        assert mult * len(cols) == G.order
        assert Counter({v: mult for v in cols}) == oracle_trace_columns(G, c.rep)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_column_reps_match_element_sweep(name):
    G = GROUPS[name]()
    assert list(_column_reps(G)) == oracle_column_reps(G)
