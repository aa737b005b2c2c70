"""Tabulate cusp counts, widths and orbit degrees across a prime range.

Usage:
    python3 scripts/cusp_census.py --kind split --max-p 101
    python3 scripts/cusp_census.py --kind borel --max-p 31 --check

--check compares each row and the group order with the closed forms at
prime level p, prints every row that disagrees and exits 1 if any does.
"""

import argparse
from dataclasses import dataclass
from typing import List, Tuple

from rungemod.cusps import enumerate_cusps, galois_orbits, sl2_index
from rungemod.modnt import parse_preset


@dataclass(frozen=True)
class CensusRow:
    p: int
    order: int
    cusps: int
    index: int
    degrees: List[int]
    widths: List[int]


def primes_to(bound: int) -> List[int]:
    sieve = [True] * (bound + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            for k in range(i * i, bound + 1, i):
                sieve[k] = False
    return [p for p in range(3, bound + 1) if sieve[p]]


def expected(kind: str, p: int) -> Tuple[int, int, int, List[int]]:
    """Closed forms at prime level p: group order, cusp count, SL2 index, orbit degrees."""
    if kind == "split":
        return 2 * (p - 1) ** 2, (p + 1) // 2, p * (p + 1) // 2, sorted([1, (p - 1) // 2])
    if kind == "borel":
        return p * (p - 1) ** 2, 2, p + 1, [1, 1]
    return (p * p - 1) * (p * p - p), 1, 1, [1]


def census(kind: str, max_p: int) -> List[CensusRow]:
    rows = []
    for p in primes_to(max_p):
        G = parse_preset("%s:%d" % (kind, p))
        cusps = enumerate_cusps(G)
        orbits = galois_orbits(G)
        rows.append(
            CensusRow(
                p=p,
                order=G.order,
                cusps=len(cusps),
                index=sl2_index(G),
                degrees=sorted(o.degree for o in orbits),
                widths=sorted(set(c.width for c in cusps)),
            )
        )
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", default="split", choices=["split", "borel", "full"])
    ap.add_argument("--max-p", type=int, default=101)
    ap.add_argument(
        "--check",
        action="store_true",
        help="check group orders, cusp counts, SL2 indices and orbit degrees "
        "against the closed forms",
    )
    args = ap.parse_args()

    rows = census(args.kind, args.max_p)
    print("%5s %6s %7s  %-18s %s" % ("p", "cusps", "index", "orbit degrees", "widths"))
    failed = 0
    for r in rows:
        print("%5d %6d %7d  %-18s %s" % (r.p, r.cusps, r.index, r.degrees, r.widths))
        got = (r.order, r.cusps, r.index, r.degrees)
        if args.check and got != expected(args.kind, r.p):
            print("CHECK FAILED at p = %d: expected order, cusps, index, degrees %s, got %s"
                  % (r.p, expected(args.kind, r.p), got))
            failed += 1
    if args.check:
        if failed:
            return 1
        print("census identities hold for all %d primes" % len(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
