"""Scan the certified inequality sweeps across seeds and report worst margins.

A margin is the certified distance by which an inequality holds (lower bound
of bound-minus-value); the scan watches how close any sample family gets to
zero as the sample count grows.  A family that certifies no margin for some
seed (no samples, or every sample undecided) counts as a failure.

Usage:
    python3 scripts/margin_scan.py --samples 500 --seeds 1 2 3
    python3 scripts/margin_scan.py --samples 2000 --precision 192
"""

import argparse
import time
from typing import Dict, List, Optional

from rungemod.analytic import run_all_sweeps


def _fmt(margin: Optional[float]) -> str:
    return "none" if margin is None else "%.6g" % margin


def scan(samples: int, seeds: List[int], precision: int) -> Dict[str, Optional[float]]:
    """Worst margin per family over all seeds; None if some seed certified none."""
    margins: Dict[str, List[Optional[float]]] = {}
    for seed in seeds:
        t0 = time.monotonic()
        results = run_all_sweeps(samples=samples, seed=seed, precision=precision)
        dt = time.monotonic() - t0
        bad = sum(r.violations + r.indeterminate for r in results)
        print("seed %d: %d families, %.1fs, %d failures" % (seed, len(results), dt, bad))
        for r in results:
            print(
                "  %-12s checked=%d holds=%d margin=%s"
                % (r.name, r.checked, r.holds, _fmt(r.worst_margin))
            )
            margins.setdefault(r.name, []).append(r.worst_margin)
    return {name: None if None in ms else min(ms) for name, ms in margins.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=500)
    ap.add_argument("--seeds", type=int, nargs="+", default=[42])
    ap.add_argument("--precision", type=int, default=128)
    args = ap.parse_args()

    worst = scan(args.samples, args.seeds, args.precision)
    print("worst margins over %d seed(s):" % len(args.seeds))
    for name in sorted(worst):
        print("  %-12s %s" % (name, _fmt(worst[name])))
    if any(m is None for m in worst.values()):
        print("NO CERTIFIED MARGIN: investigate")
        return 1
    if any(m <= 0 for m in worst.values()):
        print("NONPOSITIVE MARGIN: investigate")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
