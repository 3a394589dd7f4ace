#!/usr/bin/env python3
"""Per-stage timing as the hop bound sweeps 1..9 on fixed chain-like graphs.

Prints a table of preprocess / power-table / forward / backward times and
the worst ratio of forward-time growth to hop-pair growth. The scan's cost
is linear in the number of hop pairs; values near or below 1 confirm it.
"""

import argparse
import json

from dgssm.bench import run_bench, scaling_summary


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=120)
    ap.add_argument("--graphs", type=int, default=8)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", type=str, default=None)
    args = ap.parse_args()

    records = run_bench(
        ks=list(range(1, 10)), num_graphs=args.graphs, nodes=args.nodes,
        repeats=args.repeats,
    )
    print(f"{'k':>3} {'pairs':>8} {'pre(s)':>8} {'powers(s)':>10} {'fwd(s)':>8} {'bwd(s)':>8}")
    for r in records:
        print(f"{r.k:>3} {r.total_pairs:>8} {r.preprocess_s:>8.3f} "
              f"{r.kernel_s:>10.4f} {r.forward_s:>8.3f} {r.backward_s:>8.3f}")
    summary = scaling_summary(records)
    print(f"max forward-time growth vs pair growth: {summary['max_superlinearity']:.3f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2)


if __name__ == "__main__":
    main()
