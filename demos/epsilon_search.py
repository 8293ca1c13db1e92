#!/usr/bin/env python3
"""Hunt for matrices where the optimum beats the linear solution.

epsilon = (n - log2(opt)) / minrk measures how much of the min-rank
exponent the best solution recovers; a value below 1/2 would be news.
The script sweeps every tiny matrix of one shape, then samples a larger
shape, and prints the lowest epsilons seen.
"""

import argparse

from minrank import ToolConfig, best_epsilon, search


def run(m, n, mode, count, seed):
    cfg = ToolConfig(seed=seed)
    records = list(search(m, n, mode=mode, count=count, config=cfg))
    defined = [r for r in records if r.epsilon is not None]
    print(f"{mode} {m}x{n}: {len(records)} matrices, {len(defined)} with positive min-rank")
    for rec in sorted(defined, key=lambda r: r.epsilon)[:5]:
        print(f"  eps {rec.epsilon:.4f}  opt {rec.opt:4d}  lin {rec.lin:4d}  {rec.matrix}")
    best = best_epsilon(records)
    if best is not None:
        print(f"  lowest: {best.epsilon:.6g} at {best.matrix}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=300, help="random samples")
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    run(2, 3, "exhaustive", None, args.seed)
    print()
    run(3, 6, "random", args.count, args.seed)
    print("\nnothing below 1 so far; the hunt continues")


if __name__ == "__main__":
    main()
