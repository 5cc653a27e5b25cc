"""Sign-ensemble sweep: Monte Carlo mean vs closed form vs sandwich.

Fixes a triple collection (random, or read from an instance file), then
sweeps gamma and prints the exact per-collection closed form, the seeded
Monte Carlo estimate with its standard error, and the (m/2) sin cos^3D
sandwich. A final line reports where the lower bound peaks versus the
1/sqrt(3D) rule of thumb.

Usage:
    python3 scripts/ensemble_sweep.py --n 10 --m 12 --d-bound 3
    python3 scripts/ensemble_sweep.py --instance some.e3lin2 --trials 400
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qaoa_e3lin2.instance import generate_random, parse
from qaoa_e3lin2.typical import (
    base_instance,
    collection_closed_form,
    ensemble_mean_mc,
    optimal_gamma_typical,
    sandwich_bounds,
    typical_guarantee,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instance", type=Path, default=None,
                    help="instance file; its triples are used, signs ignored")
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--m", type=int, default=12)
    ap.add_argument("--d-bound", type=int, default=3)
    ap.add_argument("--trials", type=int, default=200, help="sign draws per angle")
    ap.add_argument("--points", type=int, default=13, help="angles on (0, pi/2)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    if args.instance:
        inst = parse(args.instance.read_text())
    else:
        inst = generate_random(n=args.n, m=args.m, d_bound=args.d_bound, seed=args.seed)
    triples = inst.triple_array
    base = base_instance(triples)
    d = max(1, base.d_bound)
    print(f"collection: m={base.m}, n={inst.n}, derived D={base.d_bound}, "
          f"{args.trials} sign draws per angle\n")

    header = f"{'gamma':>8} {'closed':>9} {'mc_mean':>9} {'stderr':>8} {'lower':>9} {'upper':>9}"
    print(header)
    max_stderr = 0.0
    for g in np.linspace(0.05, math.pi / 2 - 0.05, args.points):
        g = float(g)
        closed = collection_closed_form(base, g)
        rep = ensemble_mean_mc(triples, g, trials=args.trials, seed=args.seed)
        lo, hi = sandwich_bounds(base.m, d, g)
        max_stderr = max(max_stderr, rep.stderr)
        print(f"{g:8.4f} {closed:9.5f} {rep.mean_w:9.5f} {rep.stderr:8.5f} "
              f"{lo:9.5f} {hi:9.5f}")

    if max_stderr < 1e-9:
        print("\nstderr is zero at every angle: W is constant over this sign "
              "ensemble.\nFlipping any variable flips the signs of the clauses "
              "containing it without\nchanging W, and for this collection those "
              "flips already reach every sign\npattern. Dense collections with "
              "a dependent clause subset do spread.")

    grid = np.linspace(1e-3, math.pi / 2 - 1e-3, 4001)
    lower = 0.5 * base.m * np.sin(grid) * np.cos(grid) ** (3 * d)
    g_star = float(grid[int(np.argmax(lower))])
    print(f"\nlower bound peaks at gamma = {g_star:.4f}; "
          f"1/sqrt(3D) = {optimal_gamma_typical(d):.4f}")
    print(f"typical advantage guarantee m/(2 sqrt(3e) sqrt(D)) = "
          f"{typical_guarantee(base.m, d):.4f} equations above m/2")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
