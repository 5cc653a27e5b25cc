"""Per-phase CPU time of the dense statevector evaluation.

Reads an instance file and times, in this process, each phase of the
level-1 evaluation at one angle pair: the uniform state, the cost phase,
the mixer and the expectation. Each phase is timed with
``time.process_time`` on its own, over --repeat runs, and the median and
the minimum are printed in seconds. ``process_time`` counts every thread of
the process, so run it with BLAS on one thread: otherwise the BLAS threads
left spinning after the cost diagonal's matrix product are charged to the
mixer.

Usage:
    OPENBLAS_NUM_THREADS=1 python3 scripts/time_statevector.py some.e3lin2 --gamma -0.2
    OPENBLAS_NUM_THREADS=1 python3 scripts/time_statevector.py some.e3lin2 --gamma 0.3 --beta 0.5 --repeat 9
"""

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qaoa_e3lin2.instance import parse
from qaoa_e3lin2.statevector import apply_cost_phase, apply_mixer, expectation, uniform_state


def timed(fn, *args):
    start = time.process_time()
    result = fn(*args)
    return result, time.process_time() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("instance", type=Path, help="instance file")
    ap.add_argument("--gamma", type=float, required=True, help="cost angle of the state, in radians")
    ap.add_argument("--beta", type=float, default=math.pi / 4, help="mixer angle, in radians")
    ap.add_argument("--repeat", type=int, default=5, help="runs per phase")
    args = ap.parse_args(argv)

    inst = parse(args.instance.read_text())
    times = {"uniform_state": [], "apply_cost_phase": [], "apply_mixer": [], "expectation": []}
    for _ in range(args.repeat):
        state, dt = timed(uniform_state, inst.n)
        times["uniform_state"].append(dt)
        state, dt = timed(apply_cost_phase, state, inst, args.gamma)
        times["apply_cost_phase"].append(dt)
        state, dt = timed(apply_mixer, state, args.beta)
        times["apply_mixer"].append(dt)
        value, dt = timed(expectation, state, inst)
        times["expectation"].append(dt)

    print(f"n={inst.n}, m={inst.m}, gamma={args.gamma}, beta={args.beta}, "
          f"{args.repeat} runs, expectation {value:.12g}\n")
    print(f"{'phase':<17} {'median_s':>9} {'min_s':>9}")
    for phase, samples in times.items():
        print(f"{phase:<17} {statistics.median(samples):9.4f} {min(samples):9.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
