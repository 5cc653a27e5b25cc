"""Per-phase CPU time and peak memory of the dense statevector evaluation.

Reads an instance file and times, in this process, each phase of the
level-1 evaluation at one angle pair: the uniform state, the cost phase,
the mixer, ``prepare`` (all three at once, as the CLI runs them), the
expectation, and ``sampler.run`` drawing --shots shots (prepare, expectation
and the draw, as ``sample`` runs them). Each phase runs on the previous one's
result and is timed with
``time.process_time`` on its own, over --repeat runs, and the median and
the minimum are printed in seconds. ``process_time`` counts every thread of
the process, so run it with BLAS on one thread: otherwise the BLAS threads
left spinning after the cost phase's block products are charged to the
mixer.

A separate, untimed pass takes each phase's tracemalloc peak above what was
allocated before it (its input included) and prints it in bytes per
amplitude, the unit of ``statevector.PEAK_BYTES_PER_AMPLITUDE``.

Usage:
    OPENBLAS_NUM_THREADS=1 python3 scripts/time_statevector.py some.e3lin2 --gamma -0.2
    OPENBLAS_NUM_THREADS=1 python3 scripts/time_statevector.py some.e3lin2 --gamma 0.3 --beta 0.5 --repeat 9 --shots 500
"""

import argparse
import math
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qaoa_e3lin2 import sampler
from qaoa_e3lin2.instance import parse
from qaoa_e3lin2.statevector import (
    AngleParams,
    apply_cost_phase,
    apply_mixer,
    expectation,
    prepare,
    uniform_state,
)


def timed(fn, arg):
    start = time.process_time()
    result = fn(arg)
    return result, time.process_time() - start


def traced(fn, arg):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(arg)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def run(phases, measure):
    """Each phase once, in order, on the previous one's result.

    Returns the last result and each phase's measure.
    """
    result, measures = None, {}
    for name, phase in phases.items():
        result, measures[name] = measure(phase, result)
    return result, measures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("instance", type=Path, help="instance file")
    ap.add_argument("--gamma", type=float, required=True, help="cost angle of the state, in radians")
    ap.add_argument("--beta", type=float, default=math.pi / 4, help="mixer angle, in radians")
    ap.add_argument("--repeat", type=int, default=5, help="runs per phase")
    ap.add_argument("--shots", type=int, default=10000, help="shots the sample phase draws")
    args = ap.parse_args(argv)

    inst = parse(args.instance.read_text())
    params = AngleParams(gamma=args.gamma, beta=args.beta)
    phases = {
        "uniform_state": lambda _: uniform_state(inst.n),
        "apply_cost_phase": lambda state: apply_cost_phase(state, inst, args.gamma),
        "apply_mixer": lambda state: apply_mixer(state, args.beta),
        "prepare": lambda _: prepare(inst, params),
        "expectation": lambda state: expectation(state, inst),
        "sample": lambda _: sampler.run(inst, args.gamma, args.beta, args.shots),
    }
    times = {name: [] for name in phases}
    for _ in range(args.repeat):
        report, seconds = run(phases, timed)
        for name, dt in seconds.items():
            times[name].append(dt)
    _, peaks = run(phases, traced)

    print(f"n={inst.n}, m={inst.m}, gamma={args.gamma}, beta={args.beta}, "
          f"{args.repeat} runs, {args.shots} shots, predicted mean satisfied {report.predicted_mean:.12g}\n")
    print(f"{'phase':<17} {'median_s':>9} {'min_s':>9} {'peak_B/amp':>10}")
    for phase, samples in times.items():
        print(f"{phase:<17} {statistics.median(samples):9.4f} {min(samples):9.4f} "
              f"{peaks[phase] / (1 << inst.n):10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
