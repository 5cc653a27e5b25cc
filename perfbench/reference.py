"""A fixed reference task that ``run.py`` times between the samples it scales.

On a shared host the same command's CPU time drifts by up to a third from
one minute to the next, as other tenants load the cores and caches. This
task's CPU time drifts with it, so a command's CPU time divided by the
median of this task's runs spread through the same benchmark run measures
the program more than the host.

The task mixes what the CLI spends its time on: a fresh interpreter that
imports numpy, a pure-Python loop over tuples and dicts, and integer numpy
passes over arrays of 2^21 elements, the size of the enumeration chunks and
state vectors the workloads use. It reads no file of the program, so no
change to the program moves it. It prints a checksum that ``run.py``
compares with ``CHECKSUM``.
"""

import numpy as np

CHECKSUM = "8633 7"


def main() -> str:
    table: dict[tuple[int, int], int] = {}
    for i in range(60_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + (i * i) % 7
    codes = np.arange(1 << 21, dtype=np.int64)
    acc = np.zeros(codes.size, dtype=np.int64)
    for bit in range(6):
        acc += 1 - 2 * (((codes >> bit) ^ (codes >> (bit + 7))) & 1)
    hist = np.bincount(acc + 6)
    return f"{len(table) % 10_000} {int(np.count_nonzero(hist))}"


if __name__ == "__main__":
    print(main())
