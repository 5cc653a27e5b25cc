"""The benchmark's workloads: which instance files each one writes and which
``qaoa-e3lin2`` commands one pass over it runs.

Every input derives from the workload seed. Where the cost of a command
depends on the shape of an instance and not only on its size (the 2^q
enumeration of a dense neighborhood), the triples come from one fixed
``gen`` call and the seed redraws only the signs. The variables keep their
labels: the bit order of a support decides how the 2^q enumeration walks
memory, and permuting it moved the time of one ``eval`` by 10% between
seeds. Signs leave every support and its bit order alone, so the work per
pass is the same for every seed while the file differs. The statevector
instances are built the same way: their cost depends on n and m, but how
long ``gen`` retries and how large the analytic side's supports get depend
on the ``gen`` seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Variable-disjoint copies of the dense n=8 octet from the acceptance suite.
OCTET = ((4, 5, 7), (0, 6, 7), (3, 4, 6), (4, 6, 7), (1, 5, 7), (0, 3, 5), (0, 1, 5), (0, 2, 3))
OCTET_COPIES = 25

#: Command kinds that a pass times, and the end-to-end metric each reports to.
KIND_METRIC = {
    "scan": "scan_s",
    "eval": "eval_s",
    "eval_sv": "eval_sv_s",
    "sample": "sample_s",
    "typical_exact": "typical_exact_s",
    "typical_mc": "typical_mc_s",
}


@dataclass(frozen=True)
class Command:
    """One ``qaoa-e3lin2`` invocation; ``key`` names it among its repeats."""

    key: str
    kind: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Plan:
    """What one workload runs for one seed.

    ``setup`` are the ``gen`` commands, ``derive`` writes the files the
    benchmark builds itself once they exist, and ``commands`` is one pass.
    ``roles`` lists the two command kinds reported as ``cmd1_s`` and
    ``cmd2_s``.
    """

    setup: tuple[Command, ...]
    derive: Callable[[], None]
    commands: tuple[Command, ...]
    roles: tuple[str, str]


def read_instance(path: Path) -> tuple[int, list[tuple[int, int, int, int]]]:
    """(n, [(a, b, c, rhs), ...]) from an instance file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    _, n, _ = lines[0].split(" ")
    return int(n), [tuple(int(t) for t in line.split(" ")) for line in lines[1:]]


def write_instance(path: Path, n: int, clauses) -> None:
    body = "".join(f"{a} {b} {c} {rhs}\n" for a, b, c, rhs in clauses)
    path.write_text(f"e3lin2 {n} {len(clauses)}\n{body}", encoding="utf-8")


def resign(source: Path, target: Path, rng: random.Random) -> None:
    """Redraw every rhs; the triples and their order are kept."""
    n, clauses = read_instance(source)
    write_instance(target, n, [(a, b, c, rng.randrange(2)) for a, b, c, _ in clauses])


def _gen(path: Path, n: int, m: int, d: int, seed: int) -> Command:
    argv = ("gen", "-n", str(n), "-m", str(m), "-D", str(d), "--seed", str(seed), "-o", str(path))
    return Command(key=f"gen:{path.name}", kind="gen", argv=argv)


def _angle(rng: random.Random) -> str:
    return f"{rng.uniform(0.1, 0.4):.6f}"


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1 << 31))


def analytic_grid(seed: int, work: Path) -> Plan:
    rng = random.Random(f"analytic-grid:{seed}")
    sparse_base, sparse = work / "sparse-base.e3lin2", work / "sparse.e3lin2"
    dense_base, dense = work / "dense-base.e3lin2", work / "dense.e3lin2"
    setup = (
        _gen(sparse_base, 12000, 8000, 3, 1),
        _gen(dense_base, 32, 48, 5, 1),
    )
    sign_seed = rng.random()
    commands = (
        Command("scan", "scan", ("scan", str(sparse))),
        Command("eval", "eval", ("eval", str(dense), "--gamma", _angle(rng))),
    )

    def derive():
        resign(sparse_base, sparse, random.Random(sign_seed))
        resign(dense_base, dense, random.Random(sign_seed))

    return Plan(setup, derive, commands, ("scan", "eval"))


def sign_ensemble(seed: int, work: Path) -> Plan:
    rng = random.Random(f"sign-ensemble:{seed}")
    small, dense, tiled = work / "ensemble10.e3lin2", work / "dense13.e3lin2", work / "tiled.e3lin2"
    setup = (
        _gen(small, 10, 10, 3, 1),
        _gen(dense, 13, 24, 5, 21),
    )
    octets = [
        (a + 8 * i, b + 8 * i, c + 8 * i, 0) for i in range(OCTET_COPIES) for a, b, c in OCTET
    ]
    commands = (
        Command(
            "typical:exact",
            "typical_exact",
            ("typical", str(small), "--trials", "0", "--gamma", _angle(rng)),
        ),
        Command(
            "typical:tiled",
            "typical_mc",
            ("typical", str(tiled), "--trials", "20", "--seed", _seed(rng), "--gamma", _angle(rng)),
        ),
        Command(
            "typical:dense",
            "typical_mc",
            ("typical", str(dense), "--trials", "50", "--seed", _seed(rng), "--gamma", _angle(rng)),
        ),
    )
    derive = lambda: write_instance(tiled, 8 * OCTET_COPIES, octets)  # noqa: E731
    return Plan(setup, derive, commands, ("typical_exact", "typical_mc"))


def dense_state(seed: int, work: Path) -> Plan:
    rng = random.Random(f"dense-state:{seed}")
    big_base, big = work / "state20-base.e3lin2", work / "state20.e3lin2"
    shots_base, shots = work / "state18-base.e3lin2", work / "state18.e3lin2"
    setup = (
        _gen(big_base, 20, 26, 3, 1),
        _gen(shots_base, 18, 24, 3, 1),
    )
    sign_seed = rng.random()
    commands = (
        Command(
            "eval_sv",
            "eval_sv",
            ("eval", str(big), "--gamma", _angle(rng), "--compare-statevector"),
        ),
    )
    # Two shorter sample commands rather than one long one: a sample's CPU
    # time varies by about 10% from one process to the next, and the sum of
    # two independent ones varies less for the same shots per pass.
    shots_gamma = _angle(rng)
    commands += tuple(
        Command(
            f"sample:{i}",
            "sample",
            ("sample", str(shots), "--gamma", shots_gamma, "--samples", "10000", "--seed", _seed(rng)),
        )
        for i in (1, 2)
    )

    def derive():
        resign(big_base, big, random.Random(sign_seed))
        resign(shots_base, shots, random.Random(sign_seed))

    return Plan(setup, derive, commands, ("eval_sv", "sample"))


#: Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[int, Path], Plan]] = {
    "analytic-grid": analytic_grid,
    "sign-ensemble": sign_ensemble,
    "dense-state": dense_state,
}
