"""Shared strategies, deliberately naive reference implementations and a CLI runner.

The ``dumb_*`` reference functions here recompute quantities with plain
Python loops (no numpy, no caching, no shared code paths with the package),
and ``loop_eval_forms`` with one numpy pass per pair, so the tests compare
two genuinely different routes to the same number.
"""

import contextlib
import io
import itertools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import qaoa_e3lin2
from qaoa_e3lin2.cli import main
from qaoa_e3lin2.instance import Clause, Instance

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("suite")


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """What a terminal shows: stdout, then stderr."""
        return self.stdout + self.stderr


def fresh_env(**extra) -> dict:
    """The environment, plus ``extra``, of a new interpreter that imports this checkout's package."""
    src = str(Path(qaoa_e3lin2.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


def run_cli(argv) -> CliResult:
    """Run ``qaoa_e3lin2.cli.main(argv)`` in this process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


@st.composite
def instances(draw, min_n=3, max_n=10, max_m=8):
    """Random well-formed instances; occurrence bound falls where it falls."""
    n = draw(st.integers(min_n, max_n))
    all_triples = list(itertools.combinations(range(n), 3))
    triples = draw(
        st.lists(st.sampled_from(all_triples), min_size=0, max_size=max_m, unique=True)
    )
    clauses = tuple(
        Clause(a, b, c, draw(st.integers(0, 1))) for a, b, c in triples
    )
    return Instance(n=n, clauses=clauses)


@st.composite
def bit_vectors(draw, length):
    return [draw(st.integers(0, 1)) for _ in range(length)]


def dumb_satisfied_count(instance, bits):
    """Count satisfied equations by direct parity evaluation."""
    total = 0
    for cl in instance.clauses:
        if (bits[cl.a] + bits[cl.b] + bits[cl.c]) % 2 == cl.rhs:
            total += 1
    return total


def dumb_neighborhood(instance, clause_index):
    """(forms, sorted support variables) of a clause, scanning every other clause.

    ``forms[i]`` lists ``(a, b, sign)``, in variables, for the clauses whose
    one shared variable is focal variable i.
    """
    fv = instance.clauses[clause_index].triple
    forms = ([], [], [])
    support = set()
    for j, other in enumerate(instance.clauses):
        if j == clause_index:
            continue
        shared = [v for v in other.triple if v in fv]
        if len(shared) == 1:
            slot = fv.index(shared[0])
            pair = [v for v in other.triple if v != shared[0]]
            forms[slot].append((pair[0], pair[1], other.sign))
            support.update(pair)
    return forms, sorted(support)


def dumb_clause_term(instance, clause_index, gamma):
    """Per-clause expectation at mixing angle pi/4 by a raw spin-space loop.

    Rebuilds the neighborhood from scratch and averages the four sines over
    every assignment of the support spins, one at a time.
    """
    d = instance.clauses[clause_index].sign
    forms, sup = dumb_neighborhood(instance, clause_index)
    q = len(sup)
    total = 0.0
    for code in range(1 << q):
        spin = {v: 1 - 2 * ((code >> i) & 1) for i, v in enumerate(sup)}
        c1, c2, c3 = (
            sum(s * spin[a] * spin[b] for a, b, s in form) for form in forms
        )
        total += (
            math.sin(gamma * (d + c1 + c2 + c3))
            + math.sin(gamma * (d + c1 - c2 - c3))
            + math.sin(gamma * (d - c1 + c2 - c3))
            + math.sin(gamma * (d - c1 - c2 + c3))
        )
    return (d / 8.0) * total / (1 << q)


def dumb_combo_histogram(q_size, forms):
    """{(c1, c2, c3): count} over every support assignment, one at a time."""
    counts = {}
    for code in range(1 << q_size):
        key = tuple(
            sum(s * (1 - 2 * (((code >> a) ^ (code >> b)) & 1)) for a, b, s in form)
            for form in forms
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def loop_eval_forms(forms, codes):
    """(3, len(codes)) int64 values of the three forms on the given codes.

    Bit i of a code set means support spin i is -1. One pass over the codes
    per pair: the enumeration the package used before the parity grid.
    """
    out = np.zeros((3, codes.size), dtype=np.int64)
    for i, form in enumerate(forms):
        acc = out[i]
        for a, b, s in form:
            parity = ((codes >> a) ^ (codes >> b)) & 1
            acc += s * (1 - 2 * parity)
    return out


def dumb_objective(instance, gamma):
    return math.fsum(
        dumb_clause_term(instance, j, gamma) for j in range(instance.m)
    )


@pytest.fixture
def tiny_instance():
    """Five clauses with every overlap type relative to clause 0.

    Clause 1 shares one variable (0), clause 2 shares two (1, 2), clause 3
    shares one (2), clause 4 shares none.
    """
    return Instance(
        n=9,
        clauses=(
            Clause(0, 1, 2, 0),
            Clause(0, 3, 4, 1),
            Clause(1, 2, 5, 0),
            Clause(2, 6, 7, 1),
            Clause(3, 5, 8, 0),
        ),
    )
