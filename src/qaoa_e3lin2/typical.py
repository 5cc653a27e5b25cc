"""Sign-ensemble averages over a fixed collection of triples.

Fix the triples and draw every right-hand side independently (equivalently,
each clause sign +1 or -1 with probability 1/2). Averaging a clause term
over the signs collapses the four-sine expression to a closed form,

    E_d[term] = (1/2) sin(gamma) cos(gamma)^(p1 + p2 + p3),

with p_i the number of neighbor clauses attached to focal variable i: the
focal-sign average kills the odd component outright, and each neighbor sign
average turns one quadratic-form factor into a cos(gamma). Summing over
clauses and bounding the exponent by 3D sandwiches the ensemble mean
between (m/2) sin(gamma) cos(gamma)^(3D) and (m/2) sin(gamma) on
(0, pi/2). The lower bound peaks near gamma = 1/sqrt(3D), giving an
expected advantage of about m / (2 sqrt(3e) sqrt(D)) over random guessing.

Everything here is desk-checkable: the exhaustive path enumerates all 2^m
sign assignments and must reproduce the closed form exactly; the Monte
Carlo path estimates the same mean with a seeded stream and reports the
empirical variance, which stays under (1/4) m (6D+3)(D+1).

Neither path builds an instance or a plan per sign vector. Both build one
plan of the collection and ask it for W on every sign vector
(``EvaluationPlan.ensemble_w``): every clause's plan key is a GF(2) code of
the rhs bits, so one parity kernel call gives the keys of a whole chunk of
sign vectors, each key they meet is evaluated once (the base instance's
all-zero row is never read), and a vector's W is one ``math.fsum`` of
looked-up values, bitwise the sum a per-vector plan would give.

``analytic`` and ``instance`` load inside the functions that use them, so
the formulas alone (``optimal_gamma_typical``, ``typical_guarantee``, the
bounds) load neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .instance import Instance

EXHAUSTIVE_MAX_M = 20

EXHAUSTIVE = "exhaustive"
MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class EnsembleReport:
    """Mean and spread of W(gamma) over the sign ensemble of one collection.

    ``mean_w`` is the (exhaustive or estimated) ensemble mean,
    ``closed_form_mean`` the clause-wise prediction, and the bounds are the
    3D sandwich and the variance ceiling for the collection's derived
    occurrence parameter. For the exhaustive method, ``trials`` is the full
    ensemble size 2^m, ``seed`` is 0 (it draws nothing) and ``stderr`` is 0.
    """

    m: int
    d_bound: int
    gamma: float
    method: str
    trials: int
    seed: int
    mean_w: float
    stderr: float
    variance: float
    closed_form_mean: float
    lower_bound: float
    upper_bound: float
    variance_bound: float


def base_instance(triples: np.ndarray | Sequence[tuple[int, int, int]]) -> Instance:
    """All-zero-rhs instance over the triples, n one past the largest variable.

    ``triples`` is an (m, 3) array or m triples. Raises ``ValueError`` with
    the first problem ``validate`` finds.
    """
    from .instance import Instance, validate

    rows = np.asarray(triples, dtype=np.intp)
    if rows.size and (rows.ndim != 2 or rows.shape[1] != 3):
        raise ValueError(f"triples must be an (m, 3) array; got shape {rows.shape}")
    rows = rows.reshape(-1, 3)
    n = 1 + int(rows.max()) if rows.size else 3
    inst = Instance._from_arrays(n, rows, np.zeros(len(rows), dtype=np.uint8))
    problems = validate(inst)
    if problems:
        raise ValueError(problems[0].message)
    return inst


def clause_mean_closed_form(nbhd, gamma: float) -> float:
    """Sign-ensemble mean of one clause term; depends only on pair counts.

    It is the factorized clause term at the clause's pair total.
    """
    from .analytic import _factorized_value

    return _factorized_value(sum(nbhd.pair_counts), gamma)


def collection_closed_form(instance: Instance, gamma: float) -> float:
    """Sum of the per-clause closed forms over the whole collection.

    The pair totals are read from ``Instance.pair_stats``; no topology and
    no neighborhood is built.
    """
    from .analytic import _factorized_value

    return math.fsum(_factorized_value(p, gamma) for p in instance.pair_stats[0].tolist())


def sandwich_bounds(m: int, d_bound: int, gamma: float) -> tuple[float, float]:
    """(lower, upper) = ((m/2) sin g cos^(3D) g, (m/2) sin g)."""
    s = 0.5 * m * math.sin(gamma)
    return s * math.cos(gamma) ** (3 * d_bound), s


def variance_bound(m: int, d_bound: int) -> float:
    """Ensemble variance ceiling (1/4) m (6D+3)(D+1)."""
    return 0.25 * m * (6 * d_bound + 3) * (d_bound + 1)


def _assemble(
    base: Instance,
    gamma: float,
    mean_w: float,
    stderr: float,
    variance: float,
    trials: int,
    method: str,
    seed: int,
) -> EnsembleReport:
    d = base.d_bound
    lower, upper = sandwich_bounds(base.m, d, gamma)
    return EnsembleReport(
        m=base.m,
        d_bound=d,
        gamma=gamma,
        method=method,
        trials=trials,
        seed=seed,
        mean_w=mean_w,
        stderr=stderr,
        variance=variance,
        closed_form_mean=collection_closed_form(base, gamma),
        lower_bound=lower,
        upper_bound=upper,
        variance_bound=variance_bound(base.m, d),
    )


def ensemble_mean_exhaustive(
    triples: np.ndarray | Sequence[tuple[int, int, int]],
    gamma: float,
    q_max: int | None = None,
) -> EnsembleReport:
    """Average W(gamma) over every one of the 2^m sign assignments.

    Exact: the returned variance is the full-ensemble population variance
    and stderr is 0. Refuses m > 20. Sign vector ``code`` has rhs bit j
    equal to bit j of ``code``; W of every vector is read from the key codes
    of one plan, so each distinct clause term is evaluated once.
    """
    from .analytic import EvaluationPlan
    from .instance import code_bits

    base = base_instance(triples)
    m = base.m
    if m > EXHAUSTIVE_MAX_M:
        raise ValueError(f"m={m} too large for exhaustive ensemble (max {EXHAUSTIVE_MAX_M})")

    def signs(start: int, stop: int) -> np.ndarray:
        return code_bits(np.arange(start, stop), m)

    values = EvaluationPlan(base, "exact", q_max).ensemble_w(gamma, 1 << m, signs)
    size = float(1 << m)
    mean = math.fsum(values) / size
    # over Python floats, one at a time: on a numpy scalar ** is numpy's power
    variance = math.fsum((v - mean) ** 2 for v in map(float, values)) / size
    return _assemble(base, gamma, mean, 0.0, variance, 1 << m, EXHAUSTIVE, 0)


def ensemble_mean_mc(
    triples: np.ndarray | Sequence[tuple[int, int, int]],
    gamma: float,
    trials: int,
    seed: int = 0,
    q_max: int | None = None,
) -> EnsembleReport:
    """Monte Carlo over sign assignments, one seeded draw per trial.

    Trial t draws its rhs bits by :func:`random_rhs` with seed ``[seed, t]``,
    as :func:`resample_signs` does. W of every trial is read from the key
    codes as in the exhaustive mean. A Monte Carlo clause j draws the same
    ``analytic.MC_SAMPLES`` spin samples, from ``(0, j)``, in every trial, so
    ``seed`` seeds only the sign draws and two trials with equal signs give
    the same W.
    """
    from .analytic import EvaluationPlan
    from .instance import random_rhs

    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    base = base_instance(triples)
    m = base.m

    def signs(start: int, stop: int) -> np.ndarray:
        draws = [random_rhs(m, [seed, t]) for t in range(start, stop)]
        return np.array(draws, dtype=np.uint8).reshape(stop - start, m)

    values = EvaluationPlan(base, "auto", q_max).ensemble_w(gamma, trials, signs)
    mean = float(np.mean(values))
    variance = float(np.var(values, ddof=1))
    stderr = math.sqrt(variance / trials)
    return _assemble(base, gamma, mean, stderr, variance, trials, MONTE_CARLO, seed)


def optimal_gamma_typical(d_bound: int) -> float:
    """gamma = 1/sqrt(3D): maximizer of the large-D ensemble advantage."""
    if d_bound < 1:
        raise ValueError(f"d_bound must be >= 1, got {d_bound}")
    return 1.0 / math.sqrt(3.0 * d_bound)


def typical_guarantee(m: float, d_bound: int) -> float:
    """Expected advantage m / (2 sqrt(3e) sqrt(D)) at the typical gamma."""
    if d_bound < 1:
        raise ValueError(f"d_bound must be >= 1, got {d_bound}")
    return m / (2.0 * math.sqrt(3.0 * math.e) * math.sqrt(d_bound))
