"""Measurement sampling, satisfied-equation statistics, and small-n optima.

The state is prepared at the raw angles given (no sign convention applied);
the report also records ``analytic_gamma = -gamma``, the angle under which
``analytic.objective_expectation`` predicts the same state's objective
expectation. A run's predicted mean satisfied count is m/2 plus that
expectation, and the empirical mean over shots converges to it at the
usual 1/sqrt(samples) rate.

The sample-size policy is ceil(m ln m) draws: enough that, with probability
about 1 - 1/m, some draw reaches the expectation. ``brute_force_max`` is
the exact optimum for desk-scale n, used to sanity-check everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _caps
from .instance import Assignment, Instance, clause_parity, clause_sum_blocks
from .statevector import AngleParams, draw_bits, expectation, prepare


@dataclass(frozen=True)
class SampleReport:
    """Satisfied-count statistics for one batch of shots.

    ``gamma`` and ``beta`` are the raw state-preparation angles;
    ``analytic_gamma`` is their sign-flipped counterpart for the analytic
    module. ``best_string`` is the first sampled assignment reaching
    ``best_satisfied``.
    """

    gamma: float
    beta: float
    analytic_gamma: float
    samples: int
    seed: int
    mean_satisfied: float
    best_satisfied: int
    best_string: Assignment
    predicted_mean: float


def satisfied_count_batch(instance: Instance, bits: np.ndarray) -> np.ndarray:
    """Satisfied-equation counts for a (batch, n) bit matrix."""
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != instance.n:
        raise ValueError(f"bit matrix shape {bits.shape} is not (batch, {instance.n})")
    return np.count_nonzero(clause_parity(instance, bits) == instance.rhs_array, axis=1)


def run(
    instance: Instance,
    gamma: float,
    beta: float,
    samples: int,
    seed: int = 0,
    n_max: int | None = None,
) -> SampleReport:
    """Prepare, measure ``samples`` times, and score every string."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    # a shot peaks at 9n + 8 bytes while drawn (its int64 index and bit row,
    # and the uint8 row) and at n + 4m while scored (three gathered bits and a
    # parity per clause): what tracemalloc measures at n = 6 to 12
    n, m = instance.n, instance.m
    _caps.require_memory(samples * max(9 * n + 8, n + 4 * m), f"{samples} shots")
    state = prepare(instance, AngleParams(gamma=gamma, beta=beta), n_max=n_max)
    predicted = instance.m / 2.0 + expectation(state, instance)
    probs = state.probabilities()
    del state  # the draw holds only the probabilities and choice's cumulative array
    bits = draw_bits(probs, samples, seed=seed)
    counts = satisfied_count_batch(instance, bits)
    best_idx = int(np.argmax(counts))
    return SampleReport(
        gamma=gamma,
        beta=beta,
        analytic_gamma=-gamma,
        samples=samples,
        seed=seed,
        mean_satisfied=float(np.mean(counts)),
        best_satisfied=int(counts[best_idx]),
        best_string=Assignment(bits[best_idx]),
        predicted_mean=predicted,
    )


def recommended_samples(m: int) -> int:
    """ceil(m ln m): with probability ~1 - 1/m some draw meets the mean."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    return math.ceil(m * math.log(m))


def brute_force_max(instance: Instance, n_max: int | None = None) -> tuple[int, Assignment]:
    """Exact maximum satisfied count and its lowest-index maximizer."""
    n_max = _caps.BRUTE_FORCE_N_MAX_DEFAULT if n_max is None else n_max
    if instance.n > n_max:
        raise ValueError(f"n={instance.n} exceeds brute-force cap {n_max}")
    # blocks come in increasing code order, so the first maximum seen has
    # the lowest index; an entry counts satisfied minus unsatisfied clauses
    best_value = -math.inf
    best_code = 0
    for first, grid in clause_sum_blocks(instance, instance.n):
        idx = int(np.argmax(grid))
        if grid.flat[idx] > best_value:
            best_value, best_code = float(grid.flat[idx]), first + idx
    bits = [(best_code >> v) & 1 for v in range(instance.n)]
    return int((instance.m + best_value) / 2.0), Assignment(bits)
