"""Angle grids and worst-case guarantees for bounded-occurrence instances.

The grid places Chebyshev nodes, gamma_r = cos(pi r / k) / (10 sqrt(D)) for
r = 0..k with odd k of order 5 ln D. Evaluating W at every node and keeping
the best sign-corrected value is guaranteed to land above an explicit
bound: each clause term is a sine series in gamma whose tail beyond degree
k is controlled by a hypercontractive moment estimate, and the polynomial
head cannot be uniformly small on Chebyshev nodes. The resulting bound,

    grid_bound = m / (20 sqrt(D) k) - m (9/10)^(k+2)

is only positive once D is enormous (k grows like 5 ln D, so the second
term needs (9/10)^k to beat 1/k). At desk scale it is negative, which makes
the guarantee vacuous; it is reported as-is, never clamped, with a flag.
The companion large-D simplification m / (101 sqrt(D) ln D) is heuristic at
small D and undefined at D = 1.

The grid is mirror-symmetric, gamma_{k-r} = -gamma_r exactly, and W is odd,
so :func:`scan` evaluates the first half of the grid and negates it for the
second: one pass over the distinct |gamma|.

``analytic`` loads inside :func:`scan`, so the grid and the bounds alone
load neither ``analytic`` nor ``instance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._caps import MC_SAMPLES

if TYPE_CHECKING:
    from .instance import Instance

#: Slack allowed when checking the Chebyshev node inequality numerically.
NODE_TOL = 1e-12

ASYMPTOTIC_NOTE = "large-D heuristic; not meaningful at desk scale"


@dataclass(frozen=True)
class AngleSchedule:
    """Chebyshev-node gamma grid for occurrence bound ``d_bound``."""

    d_bound: int
    k: int
    gammas: tuple[float, ...]

    def __post_init__(self):
        if self.k < 3 or self.k % 2 == 0:
            raise ValueError(f"k must be odd and >= 3, got {self.k}")
        if len(self.gammas) != self.k + 1:
            raise ValueError(
                f"schedule needs k+1={self.k + 1} angles, got {len(self.gammas)}"
            )


@dataclass(frozen=True)
class GuaranteeReport:
    """Worst-case numbers for an (m, D) family at the schedule's k.

    ``grid_bound`` is the rigorous lower bound on the best grid value;
    ``grid_bound_vacuous`` marks it non-positive. ``asymptotic_bound`` is
    the large-D simplification (None when D = 1, where its ln D vanishes)
    and is never asserted against instances. ``remainder_per_clause`` is
    the sine-tail bound at the grid's extreme angle.
    """

    m: int
    d_bound: int
    k: int
    grid_bound: float
    grid_bound_vacuous: bool
    asymptotic_bound: float | None
    asymptotic_note: str
    remainder_per_clause: float


@dataclass(frozen=True)
class ScanPoint:
    r: int
    gamma: float
    value: float
    stderr: float


@dataclass(frozen=True)
class ScanResult:
    """Full grid curve plus the sign-corrected best point.

    W is odd in gamma, so the maximum over both signs of every node equals
    the largest |W| on the grid; ``best_gamma`` carries the sign that makes
    the value non-negative. Ties break to the smallest r, then to the
    positive sign.
    """

    schedule: AngleSchedule
    points: tuple[ScanPoint, ...]
    best_r: int
    best_sign: int
    best_gamma: float
    best_value: float


@dataclass(frozen=True)
class NodeCheck:
    """Outcome of Chebyshev node inequality checks; truthy when all passed."""

    ok: bool
    min_value: float
    threshold: float
    worst_coefficients: tuple[float, ...]
    checked: int

    def __bool__(self) -> bool:
        return self.ok


def schedule_order(d_bound: int) -> int:
    """Smallest odd k >= 5 ln D, floored at 3."""
    if d_bound < 1:
        raise ValueError(f"d_bound must be >= 1, got {d_bound}")
    k = max(3, math.ceil(5.0 * math.log(d_bound)))
    return k if k % 2 == 1 else k + 1


def make_schedule(d_bound: int) -> AngleSchedule:
    """Chebyshev gamma grid; gamma_0 = 1/(10 sqrt(D)), mirror-symmetric."""
    k = schedule_order(d_bound)
    scale = 1.0 / (10.0 * math.sqrt(d_bound))
    half = [math.cos(math.pi * r / k) * scale for r in range((k + 1) // 2)]
    gammas = half + [-g for g in reversed(half)]
    return AngleSchedule(d_bound=d_bound, k=k, gammas=tuple(gammas))


def remainder_bound(d_bound: int, k: int, gamma: float) -> float:
    """Tail bound (9 sqrt(D) |gamma|)^(k+2) on one clause's sine series."""
    if d_bound < 1:
        raise ValueError(f"d_bound must be >= 1, got {d_bound}")
    return (9.0 * math.sqrt(d_bound) * abs(gamma)) ** (k + 2)


def hypercontractive_bound(k: int, second_moment: float) -> float:
    """(k+1)^(k+2) s^((k+2)/2): moment bound for degree-2 spin polynomials."""
    if second_moment < 0:
        raise ValueError(f"second_moment must be >= 0, got {second_moment}")
    return (k + 1.0) ** (k + 2) * second_moment ** ((k + 2) / 2.0)


def grid_bound(m: int, d_bound: int, k: int) -> float:
    """m/(20 sqrt(D) k) - m (9/10)^(k+2); may be negative at small D."""
    if d_bound < 1:
        raise ValueError(f"d_bound must be >= 1, got {d_bound}")
    return m / (20.0 * math.sqrt(d_bound) * k) - m * 0.9 ** (k + 2)


def asymptotic_bound(m: int, d_bound: int) -> float | None:
    """m/(101 sqrt(D) ln D), or None at D = 1 where ln D = 0."""
    if d_bound < 1:
        raise ValueError(f"d_bound must be >= 1, got {d_bound}")
    if d_bound == 1:
        return None
    return m / (101.0 * math.sqrt(d_bound) * math.log(d_bound))


def guarantee(m: int, d_bound: int) -> GuaranteeReport:
    """Assemble the worst-case report at the schedule's k for (m, D)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    schedule = make_schedule(d_bound)
    gb = grid_bound(m, d_bound, schedule.k)
    return GuaranteeReport(
        m=m,
        d_bound=d_bound,
        k=schedule.k,
        grid_bound=gb,
        grid_bound_vacuous=gb <= 0.0,
        asymptotic_bound=asymptotic_bound(m, d_bound),
        asymptotic_note=ASYMPTOTIC_NOTE,
        remainder_per_clause=remainder_bound(d_bound, schedule.k, schedule.gammas[0]),
    )


def scan(
    instance: Instance,
    schedule: AngleSchedule | None = None,
    mode: str = "auto",
    q_max: int | None = None,
    mc_samples: int = MC_SAMPLES,
    seed: int = 0,
) -> ScanResult:
    """Evaluate W on the grid and return the best sign-corrected node.

    The default schedule uses the instance's derived occurrence bound
    (floored at 1 so isolated-clause instances still get a grid). The
    clause routes and term keys do not depend on gamma, so one plan is
    built and each angle evaluates its distinct terms once.

    W is odd in gamma, and the plan's total at -gamma is bitwise
    (-W, stderr) of its total at gamma (Monte Carlo draws too, as they
    depend on the seed alone). So a node whose mirror ``gammas[k - r]``
    equals ``-gammas[r]`` exactly, as on the default grid, takes that
    node's result instead of calling the plan, unless W there is zero,
    whose negation would print as -0.0.
    """
    from .analytic import EvaluationPlan

    if schedule is None:
        schedule = make_schedule(max(1, instance.d_bound))
    plan = EvaluationPlan(instance, mode=mode, q_max=q_max)
    k = schedule.k
    points: list[ScanPoint] = []
    best: tuple[int, int, float] | None = None
    for r, gamma in enumerate(schedule.gammas):
        mirror = points[k - r] if k - r < r else None
        if mirror is not None and mirror.gamma == -gamma and mirror.value != 0.0:
            total, stderr = -mirror.value, mirror.stderr
        else:
            total, stderr = plan.total(gamma, mc_samples=mc_samples, seed=seed)
        points.append(ScanPoint(r=r, gamma=gamma, value=total, stderr=stderr))
        sign = 1 if total >= 0 else -1
        if best is None or abs(total) > best[2]:
            best = (r, sign, abs(total))
    best_r, best_sign, best_value = best
    return ScanResult(
        schedule=schedule,
        points=tuple(points),
        best_r=best_r,
        best_sign=best_sign,
        best_gamma=best_sign * schedule.gammas[best_r],
        best_value=best_value,
    )


def chebyshev_node_property(
    k: int,
    coefficients: Sequence[float] | None = None,
    trials: int = 0,
    seed: int = 0,
) -> NodeCheck:
    """Check max_r |x_r + a_2 x_r^2 + ... + a_k x_r^k| >= 1/k on the nodes.

    The polynomial has leading-1 linear coefficient and free higher ones;
    the inequality at the nodes x_r = cos(pi r / k) is what makes the grid
    scan land above the remainder floor. Checks the supplied coefficient
    vector if any, plus ``trials`` random draws (log-uniform scale, normal
    shape). With neither, checks the zero vector.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError(f"k must be odd and >= 3, got {k}")
    vectors: list[tuple[float, ...]] = []
    if coefficients is not None:
        coeffs = tuple(float(a) for a in coefficients)
        if len(coeffs) != k - 1:
            raise ValueError(
                f"need k-1={k - 1} coefficients (a_2..a_k), got {len(coeffs)}"
            )
        vectors.append(coeffs)
    if trials:
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            scale = 10.0 ** rng.uniform(-1.0, 1.0)
            vectors.append(tuple(scale * rng.standard_normal(k - 1)))
    if not vectors:
        vectors.append((0.0,) * (k - 1))

    nodes = np.cos(np.pi * np.arange(k + 1) / k)
    threshold = 1.0 / k
    min_value = math.inf
    worst = vectors[0]
    for coeffs in vectors:
        # poly coefficients highest-first: a_k, ..., a_2, 1 (linear), 0 (const)
        poly = list(reversed(coeffs)) + [1.0, 0.0]
        value = float(np.max(np.abs(np.polyval(poly, nodes))))
        if value < min_value:
            min_value = value
            worst = coeffs
    return NodeCheck(
        ok=min_value >= threshold - NODE_TOL,
        min_value=min_value,
        threshold=threshold,
        worst_coefficients=worst,
        checked=len(vectors),
    )
