"""Exact per-clause expectation values at mixing angle pi/4.

For one focal clause with sign d, the contribution to the objective
expectation W(gamma) = <state(-gamma, pi/4)| C |state(-gamma, pi/4)> reduces
to a classical average over the spins of the clause's neighborhood: the
clauses sharing exactly one variable with the focal triple define three
quadratic forms c1, c2, c3 (one per focal variable), each a signed sum of
spin pair products over the support bits, and the clause term is

    (d/8) * E_z[  sin(gamma (d + c1 + c2 + c3))
                + sin(gamma (d + c1 - c2 - c3))
                + sin(gamma (d - c1 + c2 - c3))
                + sin(gamma (d - c1 - c2 + c3)) ]

with E_z the uniform average over the support spins. Clauses sharing two
variables with the focal triple cancel identically and never enter the
forms; clauses sharing none commute away. The average is over at most
2^(6D) spin configurations, so the cost is governed by the occurrence bound
D instead of the instance size n.

Enumeration works by tabulating the joint distribution of the integer
triple (c1, c2, c3) over all support assignments (each form is bounded by
its pair count, so the table is tiny) and then evaluating the four sines
per distinct cell. A cell's key is linear in the pair signs, so the keys of
a block of assignments are one exact parity grid (``instance.parity_grid``):
the support splits into a high and a low half, and the keys on every code
``high | low`` of a block are one float64 product of two +-1 pair-sign
matrices, counted with one ``np.bincount``. The histogram depends only on
the neighborhood, not on gamma, so angle scans reuse it.

Neighborhoods are built in two steps. The sign-free topology (support, pair
positions with the neighbor clause of each pair, cancelled clauses) depends
only on the triples and is built once per triple collection; attaching an
instance's signs to it yields the neighborhoods, which a scan builds once
and evaluates at every angle of its grid.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import _caps
from .instance import Clause, Instance, code_blocks, parity_grid

#: The four sign patterns applied to (c1, c2, c3) in the clause term.
SIGN_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))

_CHUNK = 1 << 20

#: Peak bytes a Monte Carlo clause term holds per sample beyond the q bytes
#: of its spin row (the int64 forms, their pair temporaries and the float64
#: sines; tracemalloc measures q + 56 at q = 9 to 18).
MC_PEAK_BYTES_PER_SAMPLE = 56

EXACT_METHOD = "exact-enumeration"
MC_METHOD = "monte-carlo"


class SupportTooLargeError(ValueError):
    """Neighborhood support exceeds the exact-enumeration cap."""


@dataclass(frozen=True)
class Neighborhood:
    """Everything the focal clause term depends on.

    ``forms[i]`` lists the pairs of form ``c_{i+1}`` as ``(a, b, sign)``
    where ``a`` and ``b`` are positions into ``support`` (support bits are
    compacted to 0..q-1); ``support`` maps positions back to original
    variable indices, ascending. ``cancelled`` records the indices of
    clauses sharing exactly two variables with the focal triple, which drop
    out of the term identically.
    """

    focal_index: int
    focal: Clause
    support: tuple[int, ...]
    forms: tuple[tuple[tuple[int, int, int], ...], ...]
    cancelled: tuple[int, ...]

    @property
    def q_size(self) -> int:
        return len(self.support)

    @property
    def pair_counts(self) -> tuple[int, int, int]:
        return tuple(len(f) for f in self.forms)


@dataclass(frozen=True)
class ClauseTerm:
    """One clause's contribution to W(gamma); |value| <= 1/2 always."""

    clause_index: int
    value: float
    method: str
    stderr: float = 0.0


@dataclass(frozen=True)
class ExpectationReport:
    n: int
    m: int
    d_bound: int
    gamma: float
    mode: str
    total: float
    stderr: float
    terms: tuple[ClauseTerm, ...]


@dataclass(frozen=True)
class MomentReport:
    """Exact low-order moments of the forms and their signed combinations."""

    pair_counts: tuple[int, int, int]
    form_means: tuple[float, float, float]
    form_second_moments: tuple[float, float, float]
    combo_second_moments: tuple[float, float, float, float]

    @property
    def max_combo_second_moment(self) -> float:
        return max(self.combo_second_moments)


@dataclass(frozen=True)
class ClauseTopology:
    """The sign-free part of one clause's neighborhood.

    ``pairs[i]`` lists the pairs of form ``c_{i+1}`` as ``(a, b, k)``: the
    support positions of the pair, as in :class:`Neighborhood`, and the
    index ``k`` of the neighbor clause whose sign the pair carries.
    ``support`` and ``cancelled`` are those of the neighborhood itself.
    """

    triple: tuple[int, int, int]
    support: tuple[int, ...]
    pairs: tuple[tuple[tuple[int, int, int], ...], ...]
    cancelled: tuple[int, ...]


def neighborhood_topology(instance: Instance) -> tuple[ClauseTopology, ...]:
    """Partition the other clauses by overlap with each focal triple.

    Overlap-1 clauses populate the form keyed by the shared focal variable,
    overlap-2 clauses are recorded as cancelled, overlap-0 clauses are
    ignored. Only the triples are read, so one topology serves every angle
    and every sign vector over the same collection.
    """
    triples = instance.triples()
    touching: defaultdict[int, list[int]] = defaultdict(list)
    for j, triple in enumerate(triples):
        for v in triple:
            touching[v].append(j)
    topology = []
    for j, focal in enumerate(triples):
        near: set[int] = set()
        for v in focal:
            near.update(touching[v])
        near.discard(j)
        raw_pairs: tuple[list[tuple[int, int, int]], ...] = ([], [], [])
        cancelled: list[int] = []
        support_vars: set[int] = set()
        for k in sorted(near):
            other = triples[k]
            shared = [v for v in other if v in focal]
            if len(shared) == 1:
                pair = tuple(v for v in other if v != shared[0])
                raw_pairs[focal.index(shared[0])].append((pair[0], pair[1], k))
                support_vars.update(pair)
            elif len(shared) == 2:
                cancelled.append(k)
        support = tuple(sorted(support_vars))
        pos = {v: i for i, v in enumerate(support)}
        pairs = tuple(tuple((pos[a], pos[b], k) for a, b, k in form) for form in raw_pairs)
        topology.append(ClauseTopology(focal, support, pairs, tuple(cancelled)))
    return tuple(topology)


def build_neighborhood(
    instance: Instance,
    clause_index: int,
    topology: Sequence[ClauseTopology] | None = None,
) -> Neighborhood:
    """Attach the instance's clause signs to one clause's topology.

    ``topology`` is :func:`neighborhood_topology` of any instance with the
    same triples, built here when omitted; pass it in to build many
    neighborhoods from one topology. A topology whose triples differ from
    the instance's, at the focal clause or at any clause it lists, raises
    ``ValueError``.
    """
    if not 0 <= clause_index < instance.m:
        raise IndexError(f"clause_index {clause_index} out of range for m={instance.m}")
    if topology is None:
        topology = neighborhood_topology(instance)
    elif len(topology) != instance.m:
        raise ValueError(f"topology covers {len(topology)} clauses, instance has m={instance.m}")
    clauses = instance.clauses
    topo = topology[clause_index]
    listed = [k for form in topo.pairs for _, _, k in form]
    for k in (clause_index, *topo.cancelled, *listed):
        if topology[k].triple != clauses[k].triple:
            raise ValueError(
                f"topology does not match the instance at clause {k}: "
                f"{topology[k].triple} != {clauses[k].triple}"
            )
    forms = tuple(tuple((a, b, clauses[k].sign) for a, b, k in form) for form in topo.pairs)
    return Neighborhood(
        focal_index=clause_index,
        focal=clauses[clause_index],
        support=topo.support,
        forms=forms,
        cancelled=topo.cancelled,
    )


def _pair_terms(forms, scales) -> tuple[np.ndarray, np.ndarray]:
    """(t, 2) support positions of the forms' pairs, each weighted by sign * its form's scale."""
    terms = np.array([(a, b) for form in forms for a, b, _ in form], dtype=np.intp).reshape(-1, 2)
    weights = np.array(
        [s * scale for form, scale in zip(forms, scales) for _, _, s in form], dtype=np.float64
    )
    return terms, weights


def form_value_table(nbhd: Neighborhood, max_q: int = 22) -> np.ndarray:
    """Full (3, 2^q) table of form values over every support assignment.

    Column j holds the forms on the assignment with spin -1 exactly at the
    set bits of j.
    """
    if nbhd.q_size > max_q:
        raise SupportTooLargeError(f"q={nbhd.q_size} exceeds table cap {max_q}")
    table = np.empty((3, 1 << nbhd.q_size), dtype=np.int64)
    for row, form in zip(table, nbhd.forms):
        terms, weights = _pair_terms((form,), (1,))
        blocks = code_blocks(nbhd.q_size, len(terms), _CHUNK)
        row[:] = np.concatenate(
            [parity_grid(terms, weights, nbhd.q_size, high, low).ravel() for high, low in blocks]
        )
    return table


def combo_histogram(nbhd: Neighborhood) -> tuple[np.ndarray, np.ndarray]:
    """Joint counts of the integer triple (c1, c2, c3) over all assignments.

    Returns ``(values, counts)`` where ``values`` has shape (K, 3). Counts
    sum to 2^q. Cached on the form structure alone: the histogram does not
    depend on gamma, the focal sign, or which clause is focal, so angle
    scans and sign-ensemble sweeps reuse it.
    """
    return _histogram_cached(nbhd.q_size, nbhd.forms)


@lru_cache(maxsize=4096)
def _histogram_cached(
    q_size: int, forms: tuple[tuple[tuple[int, int, int], ...], ...]
) -> tuple[np.ndarray, np.ndarray]:
    pairs = tuple(len(f) for f in forms)
    p1, p2, p3 = pairs
    dims = (2 * p1 + 1, 2 * p2 + 1, 2 * p3 + 1)
    total_cells = dims[0] * dims[1] * dims[2]
    # the cell key ((c1+p1)*d2 + (c2+p2))*d3 + (c3+p3) is the offset below
    # plus c1*d2*d3 + c2*d3 + c3, a parity grid of the pairs weighted by
    # their signs times their form's scale; its integers are exact in float64
    offset = (p1 * dims[1] + p2) * dims[2] + p3
    terms, weights = _pair_terms(forms, (dims[1] * dims[2], dims[2], 1))
    hist = np.zeros(total_cells, dtype=np.int64)
    for high, low in code_blocks(q_size, len(terms), _CHUNK):
        grid = parity_grid(terms, weights, q_size, high, low)
        grid += offset
        hist += np.bincount(grid.astype(np.intp).ravel(), minlength=total_cells)
    occupied = np.nonzero(hist)[0]
    counts = hist[occupied]
    v1, rem = np.divmod(occupied, dims[1] * dims[2])
    v2, v3 = np.divmod(rem, dims[2])
    values = np.stack([v1 - p1, v2 - p2, v3 - p3], axis=1)
    values.setflags(write=False)
    counts.setflags(write=False)
    return values, counts


def _four_sine_bracket(gamma: float, d: int, c1, c2, c3):
    total = None
    for s1, s2, s3 in SIGN_PATTERNS:
        term = np.sin(gamma * (d + s1 * c1 + s2 * c2 + s3 * c3))
        total = term if total is None else total + term
    return total


def clause_term_exact(
    nbhd: Neighborhood, gamma: float, q_max: int | None = None
) -> ClauseTerm:
    """Exact clause term by enumeration over the support assignments.

    When every pair in the forms uses its own two variables (q = 2(p1+p2+p3),
    the generic situation on sparse instances), the average factorizes
    through the characteristic function E[e^(i gamma c_i)] = cos^(p_i) gamma
    and the term collapses to (1/2) sin(gamma) cos(gamma)^(p1+p2+p3) with no
    enumeration; this path is exact and needs no support cap.
    """
    pairs_total = sum(nbhd.pair_counts)
    if nbhd.q_size == 2 * pairs_total:
        value = 0.5 * math.sin(gamma) * math.cos(gamma) ** pairs_total
        return ClauseTerm(
            clause_index=nbhd.focal_index,
            value=value,
            method=EXACT_METHOD,
            stderr=0.0,
        )
    q_max = _caps.default_q_max() if q_max is None else q_max
    if nbhd.q_size > q_max:
        raise SupportTooLargeError(
            f"q={nbhd.q_size} exceeds exact-enumeration cap {q_max}; use clause_term_mc"
        )
    d = nbhd.focal.sign
    values, counts = combo_histogram(nbhd)
    bracket = _four_sine_bracket(gamma, d, values[:, 0], values[:, 1], values[:, 2])
    mean = float(np.dot(counts.astype(np.float64), bracket)) / float(1 << nbhd.q_size)
    return ClauseTerm(
        clause_index=nbhd.focal_index,
        value=d / 8.0 * mean,
        method=EXACT_METHOD,
        stderr=0.0,
    )


def clause_term_mc(
    nbhd: Neighborhood,
    gamma: float,
    samples: int,
    seed: int | Sequence[int] = 0,
) -> ClauseTerm:
    """Unbiased Monte Carlo estimate of the clause term.

    One shared spin draw feeds all four sign patterns per sample, which
    correlates the four sines and lowers the estimator variance.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _caps.require_memory(
        samples * (nbhd.q_size + MC_PEAK_BYTES_PER_SAMPLE),
        f"{samples} Monte Carlo samples on a q={nbhd.q_size} support",
    )
    d = nbhd.focal.sign
    rng = np.random.default_rng(seed)
    spins = 1 - 2 * rng.integers(0, 2, size=(samples, nbhd.q_size), dtype=np.int8)
    c = np.zeros((3, samples), dtype=np.int64)
    for i, form in enumerate(nbhd.forms):
        for a, b, s in form:
            c[i] += s * (spins[:, a].astype(np.int64) * spins[:, b])
    vals = (d / 8.0) * _four_sine_bracket(gamma, d, c[0], c[1], c[2])
    value = float(np.mean(vals))
    if samples == 1 or nbhd.q_size == 0:
        stderr = 0.0
    else:
        stderr = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return ClauseTerm(
        clause_index=nbhd.focal_index, value=value, method=MC_METHOD, stderr=stderr
    )


def objective_expectation(
    instance: Instance,
    gamma: float,
    mode: str = "auto",
    q_max: int | None = None,
    mc_samples: int = 100_000,
    seed: int = 0,
    neighborhoods: Sequence[Neighborhood] | None = None,
) -> ExpectationReport:
    """W(gamma): the sum of all clause terms at mixing angle pi/4.

    ``mode`` is one of ``exact`` (fail when a support is too large),
    ``auto`` (exact where the support fits under ``q_max`` or the term
    factorizes through disjoint pairs, Monte Carlo elsewhere) or ``mc``
    (Monte Carlo everywhere). Monte Carlo draws are seeded per clause from
    ``(seed, clause_index)``.

    ``neighborhoods``, one per clause in order, are the instance's own
    :func:`build_neighborhood` results, built once and shared by the angles
    of a scan; they are built here when omitted. A sequence whose focal
    clauses differ from the instance's clauses raises ``ValueError``.
    """
    if mode not in ("exact", "auto", "mc"):
        raise ValueError(f"mode must be exact, auto or mc, got {mode!r}")
    q_cap = _caps.default_q_max() if q_max is None else q_max
    if neighborhoods is None:
        topology = neighborhood_topology(instance)
        neighborhoods = (build_neighborhood(instance, j, topology) for j in range(instance.m))
    elif len(neighborhoods) != instance.m or any(
        nbhd.focal_index != j or nbhd.focal != clause
        for j, (nbhd, clause) in enumerate(zip(neighborhoods, instance.clauses))
    ):
        raise ValueError("neighborhoods do not match the instance's clauses")
    terms: list[ClauseTerm] = []
    for j, nbhd in enumerate(neighborhoods):
        if mode == "mc":
            terms.append(clause_term_mc(nbhd, gamma, mc_samples, seed=[seed, j]))
        elif mode == "exact":
            terms.append(clause_term_exact(nbhd, gamma, q_max=q_cap))
        else:
            factorizes = nbhd.q_size == 2 * sum(nbhd.pair_counts)
            if factorizes or nbhd.q_size <= q_cap:
                terms.append(clause_term_exact(nbhd, gamma, q_max=q_cap))
            else:
                terms.append(clause_term_mc(nbhd, gamma, mc_samples, seed=[seed, j]))
    total = math.fsum(t.value for t in terms)
    stderr = math.sqrt(math.fsum(t.stderr**2 for t in terms))
    return ExpectationReport(
        n=instance.n,
        m=instance.m,
        d_bound=instance.d_bound,
        gamma=gamma,
        mode=mode,
        total=total,
        stderr=stderr,
        terms=tuple(terms),
    )


def _cell_weights(nbhd: Neighborhood, q_max: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Histogram cells of the forms and their probabilities under uniform spins."""
    q_max = _caps.default_q_max() if q_max is None else q_max
    if nbhd.q_size > q_max:
        raise SupportTooLargeError(f"q={nbhd.q_size} exceeds enumeration cap {q_max}")
    values, counts = combo_histogram(nbhd)
    return values, counts.astype(np.float64) / float(1 << nbhd.q_size)


def moment_checks(nbhd: Neighborhood, q_max: int | None = None) -> MomentReport:
    """Exact first and second moments of the forms under uniform spins.

    Each form has mean 0 and second moment equal to its pair count; the
    signed combinations d + s1 c1 + s2 c2 + s3 c3 therefore have second
    moment 1 + E[(s1 c1 + s2 c2 + s3 c3)^2].
    """
    values, weights = _cell_weights(nbhd, q_max)
    means = tuple(float(np.dot(weights, values[:, i])) for i in range(3))
    seconds = tuple(float(np.dot(weights, values[:, i] ** 2)) for i in range(3))
    d = nbhd.focal.sign
    combos = tuple(
        float(np.dot(weights, (d + s1 * values[:, 0] + s2 * values[:, 1] + s3 * values[:, 2]) ** 2))
        for s1, s2, s3 in SIGN_PATTERNS
    )
    return MomentReport(
        pair_counts=nbhd.pair_counts,
        form_means=means,
        form_second_moments=seconds,
        combo_second_moments=combos,
    )


def cosine_product_mean(
    nbhd: Neighborhood, gamma: float, q_max: int | None = None
) -> float:
    """Exact E_z[cos(gamma c1) cos(gamma c2) cos(gamma c3)].

    Averaging a clause term over its focal sign at fixed neighbor signs
    leaves exactly (1/2) sin(gamma) times this quantity; averaging over the
    neighbor signs as well turns it into cos(gamma)^(p1+p2+p3).
    """
    values, weights = _cell_weights(nbhd, q_max)
    prod = (
        np.cos(gamma * values[:, 0])
        * np.cos(gamma * values[:, 1])
        * np.cos(gamma * values[:, 2])
    )
    return float(np.dot(weights, prod))


def combo_abs_moment(
    nbhd: Neighborhood,
    pattern: tuple[int, int, int],
    power: float,
    q_max: int | None = None,
) -> float:
    """Exact E[|d + s1 c1 + s2 c2 + s3 c3|^power] for one sign pattern."""
    values, weights = _cell_weights(nbhd, q_max)
    s1, s2, s3 = pattern
    combo = nbhd.focal.sign + s1 * values[:, 0] + s2 * values[:, 1] + s3 * values[:, 2]
    return float(np.dot(weights, np.abs(combo.astype(np.float64)) ** power))
