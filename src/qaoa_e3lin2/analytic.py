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
per distinct cell. A cell's key is linear in the pair signs. On a small
support (q <= ``_WALK_MAX_Q``) the keys of all 2^q assignments are the exact
parity grids of ``instance.parity_blocks``: the support splits into a high
and a low half, the low half's +-1 pair-sign matrix is built once, and the
keys of each block of high codes are one float64 product with it, counted
with one ``np.bincount``. A larger support goes by the connected components
of its pair graph, whose spins are independent: a tree's pair signs are
independent and uniform, so its pairs add binomials, and only a component
with a cycle is walked, over its own bits. The parts combine by exact int64
convolutions of their key counts. The histogram depends only on the
neighborhood, not on gamma, so a plan counts it once for all its angles.
Histograms whose forms differ only in their signs share a pair layout (q
and the pair positions): one set of terms and a (K, t) stack of weights,
so the small supports of a layout are counted in one walk.

Clauses are routed in two steps, and both read the instance's table of the
clause pairs that share a variable, each classified once by its overlap.
First, ``Instance.pair_stats`` gives every clause's pair total P and
support size q from that table; a clause with q = 2P factorizes, and its
route needs nothing more. Second, ``Instance.clause_table`` groups the rows
of the other clauses, with array operations, into sign-free rows: support,
pairs (form, a, b, neighbor clause) and cancelled clauses. A plan builds it
once; :func:`build_neighborhood` reads one clause's and attaches its signs.

A clause term depends on a small key only: a factorized clause's on its
pair total P, an enumerated clause's on its q, its (c1, c2, c3) histogram
and its focal sign d. Flipping one support spin negates the pairs that meet
it and permutes the assignments, so the histogram is unchanged; fixing the
signs of a spanning forest of the pair graph to +1 gives gauge-canonical
forms that stand for the histogram. One forest walk, :func:`_gauge_rows`,
gives each pair the pairs whose signs multiply to its canonical sign, from
the pair positions alone: histograms are keyed on the forms it fixes,
and an :class:`EvaluationPlan` reads the same rows as GF(2)
parities of the rhs bits. The plan routes every clause once, keys each
non-Monte-Carlo clause by P or by (q, canonical forms, d), and evaluates
each distinct key once per angle, at the instance's own signs or on a whole
chunk of sign vectors with one ``term_parity`` call
(:meth:`EvaluationPlan.ensemble_w`). A chunk's code bits pack into one
integer per clause (above its layout's number), one sort finds the distinct
codes, and only codes not met before are decoded to keys. The keys of an
angle are evaluated together (:func:`_key_values`): one four-sine bracket
over the joined cells of their histograms, and one dot product per key over
its own slice, so each value is the one the key gives alone. ``math.fsum``
is correctly rounded, so W expanded from the distinct values is bitwise the
per-clause sum. The plan is the one place where W is assembled from key
values and Monte Carlo terms. A Monte Carlo clause keeps its pair rows,
signs them from its neighbors' rhs bits, and is drawn from its
``(seed, clause_index)`` stream by the kernel :func:`clause_term_mc` calls.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from typing import Sequence

import numpy as np

from . import _caps
# defined with the caps, so that the CLI lists them without loading this module
from ._caps import MC_SAMPLES, MODES
from .instance import Clause, Instance, parity_blocks, term_parity

#: The four sign patterns applied to (c1, c2, c3) in the clause term.
SIGN_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))

#: Bytes of arrays one chunk of sign vectors holds while its key codes are read.
_CODE_CHUNK_BYTES = 1 << 22

#: Peak bytes a Monte Carlo clause term holds per sample beyond the q bytes
#: of its spin row (the int64 forms, their pair temporaries and the float64
#: sines). tracemalloc measures q + 56.7 at q = 9 to 18; the first call in a
#: process also imports ``numpy.random`` (about 0.8 MB), which at 100000
#: samples reads as q + 64.4. The rest is margin for that import's size.
MC_PEAK_BYTES_PER_SAMPLE = 68

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
    mc_samples: int
    seed: int
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


def build_neighborhood(instance: Instance, clause_index: int) -> Neighborhood:
    """One clause's :class:`Neighborhood`: its ``Instance.clause_table`` rows, each pair signed ``1 - 2*rhs[k]``."""
    support, pairs, cancelled = instance.clause_table([clause_index])
    rhs = instance.rhs_array
    pairs[:, 4] = 1 - 2 * rhs[pairs[:, 4]].astype(np.intp)  # each neighbor clause, read as its sign
    rows = pairs[:, 1:].tolist()
    forms = tuple(tuple([(a, b, sign) for f, a, b, sign in rows if f == i]) for i in range(3))
    focal = Clause(*instance.triple_array[clause_index].tolist(), int(rhs[clause_index]))
    return Neighborhood(clause_index, focal, tuple(support[:, 1].tolist()), forms, tuple(cancelled[:, 1].tolist()))


def _gauge_rows(q_size: int, pairs) -> list[list[int]]:
    """For each pair, the pairs whose signs multiply to its gauge-canonical sign.

    ``pairs[e]`` starts with the support positions ``a, b`` of pair e. The
    spanning forest is a breadth-first search from each unvisited position
    in order. With path(v) the forest pairs from v's root to v, pair e's row
    is ``{e} ^ path(a) ^ path(b)``: a forest pair's row is empty (sign +1),
    and forms that differ by flips of support spins give equal products.
    """
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(q_size)]
    for e, (a, b, _) in enumerate(pairs):
        adjacency[a].append((b, e))
        adjacency[b].append((a, e))
    path: list[set[int] | None] = [None] * q_size
    for root in range(q_size):
        if path[root] is None:
            path[root] = set()
            queue = [root]
            for v in queue:
                for w, e in adjacency[v]:
                    if path[w] is None:
                        path[w] = path[v] ^ {e}
                        queue.append(w)
    return [sorted(path[a] ^ path[b] ^ {e}) for e, (a, b, _) in enumerate(pairs)]


def _with_signs(forms, signs) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The forms with their pairs' signs replaced by ``signs``, taken in form order."""
    signs = iter(signs)
    return tuple(tuple([(a, b, next(signs)) for a, b, _ in form]) for form in forms)


def _gauge_fixed(q_size: int, forms) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The forms with the pairs of a spanning forest of their pair graph at sign +1.

    Each pair's sign is the product along its row of :func:`_gauge_rows`,
    so forms that differ by flips of support spins come out equal.
    """
    pairs = sum(forms, ())
    rows = _gauge_rows(q_size, pairs)
    return _with_signs(forms, [math.prod([pairs[f][2] for f in row]) for row in rows])


def combo_histogram(nbhd: Neighborhood) -> tuple[np.ndarray, np.ndarray]:
    """Joint counts of the integer triple (c1, c2, c3) over all assignments.

    Returns ``(values, counts)`` where ``values`` has shape (K, 3). Counts
    sum to 2^q. The histogram does not depend on gamma, the focal sign,
    which clause is focal, or flips of support spins, so it is counted on
    the gauge-canonical forms.
    """
    return _layout_histograms(nbhd.q_size, [_gauge_fixed(nbhd.q_size, nbhd.forms)])[0]


#: Supports up to this size walk all 2^q codes; larger ones go by component.
#: Read at call time. Per key over the enumerated keys of the benchmark's
#: files (in-process on a 2-vCPU Xeon VM, BLAS on one thread, median of 15),
#: the walk wins up to q = 11 and ties at q = 12 (124 vs 122 us); the
#: component route wins from q = 13 (142 -> 119 us) and takes 0.18 ms
#: against 9.2 ms at q = 21.
_WALK_MAX_Q = 12


def _walk_counts(terms: np.ndarray, weights: np.ndarray, width: int) -> np.ndarray:
    """Counts of sum_t w_t (-1)^parity_t over all 2^width codes, at index value + sum_t |w_t|.

    ``weights`` is a (K, t) stack whose rows share their |w_t|; row k of the
    (K, 2 sum_t |w_t| + 1) result counts row k's sums, and one walk serves
    the stack. With integer weights every grid entry is an exact integer in
    float64.
    """
    span = int(np.abs(weights[0]).sum())
    size = 2 * span + 1
    hist = np.zeros(len(weights) * size, dtype=np.int64)
    # row k's sums land in its own stretch of one bincount
    offsets = np.arange(span, hist.size, size, dtype=np.float64)[:, None, None]
    for _, grid in parity_blocks(terms, weights, width):
        grid += offsets
        hist += np.bincount(grid.astype(np.intp).ravel(), minlength=hist.size)
    return hist.reshape(len(weights), size)


def _component_counts(terms: np.ndarray, weights: np.ndarray, width: int) -> np.ndarray:
    """One row of :func:`_walk_counts`, built from the components of the pair graph.

    Spins in different components are independent, so the counts are the
    exact int64 convolution of the components' counts. A tree's V spins map
    2-to-1 onto its V - 1 pair signs, which are independent and uniform, so
    the f tree pairs of weight +-w add a binomial: 2kw with count C(f, k).
    Only a component with a cycle is walked, over its own bits. The parts
    count 2^(walked bits + tree pairs) codes; a final shift restores 2^width.
    """
    root = list(range(width))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for a, b in terms.tolist():
        root[find(a)] = find(b)
    label = np.array([find(v) for v in range(width)], dtype=np.intp)
    of_pair = label[terms[:, 0]]
    # per component root: its bits and its pairs; a tree has one pair fewer than bits
    bits = np.bincount(label, minlength=width)
    pairs = np.bincount(of_pair, minlength=width)
    cyclic = np.flatnonzero((pairs >= bits) & (pairs > 0))
    hist = np.ones(1, dtype=np.int64)
    for r in cyclic.tolist():
        own_bits, own_pairs = np.flatnonzero(label == r), np.flatnonzero(of_pair == r)
        local = np.searchsorted(own_bits, terms[own_pairs])
        hist = np.convolve(hist, _walk_counts(local, weights[None, own_pairs], own_bits.size)[0])
    tree = (pairs < bits)[of_pair]
    for w, f in Counter(np.abs(weights[tree]).astype(np.intp).tolist()).items():
        out = np.zeros(hist.size + 2 * f * w, dtype=np.int64)
        for k in range(f + 1):
            out[2 * k * w : 2 * k * w + hist.size] += math.comb(f, k) * hist
        hist = out
    return hist << (width - int(bits[cyclic].sum()) - int(tree.sum()))


def _layout_histograms(q_size: int, group: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(values, counts)`` of every member of ``group``: forms that share one pair layout.

    The cell key ((c1+p1)*d2 + (c2+p2))*d3 + (c3+p3) is (p1*d2 + p2)*d3 + p3
    = sum_t |w_t| plus c1*d2*d3 + c2*d3 + c3, a parity grid of the pairs
    weighted by their signs times their form's scale: one set of terms for
    the group and a (K, t) stack of weights, counted in one walk.
    """
    if q_size > 62:
        # a tree-only support of that size is quick to count, but its counts need not fit
        raise SupportTooLargeError(f"q={q_size}: the counts of 2^q assignments overflow int64")
    p1, p2, p3 = (len(f) for f in group[0])
    dims = (2 * p1 + 1, 2 * p2 + 1, 2 * p3 + 1)
    terms = np.array([(a, b) for form in group[0] for a, b, _ in form], np.intp).reshape(-1, 2)
    scales = np.repeat([dims[1] * dims[2], dims[2], 1], (p1, p2, p3)).astype(np.float64)
    weights = np.array([[s for form in forms for _, _, s in form] for forms in group]) * scales
    if q_size <= _WALK_MAX_Q:
        hists = _walk_counts(terms, weights, q_size)
    else:
        hists = np.stack([_component_counts(terms, row, q_size) for row in weights])
    of_key, occupied = np.nonzero(hists)
    counts = hists[of_key, occupied]
    v1, rem = np.divmod(occupied, dims[1] * dims[2])
    v2, v3 = np.divmod(rem, dims[2])
    values = np.stack([v1 - p1, v2 - p2, v3 - p3], axis=1)
    values.setflags(write=False)
    counts.setflags(write=False)
    ends = np.cumsum(np.count_nonzero(hists, axis=1)).tolist()
    return [(values[i:j], counts[i:j]) for i, j in zip([0] + ends, ends)]


def _count_missing(keys, histograms: dict) -> None:
    """Add to ``histograms`` each ``(q, forms)`` key it lacks, counted in one walk per pair layout."""
    missed = defaultdict(list)
    for q_size, forms in dict.fromkeys(key for key in keys if key not in histograms):
        missed[q_size, _with_signs(forms, repeat(0))].append(forms)  # one layout: the forms, signs aside
    for (q_size, _), group in missed.items():
        for forms, hist in zip(group, _layout_histograms(q_size, group)):
            histograms[q_size, forms] = hist


def _four_sine_bracket(gamma: float, d, c1, c2, c3):
    """The four sines summed per cell; ``d`` is the focal sign, one int or one per cell."""
    total = None
    for s1, s2, s3 in SIGN_PATTERNS:
        term = np.multiply(gamma, d + s1 * c1 + s2 * c2 + s3 * c3)
        np.sin(term, out=term)
        total = term if total is None else np.add(total, term, out=total)
    return total


def _factorized_value(pairs_total: int, gamma: float) -> float:
    """(1/2) sin(gamma) cos(gamma)^P: the term of a clause whose pairs are disjoint."""
    return 0.5 * math.sin(gamma) * math.cos(gamma) ** pairs_total


def _q_cap(q_max: int | None) -> int:
    """The exact-enumeration cap: ``q_max``, or ``Q_MAX_DEFAULT`` when None."""
    return _caps.Q_MAX_DEFAULT if q_max is None else q_max


def _require_enumerable(q_size: int, q_max: int | None) -> None:
    q_max = _q_cap(q_max)
    if q_size > q_max:
        raise SupportTooLargeError(
            f"q={q_size} exceeds exact-enumeration cap {q_max}; use clause_term_mc"
        )


def _key_values(keys, gamma: float, histograms: dict) -> list[float]:
    """The terms of plan keys at one angle: a pair total P factorizes, (q, forms, d) is enumerated.

    An enumerated key's term is (d/8) times the four-sine bracket averaged
    over the histogram of its forms, read from ``histograms`` and counted
    into it when missing. One bracket covers the joined cells of every
    enumerated key, with d given per cell; each key's mean is its own dot
    product over its slice, so it is the value the key gives alone.
    """
    enumerated = [key for key in keys if not isinstance(key, int)]
    means = iter(())
    if enumerated:
        _count_missing([key[:2] for key in enumerated], histograms)
        hists = [histograms[key[:2]] for key in enumerated]
        sizes = [counts.size for _, counts in hists]
        # int32 cells and int8 signs keep the joined arrays small; a cell's sums are bounded
        # by its pair counts, so they stay exact
        c1, c2, c3 = (np.concatenate([v[:, i] for v, _ in hists], dtype=np.int32) for i in range(3))
        d = np.repeat(np.array([key[2] for key in enumerated], dtype=np.int8), sizes)
        bracket = _four_sine_bracket(gamma, d, c1, c2, c3)
        ends = np.cumsum(sizes).tolist()
        means = (
            key[2] / 8.0 * (float(np.dot(counts.astype(np.float64), bracket[i:j])) / (1 << key[0]))
            for key, (_, counts), i, j in zip(enumerated, hists, [0] + ends, ends)
        )
    return [_factorized_value(key, gamma) if isinstance(key, int) else next(means) for key in keys]


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
    key = sum(nbhd.pair_counts)
    if nbhd.q_size != 2 * key:
        _require_enumerable(nbhd.q_size, q_max)
        key = (nbhd.q_size, _gauge_fixed(nbhd.q_size, nbhd.forms), nbhd.focal.sign)
    return ClauseTerm(nbhd.focal_index, _key_values([key], gamma, {})[0], EXACT_METHOD)


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
    pairs = [(i, a, b, s) for i, form in enumerate(nbhd.forms) for a, b, s in form]
    return _mc_term(nbhd.focal_index, nbhd.q_size, nbhd.focal.sign, pairs, gamma, samples, seed)


def _mc_term(clause_index: int, q_size: int, d: int, pairs, gamma: float, samples: int, seed) -> ClauseTerm:
    """The Monte Carlo term of a clause with focal sign ``d`` and pairs (form, a, b, sign) on q spins."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _caps.require_memory(
        samples * (q_size + MC_PEAK_BYTES_PER_SAMPLE),
        f"{samples} Monte Carlo samples on a q={q_size} support",
    )
    rng = np.random.default_rng(seed)
    spins = 1 - 2 * rng.integers(0, 2, size=(samples, q_size), dtype=np.int8)
    c = np.zeros((3, samples), dtype=np.int64)
    for i, a, b, s in pairs:
        c[i] += s * (spins[:, a].astype(np.int64) * spins[:, b])
    vals = (d / 8.0) * _four_sine_bracket(gamma, d, c[0], c[1], c[2])
    value = float(np.mean(vals))
    if samples == 1 or q_size == 0:
        stderr = 0.0
    else:
        stderr = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return ClauseTerm(clause_index=clause_index, value=value, method=MC_METHOD, stderr=stderr)


class EvaluationPlan:
    """Each clause's route and term key, at the instance's own signs or at any sign vector.

    ``mode`` is ``exact`` (fail when a support is too large), ``auto``
    (exact where the support fits under ``q_max`` or the term factorizes
    through disjoint pairs, Monte Carlo elsewhere) or ``mc`` (Monte Carlo
    everywhere). Clauses are routed by ``Instance.pair_stats``; the pair rows
    of those that do not factorize (q = 2P) come from one ``clause_table``.

    A factorized clause's key is its pair total P. An enumerated clause's
    key (q, gauge-canonical forms, d) is fixed by its pair layout (q and the
    (form, a, b) of its pairs, numbered by one ``np.unique``) and by GF(2)
    parities of the rhs bits: its own bit (d), then each nonempty row of
    :func:`_gauge_rows` (a forest pair's row is empty, its sign +1), with
    every pair read as the neighbor clause that carries it. The gauge rows
    are found once per layout.
    ``rows`` holds the parities padded with m; :meth:`key_indices` points m
    at an all-zero column, so one :func:`term_parity` gives the code bits of
    a chunk of sign vectors. A clause's code packs, above its layout's
    number, into int64 words of 63 bits, and only the distinct packed codes
    are decoded to keys. ``index`` numbers the distinct keys as first
    decoded and ``keys`` lists them; ``mc`` lists the Monte Carlo clauses.
    ``key_of[j]`` is clause j's key index at the instance's own signs, read
    on first use, or -1 for a Monte Carlo clause. ``_histograms`` maps the
    ``(q, forms)`` of every key evaluated to its histogram, for the plan's life.
    """

    def __init__(self, instance: Instance, mode: str = "auto", q_max: int | None = None):
        if mode not in MODES:
            raise ValueError(f"mode must be exact, auto or mc, got {mode!r}")
        q_cap = _q_cap(q_max)
        self.instance = instance
        self.mode = mode
        self._decoded: dict[tuple[int, ...], int] = {}
        self._histograms: dict = {}
        pairs_total, support_size = instance.pair_stats
        factorized = (support_size == 2 * pairs_total) & (mode != "mc")
        totals, at = np.unique(pairs_total[factorized], return_inverse=True)
        self.index: dict = dict(zip(totals.tolist(), range(totals.size)))
        self._fixed = np.full(instance.m, -1, dtype=np.intp)
        self._fixed[factorized] = at
        rest = np.flatnonzero(~factorized)
        q, count = support_size[rest], pairs_total[rest]
        if mode == "exact" and (q > q_cap).any():
            _require_enumerable(int(q[q > q_cap][0]), q_cap)
        drawn = (q > q_cap) if mode == "auto" else np.full(rest.size, mode == "mc")
        _, pairs, _ = instance.clause_table(rest)
        start = np.cumsum(count) - count
        self.mc, self._enumerated = rest[drawn].tolist(), rest[~drawn].tolist()
        # per Monte Carlo clause: its index, q and pair rows (form, a, b, neighbor clause)
        own = [pairs[lo : lo + c, 1:].tolist() for lo, c in zip(start[drawn].tolist(), count[drawn].tolist())]
        self._drawn = list(zip(self.mc, q[drawn].tolist(), own))
        pairs, q, count = pairs[~drawn[pairs[:, 0]]], q[~drawn], count[~drawn]
        start = np.cumsum(count) - count
        # a pair layout is q and the (form, a, b) of every pair: one row per clause, padded with -1
        packed = np.column_stack((q, np.full((count.size, 3 * count.max(initial=0)), -1, dtype=np.intp)))
        of = np.repeat(np.arange(count.size), count)
        packed[of[:, None], 3 * (np.arange(of.size) - start[of])[:, None] + [1, 2, 3]] = pairs[:, 1:4]
        packed = packed.view(f"V{packed.itemsize * packed.shape[1]}").ravel()
        _, first, of_layout = np.unique(packed, return_index=True, return_inverse=True)
        # per layout: q, its forms' pair positions, its pairs with a nonempty gauge row, and those rows
        self._layouts: list[tuple[int, list, list[int]]] = []
        gauge: list[list[list[int]]] = []
        positions = pairs[:, [2, 3, 1]].tolist()  # (a, b, form)
        for q_size, lo, c in zip(q[first].tolist(), start[first].tolist(), count[first].tolist()):
            layout = positions[lo : lo + c]
            pair_rows = _gauge_rows(q_size, layout)
            informative = [e for e, row in enumerate(pair_rows) if row]
            forms = [[pair for pair in layout if pair[2] == i] for i in range(3)]
            self._layouts.append((q_size, forms, informative))
            gauge.append([pair_rows[e] for e in informative])
        # a clause's code rows: itself, then its layout's gauge rows read as the neighbors of their pairs
        neighbors, rows = pairs[:, 4].tolist(), []
        for j, at, lo in zip(self._enumerated, of_layout.tolist(), start.tolist()):
            rows += [[j]] + [[neighbors[lo + f] for f in row] for row in gauge[at]]
        width = max(map(len, rows), default=0)
        padded = [row + [instance.m] * (width - len(row)) for row in rows]
        self.rows = np.array(padded, dtype=np.intp).reshape(len(rows), width)
        sizes = np.array([1 + len(g) for g in gauge], dtype=np.intp)[of_layout]
        # a clause's packed code holds its layout's number in the low bits and its row bits
        # above; bit b is bit b % 63 of its word b // 63, and one word usually holds them all
        self._layout_bits = (len(self._layouts) - 1).bit_length()
        self._words = max([(self._layout_bits + size + 62) // 63 for size in sizes.tolist()], default=1)
        bit = self._layout_bits + np.arange(len(self.rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        column = np.repeat(np.arange(len(sizes)) * self._words, sizes) + bit // 63
        self._shifts = bit % 63
        self._starts = np.flatnonzero(np.diff(column, prepend=-1))
        self._columns = column[self._starts]
        self._base = np.zeros(len(sizes) * self._words, dtype=np.int64)
        self._base[:: self._words] = of_layout

    @cached_property
    def key_of(self) -> tuple[int, ...]:
        return tuple(self.key_indices(self.instance.rhs_array[None, :])[0].tolist())

    @property
    def keys(self) -> tuple:
        self.key_of  # the own signs' keys are met first
        return tuple(self.index)

    def vectors_per_chunk(self) -> int:
        """Sign vectors per :meth:`key_indices` call.

        The call's arrays then hold at most about ``_CODE_CHUNK_BYTES``; a
        chunk whose arrays would not fit in physical memory is refused.
        """
        per_vector = (
            self.rows.size  # the gathered bits of the code rows
            + 17 * len(self.rows)  # the code bits, as uint8 and as shifted int64
            + 8 * self._starts.size  # the words the rows add up to
            + 64 * self._base.size  # the packed codes, their sort and the gather table
            + 9 * (self.instance.m + 1)  # the rhs bits and the key indices
        )
        vectors = max(_CODE_CHUNK_BYTES // per_vector, 1)
        _caps.require_memory(vectors * per_vector, f"the key codes of {vectors} sign vectors")
        return vectors

    def key_indices(self, rhs: np.ndarray) -> np.ndarray:
        """Each clause's index into the keys on every row of a (vectors, m) rhs bit matrix.

        A Monte Carlo clause reads -1. One sort finds the distinct packed
        codes of the chunk; codes not met before are decoded, and keys first
        met here are added.
        """
        bits = np.zeros((len(rhs), self.instance.m + 1), dtype=np.uint8)
        bits[:, :-1] = rhs
        out = np.repeat(self._fixed[None, :], len(rhs), axis=0)
        if not self._enumerated:
            return out
        shifted = term_parity(bits, self.rows).astype(np.int64) << self._shifts
        words = np.zeros((len(rhs), self._base.size), dtype=np.int64)
        words[:, self._columns] = np.add.reduceat(shifted, self._starts, axis=1)
        words += self._base
        packed = words.reshape(-1, self._words)
        if self._words > 1:
            packed = packed.view(f"V{8 * self._words}")
        found, inverse = np.unique(packed[:, 0], return_inverse=True)
        found = found.view(np.int64).reshape(-1, self._words).tolist()
        at = np.array([self._key_index(tuple(code)) for code in found], dtype=np.intp)
        out[:, self._enumerated] = at[inverse].reshape(len(rhs), -1)
        return out

    def _key_index(self, words: tuple[int, ...]) -> int:
        """The index of the key a packed code stands for, decoded on its first meeting."""
        at = self._decoded.get(words)
        if at is None:
            code = sum(word << 63 * i for i, word in enumerate(words))
            q_size, forms, informative = self._layouts[code & ((1 << self._layout_bits) - 1)]
            code >>= self._layout_bits
            signs = [1] * sum(map(len, forms))
            for i, e in enumerate(informative, 1):
                signs[e] = 1 - 2 * (code >> i & 1)
            key = (q_size, _with_signs(forms, signs), 1 - 2 * (code & 1))
            at = self._decoded[words] = self.index.setdefault(key, len(self.index))
        return at

    def _w(self, gamma: float, rhs, row, values, samples: int, seed: int):
        """(W, stderr, Monte Carlo terms) of one sign vector with rhs bits ``rhs``.

        ``row`` indexes each clause's key into ``values``; a Monte Carlo
        clause j takes its pairs' signs from ``rhs`` and is drawn from
        ``(seed, j)``. W is one ``math.fsum``, which is correctly rounded, so
        the order of its inputs does not matter.
        """
        mc = [
            _mc_term(j, q_size, 1 - 2 * int(rhs[j]), [(f, a, b, 1 - 2 * int(rhs[k])) for f, a, b, k in pairs],
                     gamma, samples, [seed, j])
            for j, q_size, pairs in self._drawn
        ]
        total = math.fsum([values[i] for i in row if i >= 0] + [t.value for t in mc])
        return total, math.sqrt(math.fsum(t.stderr**2 for t in mc)), mc

    def total(
        self, gamma: float, mc_samples: int = MC_SAMPLES, seed: int = 0
    ) -> tuple[float, float]:
        """(W(gamma), its standard error) without per-clause terms."""
        values = _key_values(self.keys, gamma, self._histograms)
        return self._w(gamma, self.instance.rhs_array, self.key_of, values, mc_samples, seed)[:2]

    def evaluate(
        self, gamma: float, mc_samples: int = MC_SAMPLES, seed: int = 0
    ) -> ExpectationReport:
        """The full report: one :class:`ClauseTerm` per clause, in order."""
        values = _key_values(self.keys, gamma, self._histograms)
        rhs = self.instance.rhs_array
        total, stderr, mc = self._w(gamma, rhs, self.key_of, values, mc_samples, seed)
        drawn = iter(mc)
        terms = tuple(
            next(drawn) if i < 0 else ClauseTerm(j, values[i], EXACT_METHOD)
            for j, i in enumerate(self.key_of)
        )
        return ExpectationReport(
            n=self.instance.n,
            m=self.instance.m,
            d_bound=self.instance.d_bound,
            gamma=gamma,
            mode=self.mode,
            mc_samples=mc_samples,
            seed=seed,
            total=total,
            stderr=stderr,
            terms=terms,
        )

    def ensemble_w(self, gamma: float, vectors: int, signs) -> np.ndarray:
        """W(gamma) on sign vectors 0 to ``vectors - 1``; ``signs(start, stop)`` gives their rhs rows.

        The vectors go chunk by chunk, and ``values`` grows by the keys a
        chunk adds, each evaluated once. Monte Carlo clauses are drawn as
        :meth:`total` draws them at its defaults.
        """
        _caps.require_memory(8 * vectors, f"W of {vectors} sign vectors")
        w = np.empty(vectors, dtype=np.float64)
        values: list[float] = []
        step = self.vectors_per_chunk()
        for start in range(0, vectors, step):
            rhs = signs(start, min(start + step, vectors))
            key_of = self.key_indices(rhs)
            new = list(islice(self.index, len(values), None))
            values += _key_values(new, gamma, self._histograms)
            for t, (bits, row) in enumerate(zip(rhs, key_of.tolist()), start):
                w[t] = self._w(gamma, bits, row, values, MC_SAMPLES, 0)[0]
        return w


def objective_expectation(
    instance: Instance,
    gamma: float,
    mode: str = "auto",
    q_max: int | None = None,
    mc_samples: int = MC_SAMPLES,
    seed: int = 0,
) -> ExpectationReport:
    """W(gamma): the sum of all clause terms at mixing angle pi/4.

    ``mode`` and ``q_max`` route the clauses as in :class:`EvaluationPlan`.
    Monte Carlo draws are seeded per clause from ``(seed, clause_index)``.
    """
    return EvaluationPlan(instance, mode, q_max).evaluate(gamma, mc_samples, seed)


def _cell_weights(nbhd: Neighborhood, q_max: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Histogram cells of the forms and their probabilities under uniform spins."""
    _require_enumerable(nbhd.q_size, q_max)
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
