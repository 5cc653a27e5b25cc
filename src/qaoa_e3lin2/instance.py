"""Bounded-occurrence Max E3LIN2 instances.

An instance is a set of parity equations, each over exactly three distinct
boolean variables: ``x_a + x_b + x_c = rhs (mod 2)`` with ``rhs`` in {0, 1}.
In spin variables ``z_v = (-1)^{x_v}`` an equation with sign
``d = (-1)^rhs`` is satisfied exactly when ``z_a z_b z_c = d``, so the
number of satisfied equations is ``m/2 + objective_value`` where the
objective is ``(1/2) sum_clauses d * z_a z_b z_c``.

The occurrence parameter ``d_bound`` is derived: with every variable in at
most ``d_bound + 1`` clauses, each variable of a focal clause meets at most
``d_bound`` other clauses.

File format (text, UTF-8, LF newlines)::

    e3lin2 <n> <m>
    <a> <b> <c> <rhs>     (m lines, 0 <= a < b < c < n, rhs in {0, 1})

:func:`parse` reads the body as one array, checks its rows with the row
check :func:`validate` reads, and keeps a text only if :func:`serialize`
writes it back.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _caps

SIGN_MODES = ("uniform-random", "all-zero-rhs")

#: The largest variable index or count an instance can hold (numpy's intp).
_INDEX_MAX = int(np.iinfo(np.intp).max)


class InfeasibleError(ValueError):
    """Requested generator parameters cannot produce a valid instance."""


class RetryExhaustedError(RuntimeError):
    """Random generation gave up before placing all requested triples."""


class ParseError(ValueError):
    """Instance text is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message}, line {line}")
        self.line = line


@dataclass(frozen=True)
class Clause:
    """One parity equation on the variable triple (a, b, c)."""

    a: int
    b: int
    c: int
    rhs: int

    def __post_init__(self):
        if self.rhs not in (0, 1):
            raise ValueError(f"rhs must be 0 or 1, got {self.rhs}")

    def __iter__(self):  # a clause reads as its row (a, b, c, rhs)
        return iter((self.a, self.b, self.c, self.rhs))

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    @property
    def sign(self) -> int:
        """Equation sign: +1 for rhs=0, -1 for rhs=1."""
        return 1 - 2 * self.rhs


@dataclass(frozen=True, eq=False)
class Assignment:
    """A boolean assignment with bit and spin views."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.ndim != 1 or not np.isin(arr, (0, 1)).all():  # checked before a cast can wrap 257 to 1
            raise ValueError("bits must be a flat vector over {0, 1}")
        arr = np.array(arr, dtype=np.uint8)  # a copy: the caller's own array stays writable
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @property
    def n(self) -> int:
        return self.bits.size

    @property
    def spins(self) -> np.ndarray:
        """Spin view z_v = (-1)^bits[v], values in {+1, -1}."""
        return (1 - 2 * self.bits.astype(np.int8)).astype(np.int8)

    @classmethod
    def from_string(cls, text: str) -> "Assignment":
        return cls(np.fromiter((int(ch) for ch in text), dtype=np.uint8, count=len(text)))

    def to_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash((self.bits.size, self.bits.tobytes()))

    def __repr__(self):
        return f"Assignment({self.to_string()!r})"


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending: one sort and an adjacent-repeat mask."""
    codes = np.sort(codes)
    new = np.ones(codes.size, dtype=bool)
    new[1:] = codes[1:] != codes[:-1]
    return codes[new]


#: Bytes :func:`_overlap_table` holds at its peak per shared incidence: its int64 code, the
#: code's low bits and row-start flag, and its other clause (int32, or int64 from m = 2^28).
_OVERLAP_BYTES_PER_PAIR = 18


def _inside(mask: np.ndarray) -> np.ndarray:
    """The (len(mask), 3) bool flags of the triple positions each 3-bit mask holds."""
    return (mask[:, None] >> np.arange(3, dtype=mask.dtype) & 1).astype(bool)


def _incidence_codes(ids: np.ndarray, tags: np.ndarray, pairs: int, longest: int, m: int) -> np.ndarray:
    """The int64 codes ``(focal * m + other) * 8 + 2^y`` of every shared incidence, both ways round.

    ``ids`` and ``tags`` are the variable ranks and the tags (clause times 8
    plus the bit of the position) of the variable-sorted entries; entries s
    apart with one rank share a variable, for s below the ``longest`` run.
    The codes are written in place into one array of the ``pairs`` counted
    from the run lengths, and cut to those made: a clause that meets itself
    through a repeated variable gives none.
    """
    codes, filled = np.empty(pairs, dtype=np.int64), 0
    for s in range(1, longest):
        same = ids[s:] == ids[:-s]
        a, b = tags[:-s][same], tags[s:][same]
        apart = (a >> 3) != (b >> 3)
        if not apart.all():
            a, b = a[apart], b[apart]
        for focal, other in ((a, b), (b, a)):
            out = codes[filled : filled + focal.size]
            np.right_shift(focal, 3, out=out)
            out *= 8 * m
            out += other
            filled += focal.size
    return codes[:filled]


def _overlap_table(triples: np.ndarray) -> tuple[np.ndarray, ...]:
    """(rank, indptr, other, mask) of an (m, 3) triple array, from one argsort of its entries.

    ``rank`` holds each entry's rank among the distinct variables, in the
    array's shape. The table has one row per ordered pair of distinct
    clauses sharing a variable, sorted by (focal, other) and kept as CSR:
    clause j's rows are ``indptr[j]:indptr[j + 1]`` of ``other``, and bit y
    of ``mask`` tells whether variable y of the row's other triple is in its
    focal triple. Entries s apart in the variable-sorted incidence that hold
    one variable are a shared incidence pair; each gives the code
    ``(focal * m + other) * 8 + 2^y`` in both directions, and the bits of
    one row's codes OR into its mask. A variable in c clauses gives c(c - 1)
    codes, so their count is known, and refused if too large, before any is
    made. The index arrays (ranks, tags, ``indptr``, ``other``) are int32
    while 8m fits in it; the codes fit in int64 while 8m^2 does.
    """
    m, flat = len(triples), triples.ravel()
    index = np.int32 if 8 * m <= np.iinfo(np.int32).max else np.intp
    order = np.argsort(flat)
    variables = flat[order]
    ids = np.zeros(flat.size, dtype=index)
    np.not_equal(variables[1:], variables[:-1], out=ids[1:])
    del variables
    np.cumsum(ids, out=ids)  # each sorted entry's variable rank
    rank = np.empty(flat.size, dtype=index)
    rank[order] = ids
    runs = np.bincount(ids)
    pairs, longest = int((runs * (runs - 1)).sum()), int(runs.max(initial=1))
    del runs
    _caps.require_memory(pairs * _OVERLAP_BYTES_PER_PAIR, f"the overlap table of {pairs} shared incidences")
    # an entry's tag: its clause times 8 plus the bit of its position
    tags = ((np.arange(m, dtype=index)[:, None] << 3) | np.array([1, 2, 4], dtype=index)).ravel()[order]
    del order
    codes = _incidence_codes(ids, tags, pairs, longest, m)
    del ids, tags
    codes.sort()
    low = np.bitwise_and(codes, 7, out=np.empty(codes.size, dtype=np.uint8), casting="unsafe")
    codes >>= 3  # focal * m + other
    new = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    repeats = np.flatnonzero(~new)  # codes of the row before theirs
    bounds = np.searchsorted(codes, np.arange(m + 1, dtype=np.int64) * m)
    indptr = (bounds - np.searchsorted(repeats, bounds)).astype(index)
    other = np.remainder(codes, m, out=np.empty(codes.size, dtype=index))
    del codes
    other, mask = other[new], low[new]
    # the i-th repeat at position p belongs to row p - i - 1
    np.bitwise_or.at(mask, repeats - np.arange(1, repeats.size + 1), low[repeats])
    return rank.reshape(triples.shape), indptr, other, mask


#: Overlap rows :func:`_pair_counts` reads at a time, in whole clauses. Read at call time.
_STATS_BLOCK = 1 << 12


def _pair_counts(rank: np.ndarray, indptr: np.ndarray, other: np.ndarray, mask: np.ndarray):
    """Each clause's pair total P and support size q, from the overlap table's rows with one bit set.

    P counts a clause's rows whose mask has one bit. q counts the distinct
    variables at the two positions outside those masks, as codes
    ``focal * rank.size + rank``, which multiply no label. The rows are read
    a block of whole clauses at a time, ``_STATS_BLOCK`` rows or fewer unless
    one clause alone has more, so the temporaries stay small.
    """
    m, size, width = len(indptr) - 1, _STATS_BLOCK, rank.size
    pairs, support = np.zeros(m, dtype=np.intp), np.zeros(m, dtype=np.intp)
    start = 0
    while start < m:
        stop = max(int(np.searchsorted(indptr, indptr[start] + size, side="right")) - 1, start + 1)
        lo, hi = indptr[[start, stop]].tolist()
        masks = mask[lo:hi]
        single = (masks & (masks - 1)) == 0
        focal = np.repeat(np.arange(stop - start), np.diff(indptr[start : stop + 1]))[single]
        brought = rank[other[lo:hi][single]][~_inside(masks[single])]
        codes = _distinct(np.repeat(focal, 2) * width + brought)
        pairs[start:stop] = np.bincount(focal, minlength=stop - start)
        support[start:stop] = np.bincount(codes // width, minlength=stop - start)
        start = stop
    return pairs, support


def _clause_table(triples: np.ndarray, indptr, other, mask, clauses: np.ndarray) -> tuple[np.ndarray, ...]:
    """The sign-free neighborhoods of ``clauses``, from their rows of the overlap table.

    Returns rows (position, variable) of each clause's support, variables
    ascending; (position, form, a, b, k) of its pairs, by form, then by k; and
    (position, k) of its cancelled clauses; position indexes ``clauses``. A
    clause k with one variable inside adds its other two, in triple order and
    as support positions, as a pair of the form of the first focal position
    holding that one; with two inside it is cancelled, with three ignored.
    """
    lo = indptr[clauses]
    counts = indptr[clauses + 1] - lo
    focal = np.repeat(np.arange(clauses.size), counts)
    rows = np.arange(focal.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)  # the clauses' CSR rows
    inside, k = _inside(mask[rows]), other[rows]
    overlap = inside.sum(1)
    cancelled = np.column_stack((focal, k))[overlap == 2]
    one = overlap == 1
    focal, k, inside = focal[one], k[one], inside[one]
    theirs = triples[k]
    form = np.argmax(triples[clauses[focal]] == theirs[inside][:, None], axis=1)
    # the brought variables by (clause, variable), and each one's rank in its clause's support
    brought, of = theirs[~inside], np.repeat(focal, 2)
    order = np.lexsort((brought, of))
    brought, of = brought[order], of[order]
    new = np.ones(brought.size, dtype=bool)
    new[1:] = (brought[1:] != brought[:-1]) | (of[1:] != of[:-1])
    at = np.empty_like(order)
    at[order] = np.cumsum(new) - 1 - np.searchsorted(of[new], of)
    pairs = np.column_stack((focal, form, at.reshape(-1, 2), k))
    return np.column_stack((of, brought))[new], pairs[np.argsort(focal * 3 + form, kind="stable")], cancelled


def _read_only(values, dtype=None) -> np.ndarray:
    """``values`` as a read-only contiguous array, copied unless it already is one of ``dtype``."""
    out = np.ascontiguousarray(values, dtype=dtype)
    out.setflags(write=False)
    return out


class Instance:
    """An E3LIN2 instance: n variables and m clauses in two read-only arrays, equal when n and rows are.

    ``triple_array`` (m, 3, intp) holds the triples and ``rhs_array`` (m,
    uint8) the right-hand sides, read from :class:`Clause` objects or
    ``(a, b, c, rhs)`` rows. The :class:`Clause` view, the occurrence bound,
    the table of clause pairs that share a variable, and each clause's pair
    total and support size (read from that table) are built on first use and
    kept; :meth:`clause_table` groups any clauses' rows of that table when read.
    """

    def __init__(self, n: int, clauses: Iterable[Clause | tuple[int, int, int, int]]):
        rows = np.array([tuple(row) for row in clauses], dtype=np.intp)
        if rows.size and (rows.ndim != 2 or rows.shape[1] != 4):
            raise ValueError(f"clauses must be (a, b, c, rhs) rows, an (m, 4) array; got shape {rows.shape}")
        rows = rows.reshape(-1, 4)
        self._hold(n, rows[:, :3], rows[:, 3])

    @classmethod
    def _from_arrays(cls, n: int, triples: np.ndarray, rhs: np.ndarray) -> Instance:
        return cls.__new__(cls)._hold(n, triples, rhs)

    def _hold(self, n: int, triples: np.ndarray, rhs: np.ndarray) -> Instance:
        if rhs.shape != (len(triples),):
            raise ValueError(f"rhs must have shape ({len(triples)},), a bit per triple row; got {rhs.shape}")
        bad = rhs[(rhs != 0) & (rhs != 1)]
        if bad.size:
            raise ValueError(f"rhs must be 0 or 1, got {bad[0]}")
        self.n = n
        self.triple_array = _read_only(triples, np.intp)
        self.rhs_array = _read_only(rhs, np.uint8)
        return self

    def _key(self) -> tuple[int, bytes, bytes]:
        return self.n, self.triple_array.tobytes(), self.rhs_array.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, Instance) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _rows(self) -> list[tuple[int, int, int, int]]:
        return list(map(tuple, np.column_stack((self.triple_array, self.rhs_array)).tolist()))

    def __repr__(self):
        return f"Instance(n={self.n}, clauses={self._rows()!r})"

    @property
    def m(self) -> int:
        return self.rhs_array.size

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        """The clauses as :class:`Clause` objects, built on first use."""
        return tuple(Clause(*row) for row in self._rows())

    @cached_property
    def _overlaps(self) -> tuple[np.ndarray, ...]:
        """:func:`_overlap_table`'s (indptr, other, mask), then the two :attr:`pair_stats` counts."""
        rank, *table = _overlap_table(self.triple_array)
        return *table, *map(_read_only, _pair_counts(rank, *table))

    @property
    def pair_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Each clause's pair total P and support size q, as two read-only (m,) arrays.

        P counts the clauses that share exactly one variable with clause j,
        and q the distinct variables they bring from outside its triple: the
        term factorizes when q = 2P. Both count the overlap rows with one
        variable inside, as clause j's pair and support rows of
        :meth:`clause_table` do.
        """
        return self._overlaps[3:]

    def clause_table(self, clauses: np.ndarray) -> tuple[np.ndarray, ...]:
        """:func:`_clause_table` of ``clauses``: their (support, pairs, cancelled) rows.

        Refuses, with an ``IndexError`` naming the first, any index outside [0, m).
        """
        clauses = np.asarray(clauses, dtype=np.intp)
        outside = clauses[(clauses < 0) | (clauses >= self.m)]
        if outside.size:
            raise IndexError(f"clause_index {outside[0]} out of range for m={self.m}")
        return _clause_table(self.triple_array, *self._overlaps[:3], clauses)

    @cached_property
    def d_bound(self) -> int:
        """Smallest D with every variable in at most D+1 clauses; out-of-range entries are skipped.

        Counted over the variables in use, so nothing of length n is built.
        """
        flat = self.triple_array.ravel()
        values = np.sort(flat[(flat >= 0) & (flat < self.n)])
        starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
        return max(int(np.diff(starts, append=values.size).max()) - 1, 0)

    def triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(map(tuple, self.triple_array.tolist()))


@dataclass(frozen=True)
class Violation:
    kind: str
    clause_index: int
    message: str


def _row_faults(instance: Instance) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """The one row check of an instance's triples, for :func:`validate` and :func:`parse`.

    Returns two (m,) masks, the rows not strictly increasing and the rows
    holding an index outside [0, n), and a dict that maps each row
    repeating an earlier row's triple to the first row holding it. Repeats
    are found by one argsort of the rows read as bytes and an adjacent
    compare, not by ``np.unique``, whose first call on such an array imports
    ``numpy.ma``. The sort is not stable (a stable one raised the peak RSS
    of ``eval --compare-statevector`` at n=20 by about 0.14 MB), so the
    first row of a run of equal rows is its least.
    """
    triples = instance.triple_array
    unsorted = (triples[:, 0] >= triples[:, 1]) | (triples[:, 1] >= triples[:, 2])
    outside = (triples.min(axis=1) < 0) | (triples.max(axis=1) >= instance.n)
    keys = triples.view(np.dtype((np.void, 3 * triples.itemsize))).ravel()
    order = np.argsort(keys)
    keys = keys[order]
    runs: defaultdict[bytes, set[int]] = defaultdict(set)
    for p in np.flatnonzero(keys[1:] == keys[:-1]).tolist():
        runs[keys[p].tobytes()].update(order[p : p + 2].tolist())
    first = {row: min(rows) for rows in runs.values() for row in rows if row != min(rows)}
    return unsorted, outside, first


def validate(instance: Instance) -> list[Violation]:
    """Collect every invariant violation; an empty list means well-formed.

    Read from :func:`_row_faults`: per clause, in clause order, an unsorted
    triple, then an index out of range, then a repeat of an earlier clause.
    """
    n, triples = instance.n, instance.triple_array
    unsorted, outside, first = _row_faults(instance)
    out: list[Violation] = []
    for i in sorted({*np.flatnonzero(unsorted | outside).tolist(), *first}):
        triple = tuple(triples[i].tolist())
        if unsorted[i]:
            out.append(Violation("unsorted-triple", i, f"clause {i}: triple {triple} is not strictly increasing"))
        if outside[i]:
            out.append(Violation("index-out-of-range", i, f"clause {i}: triple {triple} outside [0, {n})"))
        if i in first:
            out.append(Violation("duplicate-triple", i, f"clause {i}: triple {triple} repeats clause {first[i]}"))
    return out


def term_parity(bits: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """XOR of the columns of a (..., width) bit array at each row of a (t, k) index array.

    The one parity kernel of the package: returns a (..., t) array in the
    dtype of ``bits``, whose entry t is the parity of the k bits that row t
    of ``terms`` names.
    """
    return np.bitwise_xor.reduce(np.asarray(bits)[..., terms], axis=-1)


def clause_parity(instance: Instance, bits: np.ndarray) -> np.ndarray:
    """Parity x_a ^ x_b ^ x_c of every clause on every row of a (..., n) bit array.

    Returns a (..., m) array in the dtype of ``bits``; a clause holds on a
    row where its parity equals its rhs.
    """
    return term_parity(bits, instance.triple_array)


def code_bits(codes: np.ndarray, n: int) -> np.ndarray:
    """(len(codes), n) uint8 matrix whose row i holds bit v of codes[i] in column v."""
    return ((np.asarray(codes, dtype=np.int64)[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def _signs(codes: np.ndarray, width: int, terms: np.ndarray) -> np.ndarray:
    """The (len(codes), t) float64 matrix of (-1)^parity of each term on each code."""
    return 1.0 - 2.0 * term_parity(code_bits(codes, width), terms)


def parity_grid(
    terms: np.ndarray, weights: np.ndarray, width: int, high: np.ndarray, low: np.ndarray
) -> np.ndarray:
    """The sum over t of w_t (-1)^parity_t on every code ``high[i] | low[j]``.

    ``terms`` is a (t, k) array of bit positions below ``width`` and
    ``weights`` its (t,) weights; ``high`` and ``low`` must use disjoint
    bits. A term's parity on ``high | low`` is then the XOR of its parities
    on the two parts, so its +-1 sign is a product and the grid is one
    product of a weighted +-1 matrix and a +-1 matrix with t columns. With
    integer weights every partial sum is an integer, so the float64 product
    is exact whatever order BLAS adds in (while the sums stay below 2^53).
    """
    return (_signs(high, width, terms) * weights) @ _signs(low, width, terms).T


#: Entries a block of :func:`parity_blocks` holds at most, in its grid and in
#: each +-1 matrix (unless one code's row alone is longer). Read at call time.
_PARITY_BLOCK = 1 << 16


def parity_blocks(terms: np.ndarray, weights: np.ndarray, width: int):
    """Yield ``(first_code, grid)`` blocks of :func:`parity_grid` over all 2^width codes.

    The codes split into a low half of ``2^low`` codes, whose +-1 matrix is
    built once, and high codes taken a few rows at a time: entry ``(i, j)``
    of a block's grid is code ``first_code + i * 2^low + j``, so the blocks,
    read row by row, give every code once in increasing order. ``weights``
    may be a (K, t) stack: the grid is then (K, rows, 2^low), row k weighted
    by ``weights[k]``, and a block takes K times fewer high codes.
    """
    codes = max(_PARITY_BLOCK // max(len(terms), 1), 1)
    low = min(width // 2, codes.bit_length() - 1)
    rows = max(min(_PARITY_BLOCK >> low, codes) // len(np.atleast_2d(weights)), 1)
    lo = _signs(np.arange(1 << low), width, terms).T
    highs = np.arange(1 << (width - low)) << low
    for start in range(0, highs.size, rows):
        high = highs[start : start + rows]
        yield int(high[0]), (_signs(high, width, terms) * weights[..., None, :]) @ lo


def clause_sum_blocks(instance: Instance, width: int):
    """Yield ``(first_code, grid)`` blocks of twice the objective over all 2^width codes.

    An entry, satisfied minus unsatisfied clauses, sums at most m integers, so
    it is exact; bits from ``instance.n`` up change nothing.
    """
    return parity_blocks(instance.triple_array, 1.0 - 2.0 * instance.rhs_array, width)


def satisfied_count(instance: Instance, assignment: Assignment) -> int:
    """Number of clauses with bits[a]+bits[b]+bits[c] = rhs (mod 2)."""
    if assignment.n != instance.n:
        raise ValueError(f"assignment length {assignment.n} != instance n {instance.n}")
    return int(np.count_nonzero(clause_parity(instance, assignment.bits) == instance.rhs_array))


def objective_value(instance: Instance, assignment: Assignment) -> float:
    """(1/2) sum over clauses of sign * z_a z_b z_c; half-integer in [-m/2, m/2]."""
    return (2 * satisfied_count(instance, assignment) - instance.m) / 2.0


#: Attempts :func:`generate_random` draws at a time. Read at call time.
_CHOICE_BLOCK = 1024


def _floyd(n: int, a: int, b: int, c: int, k2: int, k1: int) -> list[int]:
    """Floyd's sample of 3 from draws on [0, n-3], [0, n-2], [0, n-1], then its shuffle.

    A draw already taken is replaced by the top of its range; ``k2`` and
    ``k1`` (draws on [0, 2] and [0, 1]) are the swaps of ``choice``'s shuffle.
    """
    if b == a:
        b = n - 2
    if c == a or c == b:
        c = n - 1
    picked = [a, b, c]
    picked[k2], picked[2] = picked[2], picked[k2]
    picked[k1], picked[1] = picked[1], picked[k1]
    return picked


def _choices(rng: np.random.Generator, n: int, count: int) -> Iterator[list[int]]:
    """What ``count`` calls of ``rng.choice(n, 3, replace=False)`` return, drawn in one call.

    For a sample of 3, ``choice`` draws on [0, n-3], [0, n-2] and [0, n-1]
    for Floyd's algorithm, then on [0, 2] and [0, 1] for its shuffle, each by
    the bounded draw that ``integers`` makes for an array of upper bounds, so
    ``rng`` is left where those calls leave it. The samples are built lazily.
    """
    draws = rng.integers(0, np.tile([n - 2, n - 1, n, 3, 2], count), dtype=np.int64)
    return (_floyd(n, *row) for row in draws.reshape(count, 5).tolist())


def generate_random(
    n: int,
    m: int,
    d_bound: int,
    sign_mode: str = "uniform-random",
    seed: int = 0,
) -> Instance:
    """Draw a valid instance with m unique sorted triples, occurrence <= d_bound+1.

    Triples are placed by rejection sampling (a draw is rejected when it
    repeats an existing triple or would push a variable past its occurrence
    cap), so the triple distribution is uniform enough for testing but not
    canonical. Deterministic for a fixed seed.

    Each attempt draws exactly what ``Generator.choice(n, 3, replace=False)``
    of ``default_rng(seed)`` would: :func:`_choices` draws a block of
    ``_CHOICE_BLOCK`` attempts in one ``integers`` call, and when placement
    ends inside a block the generator is rewound to the block's start and
    only the attempts used are drawn again. The rhs bits then come from the
    generator in the state ``choice`` would have left. ``tests/test_instance.py``
    checks the draws and that state against ``choice`` (``TestChoiceReader``)
    and the whole instance against the loop over ``choice``
    (``test_matches_the_placement_loop_over_choice``, also at blocks of 1, 2 and 7).
    """
    if sign_mode not in SIGN_MODES:
        raise ValueError(f"sign_mode must be one of {SIGN_MODES}, got {sign_mode!r}")
    if n < 0 or m < 0 or d_bound < 0:
        raise InfeasibleError(f"n, m, d_bound must be non-negative, got ({n}, {m}, {d_bound})")
    # a limit gen has always kept: integers draws as choice does above it too,
    # but lifting it would change which inputs gen accepts
    if n > 2**32:
        raise InfeasibleError(f"n must be at most 2**32 = {2**32}, got {n}")
    if m > 0 and n < 3:
        raise InfeasibleError(f"need at least 3 variables for any clause, got n={n}")
    if 3 * m > n * (d_bound + 1):
        raise InfeasibleError(
            f"{3 * m} variable slots needed but only {n * (d_bound + 1)} available "
            f"(n={n}, m={m}, D={d_bound})"
        )
    if n >= 3 and m > math.comb(n, 3):
        raise InfeasibleError(f"m={m} exceeds the {math.comb(n, 3)} distinct triples on n={n}")

    rng = np.random.default_rng(seed)
    budget = 1000 * m
    cap = d_bound + 1
    counts: defaultdict[int, int] = defaultdict(int)  # of the variables in use only
    chosen: dict[tuple[int, int, int], None] = {}  # ordered, and a set of the triples
    attempts = stall = 0
    while len(chosen) < m:
        if attempts >= budget:
            raise RetryExhaustedError(
                f"placed {len(chosen)} of {m} triples in {budget} attempts (n={n}, D={d_bound})"
            )
        if stall >= 200:
            # greedy placement wedged (tight packings can leave no legal
            # triple); restart from scratch on the shared budget
            counts.clear()
            chosen.clear()
            stall = 0
        if attempts % _CHOICE_BLOCK == 0:
            start, draws = rng.bit_generator.state, _choices(rng, n, _CHOICE_BLOCK)
        attempts += 1
        a, b, c = triple = tuple(sorted(next(draws)))
        if triple in chosen or counts[a] >= cap or counts[b] >= cap or counts[c] >= cap:
            stall += 1
            continue
        stall = 0
        chosen[triple] = None
        counts[a] += 1
        counts[b] += 1
        counts[c] += 1
    if attempts % _CHOICE_BLOCK:  # ended inside a block: redraw only the attempts made of it
        rng.bit_generator.state = start
        _choices(rng, n, attempts % _CHOICE_BLOCK)

    rhs = np.zeros(m, dtype=np.uint8) if sign_mode == "all-zero-rhs" else rng.integers(0, 2, size=m)
    return Instance._from_arrays(n, np.array(list(chosen), dtype=np.intp).reshape(m, 3), rhs)


def random_rhs(m: int, seed: int | Sequence[int] = 0) -> np.ndarray:
    """m independent uniform rhs bits: ``integers(0, 2, m)`` of ``default_rng(seed)``."""
    return np.random.default_rng(seed).integers(0, 2, size=m)


def resample_signs(instance: Instance, seed: int | Sequence[int] = 0) -> Instance:
    """Same triples, every rhs redrawn by :func:`random_rhs`."""
    return with_signs(instance, random_rhs(instance.m, seed))


def with_signs(instance: Instance, rhs_bits: Iterable[int]) -> Instance:
    """Same triples, the source's own array, with an explicit rhs vector."""
    rhs = np.array(list(rhs_bits))
    if len(rhs) != instance.m:
        raise ValueError(f"need {instance.m} rhs bits, got {len(rhs)}")
    return Instance._from_arrays(instance.n, instance.triple_array, rhs)


def _require_lf(raw: str, line: int) -> None:
    """Refuse a line that ends in a carriage return, naming its CRLF line ending."""
    if raw.endswith("\r"):
        raise ParseError(f"CRLF line ending in {raw!r}, expected LF", line)


def parse(text: str) -> Instance:
    """Parse the instance file format; raises ParseError with a line number.

    The header and the line count are checked first. The body is read as
    one (m, 4) array whose rows are checked at once, and the text is
    accepted only if :func:`serialize` writes it back exactly, up to one
    optional final LF: that compare, made a block of rows at a time by
    :func:`_writes_back`, holds every line to what serialize writes of it,
    so the lenient reader lets nothing else through. Otherwise the text is
    split into lines and :func:`_refuse_body` names the first bad line.
    """
    if not text:
        raise ParseError("empty input", 1)
    header, _, body = text.partition("\n")
    lines = text.count("\n") + (not text.endswith("\n"))  # an optional final LF ends no line

    _require_lf(header, 1)
    head = header.split(" ")
    if len(head) != 3 or head[0] != "e3lin2":
        raise ParseError(f"malformed header {header!r}, expected 'e3lin2 <n> <m>'", 1)
    # int() also reads "+2", "02", "1_0" and non-ASCII digits, which
    # serialize never writes: a line must equal what serialize writes of it
    try:
        n, m = int(head[1]), int(head[2])
        if header != f"e3lin2 {n} {m}":
            raise ValueError
    except ValueError:
        raise ParseError(f"malformed header {header!r}, counts must be integers", 1) from None
    if n < 0 or m < 0:
        raise ParseError("header counts must be non-negative", 1)
    # with n in range every index below it is too, so no clause line can overflow
    if max(n, m) > _INDEX_MAX:
        raise ParseError(f"header counts must be at most {_INDEX_MAX}", 1)
    if lines - 1 != m:  # named at the first missing or the first extra line
        raise ParseError(f"expected {m} clause lines, found {lines - 1}", min(lines, m + 1) + 1)

    inst = _read_body(body, n, m)
    if inst is None or not _writes_back(body, inst):
        _refuse_body(body.split("\n")[:m], n)
    return inst


def _read_body(body: str, n: int, m: int) -> Instance | None:
    """The m clause rows of ``body`` as an instance, or None if any row fails a check.

    The reader is lenient (any whitespace, signs, leading zeros, clipping at
    the intp bounds); :func:`parse` refuses what it lets through by
    comparing against :func:`serialize`.
    """
    with warnings.catch_warnings():
        # older numpy warns on a token it cannot read, where newer numpy raises
        warnings.simplefilter("error", DeprecationWarning)
        try:
            flat = np.fromstring(body, dtype=np.intp, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    if flat.size != 4 * m:
        return None
    rows = flat.reshape(m, 4)
    try:
        inst = Instance._from_arrays(n, rows[:, :3], rows[:, 3])
    except ValueError:  # an rhs outside {0, 1}
        return None
    del flat, rows  # the instance holds its own copies; the row check runs without these
    unsorted, outside, first = _row_faults(inst)
    return None if first or unsorted.any() or outside.any() else inst


def _refuse_body(lines: list[str], n: int) -> None:
    """Raise the :class:`ParseError` of the first bad clause line, the first at line 2."""
    seen: dict[tuple[int, int, int], int] = {}
    for i, raw in enumerate(lines, start=2):
        _require_lf(raw, i)
        tokens = raw.split(" ")
        if len(tokens) != 4 or any(t == "" for t in tokens):
            raise ParseError(f"bad clause line {raw!r}", i)
        try:
            a, b, c, rhs = (int(t) for t in tokens)
            if raw != f"{a} {b} {c} {rhs}":
                raise ValueError
        except ValueError:
            raise ParseError(f"bad token in {raw!r}", i) from None
        if rhs not in (0, 1):
            raise ParseError(f"rhs must be 0 or 1, got {rhs}", i)
        if not (a < b < c):
            raise ParseError(f"unsorted triple ({a}, {b}, {c})", i)
        if a < 0 or c >= n:
            raise ParseError(f"variable index outside [0, {n}) in ({a}, {b}, {c})", i)
        if (a, b, c) in seen:
            raise ParseError(f"duplicate triple ({a}, {b}, {c}), first at line {seen[(a, b, c)]}", i)
        seen[(a, b, c)] = i
    raise AssertionError("the body was refused, yet every clause line is well formed")


#: Rows that :func:`serialize` formats, and :func:`parse` compares, at a time. Read at call time.
_COMPARE_BLOCK = 1024


def _row_blocks(instance: Instance) -> Iterator[str]:
    """The clause lines of ``instance``, one ``a b c rhs`` line per row, ``_COMPARE_BLOCK`` rows a string."""
    size, triples, rhs = _COMPARE_BLOCK, instance.triple_array, instance.rhs_array
    for i in range(0, instance.m, size):
        rows = np.column_stack((triples[i : i + size], rhs[i : i + size]))
        yield ("{} {} {} {}\n" * len(rows)).format(*rows.ravel().tolist())


def _writes_back(body: str, instance: Instance) -> bool:
    """Whether ``body`` is the clause lines :func:`serialize` writes of ``instance``, its last LF optional.

    Each block of :func:`_row_blocks` is compared in place with the matching
    slice of ``body``, so no second whole text is built (a body without its
    final LF is copied once, to add it).
    """
    if body and not body.endswith("\n"):
        body += "\n"
    pos = 0
    for block in _row_blocks(instance):
        if not body.startswith(block, pos):
            return False
        pos += len(block)
    return pos == len(body)


def serialize(instance: Instance) -> str:
    """Emit the file format bit-exactly: header plus one line per clause, formatted a block of rows at a time."""
    return "".join([f"e3lin2 {instance.n} {instance.m}\n", *_row_blocks(instance)])
