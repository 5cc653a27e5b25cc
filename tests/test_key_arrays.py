"""A plan's keys handled as arrays, against the per-key code they replaced.

The reference functions here are the evaluation the package used before:
``reference_key_value`` evaluates one key with its own four-sine bracket,
``reference_walk_counts`` walks one row of weights, and ``reference_keys``
walks every clause's gauge forest and decodes each clause's code bits on
their own. The plan now evaluates all the keys of an angle with one bracket,
counts the keys of one pair layout in one ``_component_counts`` call, and
packs each clause's code bits into integers before one sort. Every value
must come out bitwise equal (``==``, signs of zeros included), every
histogram equal in dtype and entries, and every clause must read the same
key.
"""

import math
import tracemalloc
from collections import Counter
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoa_e3lin2 import _caps, analytic
from qaoa_e3lin2 import instance as instance_module
from qaoa_e3lin2.analytic import EvaluationPlan, SupportTooLargeError, _gauge_rows, _with_signs
from qaoa_e3lin2.instance import (
    Clause,
    Instance,
    code_bits,
    parity_blocks,
    resample_signs,
    term_parity,
)
from qaoa_e3lin2.typical import base_instance

from conftest import instances
from test_histogram_kernel import ENTANGLED, assert_same, component_forms, loop_histogram
from test_instance import reference_topologies
from test_topology import OCTET

GAMMAS = (0.0, 1e-7, -0.3, 0.33, math.pi / 2)

#: Supports up to this size are walked whole by ``reference_histogram``; larger ones go by
#: component, one weight row at a time.
REFERENCE_MAX_WALKED_Q = 12

#: Six variable-disjoint copies of the octet: 48 enumerated clauses in a few pair layouts.
TILED = base_instance([(a + 8 * i, b + 8 * i, c + 8 * i) for i in range(6) for a, b, c in OCTET])


def reference_pair_terms(forms, scales):
    terms = np.array([(a, b) for form in forms for a, b, _ in form], dtype=np.intp).reshape(-1, 2)
    weights = np.array(
        [s * scale for form, scale in zip(forms, scales) for _, _, s in form], dtype=np.float64
    )
    return terms, weights


def reference_walk_counts(terms, weights, width):
    span = int(np.abs(weights).sum())
    hist = np.zeros(2 * span + 1, dtype=np.int64)
    for _, grid in parity_blocks(terms, weights, width):
        grid += span
        hist += np.bincount(grid.astype(np.intp).ravel(), minlength=hist.size)
    return hist


def reference_histogram(q_size, forms):
    if q_size > 62:
        raise SupportTooLargeError(f"q={q_size}: the counts of 2^q assignments overflow int64")
    p1, p2, p3 = (len(f) for f in forms)
    dims = (2 * p1 + 1, 2 * p2 + 1, 2 * p3 + 1)
    terms, weights = reference_pair_terms(forms, (dims[1] * dims[2], dims[2], 1))
    if q_size <= REFERENCE_MAX_WALKED_Q:
        hist = reference_walk_counts(terms, weights, q_size)
    else:
        hist = analytic._component_counts(terms, weights[None, :], q_size)[0]
    occupied = np.nonzero(hist)[0]
    counts = hist[occupied]
    v1, rem = np.divmod(occupied, dims[1] * dims[2])
    v2, v3 = np.divmod(rem, dims[2])
    return np.stack([v1 - p1, v2 - p2, v3 - p3], axis=1), counts


def reference_four_sine_bracket(gamma, d, c1, c2, c3):
    total = None
    for s1, s2, s3 in analytic.SIGN_PATTERNS:
        term = np.sin(gamma * (d + s1 * c1 + s2 * c2 + s3 * c3))
        total = term if total is None else total + term
    return total


def reference_key_value(key, gamma):
    if isinstance(key, int):
        return 0.5 * math.sin(gamma) * math.cos(gamma) ** key
    q_size, forms, d = key
    values, counts = reference_histogram(q_size, forms)
    bracket = reference_four_sine_bracket(gamma, d, values[:, 0], values[:, 1], values[:, 2])
    mean = float(np.dot(counts.astype(np.float64), bracket)) / float(1 << q_size)
    return d / 8.0 * mean


def reference_keys(plan, rhs):
    """Each clause's key on every row of ``rhs``, or None for a Monte Carlo clause."""
    inst = plan.instance
    pairs_total, _ = inst.pair_stats
    bits = np.zeros((len(rhs), inst.m + 1), dtype=np.uint8)
    bits[:, :-1] = rhs
    keys = [[None] * inst.m for _ in rhs]
    for j, (_, support, forms, _) in enumerate(reference_topologies(inst)):
        if j in plan.mc:
            continue
        q_size, pairs = len(support), sum(forms, ())
        if q_size == 2 * int(pairs_total[j]):
            for row in keys:
                row[j] = int(pairs_total[j])
            continue
        rows = [[j]] + [[pairs[e][2] for e in row] for row in _gauge_rows(q_size, pairs)]
        width = max(map(len, rows))
        padded = np.array([row + [inst.m] * (width - len(row)) for row in rows], dtype=np.intp)
        for row, code in zip(keys, term_parity(bits, padded).tolist()):
            d, *signs = [1 - 2 * bit for bit in code]
            row[j] = (q_size, _with_signs(forms, signs), d)
    return keys


def read_keys(plan, key_of):
    found = list(plan.index)
    return [[found[i] if i >= 0 else None for i in row] for row in key_of.tolist()]


def assert_bitwise(got, want):
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert np.array_equal(np.signbit(got), np.signbit(want))


def every_sign_keys(inst, mode="exact", q_max=None):
    """The distinct keys a plan meets over every sign vector of ``inst``, or 64 of them."""
    plan = EvaluationPlan(inst, mode, q_max)
    vectors = 1 << inst.m if inst.m <= 6 else 64
    rhs = code_bits(np.arange(vectors), inst.m) if inst.m <= 6 else None
    if rhs is None:
        rhs = np.array([resample_signs(inst, seed=[2, t]).rhs_array for t in range(vectors)])
    plan.key_indices(rhs)
    return list(plan.index)


class TestKeyValues:
    @given(inst=instances(max_n=9, max_m=6))
    @settings(max_examples=30)
    def test_one_bracket_gives_each_key_its_own_value(self, inst):
        keys = every_sign_keys(inst)
        for gamma in GAMMAS:
            got = analytic._key_values(keys, gamma, {})
            assert_bitwise(got, [reference_key_value(key, gamma) for key in keys])

    def test_entangled_keys_cross_the_walk_cap(self):
        keys = every_sign_keys(ENTANGLED)
        assert any(not isinstance(k, int) and k[0] > REFERENCE_MAX_WALKED_Q for k in keys)
        assert any(not isinstance(k, int) and k[0] <= REFERENCE_MAX_WALKED_Q for k in keys)
        want = {gamma: [reference_key_value(key, gamma) for key in keys] for gamma in GAMMAS}
        held = {}
        for gamma in GAMMAS:
            assert_bitwise(analytic._key_values(keys, gamma, held), want[gamma])
            # and in any order, each key alone, from held histograms or fresh ones
            assert_bitwise(analytic._key_values(keys[::-1], gamma, held), want[gamma][::-1])
            for histograms in (held, {}):
                alone = [analytic._key_values([k], gamma, histograms)[0] for k in keys]
                assert_bitwise(alone, want[gamma])

    def test_keys_without_enumeration(self):
        held = {}
        assert analytic._key_values([], 0.3, held) == []
        want = [reference_key_value(p, -0.3) for p in (0, 3)]
        assert_bitwise(analytic._key_values([0, 3], -0.3, held), want)
        assert held == {}


@st.composite
def layout_stacks(draw):
    """(q, [forms, ...]): one pair layout under K sign rows."""
    q_size = draw(st.integers(2, REFERENCE_MAX_WALKED_Q))
    pair = st.tuples(st.integers(0, q_size - 1), st.integers(0, q_size - 1)).filter(
        lambda p: p[0] < p[1]
    )
    positions = [draw(st.lists(pair, max_size=4)) for _ in range(3)]
    if not any(positions):
        positions[0] = [(0, 1)]
    stack = draw(st.sampled_from((1, 2, 9)))
    sign_rows = [
        [draw(st.sampled_from((1, -1))) for _ in range(sum(map(len, positions)))]
        for _ in range(stack)
    ]
    positions3 = tuple(tuple((a, b, 1) for a, b in form) for form in positions)
    return q_size, [_with_signs(positions3, signs) for signs in sign_rows]


class TestStackedWalk:
    @given(case=layout_stacks(), block=st.sampled_from((64, 1 << 16)))
    @settings(max_examples=60)
    def test_a_stack_counts_as_its_rows_alone(self, case, block):
        q_size, group = case
        p = [len(f) for f in group[0]]
        scales = ((2 * p[1] + 1) * (2 * p[2] + 1), 2 * p[2] + 1, 1)
        rows = [reference_pair_terms(forms, scales) for forms in group]
        terms, stack = rows[0][0], np.array([weights for _, weights in rows])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(instance_module, "_PARITY_BLOCK", block)
            got = analytic._walk_counts(terms, stack, q_size)
            want = [reference_walk_counts(terms, weights, q_size) for _, weights in rows]
            hists = analytic._layout_histograms(q_size, group)
        assert got.dtype == np.int64 and got.shape == (len(group), want[0].size)
        for row, w in zip(got, want):
            assert np.array_equal(row, w)
        for (values, counts), forms in zip(hists, group):
            assert not values.flags.writeable and not counts.flags.writeable
            assert_same((values, counts), reference_histogram(q_size, forms))

    def test_a_layout_is_walked_once_and_held_per_forms(self, monkeypatch):
        forms = (((0, 1, 1), (2, 3, 1)), ((1, 2, 1),), ((0, 3, 1), (1, 3, 1)))
        group = [_with_signs(forms, signs) for signs in ([1] * 5, [1, -1, 1, 1, -1], [-1] * 5)]
        walks = []
        real = analytic._component_counts
        monkeypatch.setattr(
            analytic, "_component_counts", lambda t, w, q: walks.append(len(w)) or real(t, w, q)
        )
        held = {}
        analytic._count_missing([(4, f) for f in group + group[:1]], held)
        assert walks == [3] and list(held) == [(4, f) for f in group]
        first = dict(held)
        analytic._count_missing([(4, f) for f in group], held)
        assert walks == [3] and held.keys() == first.keys()
        assert all(held[key] is first[key] for key in first)
        # a layout that is new to the dict is counted once more, for its missing forms only
        other = _with_signs((((0, 1, 1),), (), ()), [-1])
        analytic._count_missing([(4, group[1]), (2, other)], held)
        assert walks == [3, 1] and len(held) == 4
        for (q_size, forms), hist in held.items():
            assert_same(hist, reference_histogram(q_size, forms))


@st.composite
def component_stacks(draw):
    """(q, [forms, ...]): the pair layout of one ``component_forms`` case under two to five sign rows."""
    q_size, forms = draw(component_forms())
    pairs = sum(map(len, forms))
    signs = st.lists(st.sampled_from((1, -1)), min_size=pairs, max_size=pairs)
    return q_size, [_with_signs(forms, row) for row in draw(st.lists(signs, min_size=2, max_size=5))]


def cell_counts(values, counts, pair_counts):
    """A histogram's counts on every cell key ((c1+p1)*d2 + (c2+p2))*d3 + (c3+p3), empty cells at 0."""
    dims = [2 * p + 1 for p in pair_counts]
    cells = np.zeros(math.prod(dims), dtype=np.int64)
    cells[((values[:, 0] + pair_counts[0]) * dims[1] + values[:, 1] + pair_counts[1]) * dims[2]
          + values[:, 2] + pair_counts[2]] = counts
    return cells


class TestStackedComponents:
    @given(case=component_stacks(), block=st.sampled_from((1, 8, 64, 1 << 16)))
    @settings(max_examples=60)
    def test_each_row_counts_as_the_loop_alone(self, case, block):
        q_size, group = case
        p = [len(f) for f in group[0]]
        scales = ((2 * p[1] + 1) * (2 * p[2] + 1), 2 * p[2] + 1, 1)
        rows = [reference_pair_terms(forms, scales) for forms in group]
        terms, stack = rows[0][0], np.array([weights for _, weights in rows]).reshape(len(group), -1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(instance_module, "_PARITY_BLOCK", block)
            got = analytic._component_counts(terms, stack, q_size)
            alone = [analytic._component_counts(terms, stack[k : k + 1], q_size) for k in range(len(group))]
        for k, forms in enumerate(group):
            want = cell_counts(*loop_histogram(q_size, forms), p)
            assert got.dtype == np.int64 and np.array_equal(got[k], want)
            assert alone[k].dtype == np.int64 and np.array_equal(alone[k], want[None, :])
        assert got.shape == (len(group), math.prod(2 * c + 1 for c in p))

    def test_a_layout_above_q_12_costs_one_call(self, monkeypatch):
        plan = EvaluationPlan(ENTANGLED, "exact")
        plan.key_indices(np.array([resample_signs(ENTANGLED, seed=[2, t]).rhs_array for t in range(64)]))
        held = dict.fromkeys(key[:2] for key in plan.keys if not isinstance(key, int))
        layouts = Counter((q_size, _with_signs(forms, repeat(0))) for q_size, forms in held)
        assert any(q_size > 12 and k >= 2 for (q_size, _), k in layouts.items())
        calls = []
        real = analytic._component_counts
        monkeypatch.setattr(
            analytic, "_component_counts", lambda t, w, q: calls.append((q, len(w))) or real(t, w, q)
        )
        plan.total(0.3)
        assert sorted(calls) == sorted((q_size, k) for (q_size, _), k in layouts.items())
        assert plan._histograms.keys() == held.keys()


class TestPackedKeyCodes:
    @given(inst=instances(min_n=5, max_n=9, max_m=8), chunk=st.sampled_from((1, 300, 1 << 22)))
    @settings(max_examples=30)
    def test_every_sign_vector_over_several_chunks(self, inst, chunk):
        rhs = code_bits(np.arange(1 << inst.m), inst.m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analytic, "_CODE_CHUNK_BYTES", chunk)
            plan = EvaluationPlan(inst, "auto", 3)
            step = plan.vectors_per_chunk()
            key_of = np.concatenate(
                [plan.key_indices(rhs[s : s + step]) for s in range(0, len(rhs), step)]
            )
        assert read_keys(plan, key_of) == reference_keys(plan, rhs)
        assert sorted(set(key_of[key_of >= 0].tolist())) == list(range(len(plan.index)))

    def test_the_tiled_octets_read_the_keys_of_their_own_walks(self):
        plan = EvaluationPlan(TILED, "auto")
        assert len(plan._layouts) < len(plan._enumerated)
        rhs = np.array([resample_signs(TILED, seed=[7, t]).rhs_array for t in range(40)])
        assert read_keys(plan, plan.key_indices(rhs)) == reference_keys(plan, rhs)

    def test_a_code_wider_than_one_word(self):
        # 55 pairs on variable 0 and 21 on variable 1 over an 11-bit support: 66 cycles
        support = range(3, 14)
        pairs = [(a, b) for a in support for b in support if a < b]
        clauses = [Clause(0, 1, 2, 0)]
        clauses += [Clause(0, a, b, (a * b) % 2) for a, b in pairs]
        clauses += [Clause(1, a, b, (a + b) % 2) for a, b in pairs[:21]]
        inst = Instance(n=14, clauses=tuple(clauses))
        plan = EvaluationPlan(inst, "auto", 12)
        assert plan._words > 1 and 0 not in plan.mc
        rhs = np.array([resample_signs(inst, seed=[3, t]).rhs_array for t in range(30)])
        rhs = np.concatenate([rhs, rhs[:5], inst.rhs_array[None, :]])
        assert read_keys(plan, plan.key_indices(rhs)) == reference_keys(plan, rhs)
        assert read_keys(plan, plan.key_indices(rhs[::-1])) == reference_keys(plan, rhs[::-1])


class TestChunkMemory:
    def test_the_estimate_covers_the_arrays_of_a_chunk(self):
        plan = EvaluationPlan(TILED, "exact")
        plan.key_of
        rhs = code_bits(np.arange(4096), TILED.m)
        step = plan.vectors_per_chunk()
        per_vector = analytic._CODE_CHUNK_BYTES / step
        tracemalloc.start()
        try:
            plan.key_indices(rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_vector * len(rhs)

    def test_a_chunk_larger_than_physical_memory_is_refused(self, monkeypatch):
        plan = EvaluationPlan(ENTANGLED, "exact")
        pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(_caps.os, "sysconf", pages.__getitem__)
        with pytest.raises(_caps.MemoryCapError, match="the key codes of .* sign vectors"):
            plan.vectors_per_chunk()
        monkeypatch.setattr(analytic, "_CODE_CHUNK_BYTES", 1 << 12)
        assert plan.vectors_per_chunk() >= 1
