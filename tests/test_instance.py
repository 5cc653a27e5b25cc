import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoa_e3lin2.instance import (
    SIGN_MODES,
    Assignment,
    Clause,
    InfeasibleError,
    Instance,
    ParseError,
    RetryExhaustedError,
    _choices,
    generate_random,
    objective_value,
    parse,
    resample_signs,
    satisfied_count,
    serialize,
    validate,
    Violation,
    with_signs,
)

from qaoa_e3lin2 import _caps
from qaoa_e3lin2 import instance as instance_module
from qaoa_e3lin2.analytic import EvaluationPlan, Neighborhood, build_neighborhood
from qaoa_e3lin2.schedule import scan
from qaoa_e3lin2.typical import base_instance

from conftest import bit_vectors, dumb_neighborhood, dumb_satisfied_count, instances, run_cli

#: The largest count or variable index an instance file may hold.
INDEX_MAX = int(np.iinfo(np.intp).max)

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_INSTANCES = sorted(GOLDEN.glob("*.e3lin2"))


class TestClause:
    def test_sign_encodes_rhs(self):
        assert Clause(0, 1, 2, 0).sign == 1
        assert Clause(0, 1, 2, 1).sign == -1

    def test_triple(self):
        assert Clause(3, 5, 9, 0).triple == (3, 5, 9)

    @pytest.mark.parametrize("rhs", [-1, 2, 7])
    def test_rejects_bad_rhs(self, rhs):
        with pytest.raises(ValueError):
            Clause(0, 1, 2, rhs)


class TestAssignment:
    def test_string_round_trip(self):
        a = Assignment.from_string("01101")
        assert a.to_string() == "01101"
        assert a.n == 5

    def test_spins(self):
        a = Assignment([0, 1, 1, 0])
        assert list(a.spins) == [1, -1, -1, 1]

    def test_equality_and_hash(self):
        assert Assignment([0, 1]) == Assignment([0, 1])
        assert Assignment([0, 1]) != Assignment([1, 0])
        assert hash(Assignment([0, 1])) == hash(Assignment([0, 1]))

    def test_bits_are_read_only(self):
        a = Assignment([0, 1])
        with pytest.raises(ValueError):
            a.bits[0] = 1

    def test_the_callers_array_stays_writable(self):
        bits = np.array([0, 1, 1], dtype=np.uint8)
        a = Assignment(bits)
        bits[0] = 1
        assert bits.flags.writeable and a.to_string() == "011"

    @pytest.mark.parametrize(
        "bits",
        [np.array([257, 256, 1]), np.array([0.5, 1.0, 0.0]), [256, 1, 0], [-1, 0, 1], [[0, 1]]],
    )
    def test_refuses_values_outside_0_and_1_before_casting(self, bits):
        # a uint8 cast would wrap 257 to 1, truncate 0.5 to 0 and overflow on 256
        with pytest.raises(ValueError, match=r"^bits must be a flat vector over \{0, 1\}$"):
            Assignment(bits)

    def test_bools_are_bits(self):
        a = Assignment(np.array([True, False, True]))
        assert a.to_string() == "101"
        assert a.bits.dtype == np.uint8


class TestInstance:
    def test_counts_and_occurrence(self, tiny_instance):
        assert tiny_instance.m == 5
        # variable 2 sits in clauses 0, 2, 3, and no variable in more
        assert tiny_instance.d_bound == 2
        # variables outside [0, n) are not counted: only variable 1 is in two clauses
        outside = Instance(n=3, clauses=(Clause(0, 1, 5, 0), Clause(-2, 1, 2, 1)))
        assert outside.d_bound == 1

    def test_d_bound_floor_and_empty(self):
        assert Instance(n=4, clauses=()).d_bound == 0
        single = Instance(n=4, clauses=(Clause(0, 1, 2, 0),))
        assert single.d_bound == 0

    def test_triples(self, tiny_instance):
        assert tiny_instance.triples()[0] == (0, 1, 2)
        assert len(tiny_instance.triples()) == 5

    @pytest.mark.parametrize(
        "clauses, first",
        [([-1], -1), ([-2], -2), ([36], 36), ([0, 5, -2], -2), ([3, 36, -1], 36), ([-1, 0, 35, 36], -1)],
    )
    def test_clause_table_refuses_an_index_outside_the_clauses(self, clauses, first):
        # on these 36 clauses, -2 once read clause 35's rows against clause 34's triple
        inst = parse((GOLDEN / "entangled.e3lin2").read_text(encoding="utf-8"))
        assert inst.m == 36
        for indices in (clauses, np.array(clauses)):
            with pytest.raises(IndexError, match=f"^clause_index {first} out of range for m=36$"):
                inst.clause_table(indices)


class TestArrays:
    """An instance is n and its two arrays; the Clause view is built only when read."""

    def test_parse_plan_scan_and_serialize_build_no_clause_view(self):
        inst = parse(serialize(generate_random(n=40, m=30, d_bound=3, seed=5)))
        EvaluationPlan(inst)
        scan(inst)
        serialize(inst)
        validate(inst)
        assert "clauses" not in vars(inst)
        assert inst.clauses[0] == Clause(*inst.triples()[0], int(inst.rhs_array[0]))

    def test_equal_with_equal_hashes_exactly_when_n_and_rows_match(self):
        inst = generate_random(n=10, m=6, d_bound=2, seed=4)
        rows = [(*t, int(r)) for t, r in zip(inst.triples(), inst.rhs_array.tolist())]
        zero = generate_random(n=10, m=6, d_bound=2, sign_mode="all-zero-rhs", seed=4)
        builds = [
            Instance(inst.n, rows),
            Instance(inst.n, [Clause(*row) for row in rows]),
            parse(serialize(inst)),
            with_signs(zero, inst.rhs_array),
        ]
        for other in builds:
            assert other == inst and hash(other) == hash(inst)
        flipped = [(a, b, c, 1 - rhs) if i == 2 else (a, b, c, rhs) for i, (a, b, c, rhs) in enumerate(rows)]
        unequal = [
            Instance(inst.n + 1, rows),
            Instance(inst.n, flipped),
            Instance(inst.n, rows[::-1]),
            Instance(inst.n, rows[:-1]),
        ]
        for other in unequal:
            assert other != inst
        assert len({inst, *builds, *unequal}) == 1 + len(unequal)

    def test_repr_rebuilds_the_instance(self):
        inst = Instance(n=4, clauses=[(0, 1, 2, 1), (1, 2, 3, 0)])
        assert repr(inst) == "Instance(n=4, clauses=[(0, 1, 2, 1), (1, 2, 3, 0)])"
        assert eval(repr(inst), {"Instance": Instance}) == inst
        assert repr(Instance(n=3, clauses=())) == "Instance(n=3, clauses=[])"

    def test_arrays_are_read_only_and_with_signs_shares_the_triples(self, tiny_instance):
        inst = generate_random(n=10, m=4, d_bound=2, seed=2)
        signed = with_signs(inst, [1, 0, 1, 0])
        for built in (tiny_instance, inst, parse(serialize(inst)), signed):
            assert built.triple_array.dtype == np.intp and built.triple_array.shape == (built.m, 3)
            assert built.rhs_array.dtype == np.uint8 and built.rhs_array.shape == (built.m,)
            with pytest.raises(ValueError):
                built.triple_array[0, 0] = 7
            with pytest.raises(ValueError):
                built.rhs_array[0] = 1
        assert signed.triple_array is inst.triple_array
        with pytest.raises(ValueError, match="^rhs must be 0 or 1, got 2$"):
            with_signs(inst, [2, 0, 1, 0])

    @pytest.mark.parametrize("rhs", [256, -1])
    def test_every_build_refuses_an_rhs_outside_0_and_1(self, rhs):
        # held as uint8, 256 would read 0 and -1 would read 255
        message = f"^rhs must be 0 or 1, got {rhs}$"
        with pytest.raises(ValueError, match=message):
            Instance(3, [(0, 1, 2, rhs)])
        with pytest.raises(ValueError, match=message):
            Instance(4, [(0, 1, 2, 0), (1, 2, 3, rhs)])
        with pytest.raises(ValueError, match=message):
            with_signs(Instance(3, [(0, 1, 2, 0)]), [rhs])


class TestPairStats:
    """``pair_stats`` against each clause's neighborhood, built by a different route."""

    @given(inst=instances(max_n=9, max_m=16))
    @settings(max_examples=80)
    def test_matches_the_reference_neighborhoods(self, inst):
        pairs_total, support_size = inst.pair_stats
        want = [dumb_neighborhood(inst, j) for j in range(inst.m)]
        assert pairs_total.tolist() == [sum(map(len, forms)) for forms, _ in want]
        assert support_size.tolist() == [len(support) for _, support in want]
        assert not pairs_total.flags.writeable and not support_size.flags.writeable

    @pytest.mark.parametrize("n, m, d_bound, seed", [(12000, 8000, 3, 1), (32, 48, 5, 1)])
    def test_bench_shaped_instances_match_their_clause_table(self, n, m, d_bound, seed):
        inst = generate_random(n, m, d_bound, seed=seed)
        grouped = grouped_table(inst, np.arange(inst.m))
        pairs_total, support_size = inst.pair_stats
        assert pairs_total.tolist() == [len(pairs) for _, pairs, _ in grouped]
        assert support_size.tolist() == [len(support) for support, _, _ in grouped]

    def test_repeated_variable_triple_matches_its_clause_table(self):
        # clause 0 meets clause 1 at one variable, entered twice in its own triple;
        # clause 1 finds two of clause 0's entries inside its triple and cancels it
        inst = Instance(n=4, clauses=(Clause(0, 0, 1, 0), Clause(0, 2, 3, 0)))
        pairs_total, support_size = inst.pair_stats
        want = [dumb_neighborhood(inst, j) for j in range(inst.m)]
        grouped = grouped_table(inst, np.arange(inst.m))
        assert pairs_total.tolist() == [sum(map(len, forms)) for forms, _ in want] == [1, 0]
        assert support_size.tolist() == [len(support) for _, support in want] == [2, 0]
        assert pairs_total.tolist() == [len(pairs) for _, pairs, _ in grouped]
        assert support_size.tolist() == [len(support) for support, _, _ in grouped]

    @given(
        inst=instances(min_n=8, max_n=14, max_m=20),
        offset=st.integers(1 << 62, (1 << 62) + (1 << 40)),
        stride=st.integers(1, 1 << 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_huge_labels_give_what_their_small_originals_give(self, inst, offset, stride):
        # labels past 2^63 / m: a code v * m + j would overflow int64
        rows = [(offset + a * stride, offset + b * stride, offset + c * stride, r)
                for a, b, c, r in inst._rows()]
        huge = Instance(n=offset + inst.n * stride, clauses=rows)
        for got, want in zip(huge.pair_stats, inst.pair_stats):
            assert got.tobytes() == want.tobytes()
        assert huge.d_bound == inst.d_bound
        plan, want = EvaluationPlan(huge), EvaluationPlan(inst)
        assert plan.keys == want.keys
        assert plan.total(0.3) == want.total(0.3)

    @given(
        inst=instances(max_n=12, max_m=20),
        labels=st.permutations(range(12)),
        offset=st.integers(1 << 62, (1 << 62) + (1 << 40)),
        stride=st.integers(1, 1 << 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_equal_to_the_counts_of_a_separate_ranking_sort(self, inst, labels, offset, stride):
        # labels from 2^62 up, in an order unrelated to the small originals'
        rows = [(*(offset + labels[v] * stride for v in (a, b, c)), r) for a, b, c, r in inst._rows()]
        huge = Instance(n=offset + 12 * stride, clauses=rows)
        for got, want in zip(huge.pair_stats, two_sort_pair_stats(huge)):
            assert got.tobytes() == want.tobytes()

    @given(
        n=st.integers(0, 12),
        triples=st.lists(st.tuples(*[st.integers(-4, 16)] * 3), max_size=24),
    )
    def test_d_bound_is_the_largest_in_range_count_less_one(self, n, triples):
        inst = Instance(n, [(*t, 0) for t in triples])
        counts = Counter(v for t in triples for v in t if 0 <= v < n)
        assert inst.d_bound == max(max(counts.values(), default=0) - 1, 0)

    def test_d_bound_counts_only_the_variables_in_use(self):
        # an occurrence array of length n would take 8 TB here
        inst = parse("e3lin2 1000000000000 2\n0 1 2 0\n0 1 999999999999 1\n")
        assert inst.d_bound == 1


def reference_overlap_table(triples):
    """(focal, other, inside) of the overlap table as one flat row list, built by gathers.

    One argsort of the entries; entries s apart that hold one variable give
    the clause codes ``a * m + b`` both ways round, and the distinct codes
    with distinct clauses are the rows, sorted by (focal, other).
    ``inside[i, y]`` compares variable y of row i's other triple with the
    three of its focal triple, gathered whole.
    """
    m, order = len(triples), np.argsort(triples, axis=None)
    variables, clauses = triples.ravel()[order], order // 3
    codes = [np.zeros(0, np.intp)]
    for s in range(1, variables.size):
        same = variables[s:] == variables[:-s]
        if not same.any():
            break
        a, b = clauses[:-s][same], clauses[s:][same]
        codes += [a * m + b, b * m + a]
    focal, other = np.divmod(np.unique(np.concatenate(codes)), m)
    focal, other = focal[focal != other], other[focal != other]
    tf, to = triples[focal], triples[other]
    inside = (to == tf[:, :1]) | (to == tf[:, 1:2]) | (to == tf[:, 2:])
    return focal, other, inside


def _clause_topology(triples, j, others, inside):
    """Group clause j's rows of an overlap table, of the (m, 3) ``triples``, one at a time.

    Returns (focal triple, support, pairs, cancelled): ``pairs[i]`` lists the
    pairs of form ``c_{i+1}`` as ``(a, b, k)``, with ``a`` and ``b`` positions
    into ``support``, the ascending variables the pairs use, and ``k`` the
    neighbor clause whose sign the pair carries.

    ``others`` are the rows' other clauses, ascending, and ``inside`` their
    mask rows. A clause with one variable inside adds its other two as a
    pair to the form of the first focal position holding that one; a clause
    with two is cancelled, and a clause with three is ignored.
    """
    focal = tuple(triples[j].tolist())
    raw_pairs = ([], [], [])
    cancelled = []
    for k, other, row in zip(others.tolist(), triples[others].tolist(), inside.tolist()):
        overlap = row.count(True)
        if overlap == 1:
            shared = other.pop(row.index(True))
            raw_pairs[focal.index(shared)].append((*other, k))
        elif overlap == 2:
            cancelled.append(k)
    support = tuple(sorted({v for form in raw_pairs for pair in form for v in pair[:2]}))
    pos = {v: i for i, v in enumerate(support)}
    pairs = tuple(tuple([(pos[a], pos[b], k) for a, b, k in form]) for form in raw_pairs)
    return focal, support, pairs, tuple(cancelled)


def reference_topologies(inst):
    """Every clause's topology, grouped by ``_clause_topology`` from the rows of the reference table."""
    focal, other, inside = reference_overlap_table(inst.triple_array)
    bounds = np.searchsorted(focal, np.arange(inst.m + 1)).tolist()
    return [
        _clause_topology(inst.triple_array, j, other[lo:hi], inside[lo:hi])
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def _by_position(rows, count):
    """``rows[:, 1:]`` split into ``count`` arrays by the first column, each in row order."""
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    bounds = np.searchsorted(rows[:, 0], np.arange(count + 1)).tolist()
    return [rows[lo:hi, 1:] for lo, hi in zip(bounds, bounds[1:])]


def grouped_table(inst, clauses):
    """``inst.clause_table(clauses)`` as (support, pair rows, cancelled) per clause, split by position."""
    support, pairs, cancelled = (_by_position(rows, len(clauses)) for rows in inst.clause_table(clauses))
    return [
        (tuple(s.ravel().tolist()), list(map(tuple, p.tolist())), tuple(c.ravel().tolist()))
        for s, p, c in zip(support, pairs, cancelled)
    ]


def as_rows(topology):
    """A reference topology as :func:`grouped_table` lists it: its pairs as rows (form, a, b, k), form by form."""
    _, support, forms, cancelled = topology
    pairs = [(f, a, b, k) for f, form in enumerate(forms) for a, b, k in form]
    return support, pairs, cancelled


def two_sort_pair_stats(inst):
    """(P, q) from the reference overlap table and variable ranks from a second argsort.

    The table's rows with exactly one variable inside give P by focal
    clause; q counts the distinct codes ``rank * m + focal`` of the two
    variables each such row brings.
    """
    m, triples = inst.m, inst.triple_array
    focal, other, inside = reference_overlap_table(triples)

    order = np.argsort(triples, axis=None)
    ordered = triples.ravel()[order]
    rank = np.zeros(triples.size, dtype=np.intp)
    rank[order[1:]] = np.cumsum(ordered[1:] != ordered[:-1])
    rank = rank.reshape(triples.shape)

    single = np.count_nonzero(inside, axis=1) == 1
    focal, inside = focal[single], inside[single]
    support = np.unique(rank[other[single]][~inside] * m + np.repeat(focal, 2))
    return np.bincount(focal, minlength=m), np.bincount(support % m, minlength=m)


#: Triples over a few variables, unsorted and with repeated variables, as ``Instance`` holds them.
loose_triples = st.lists(st.tuples(*[st.integers(0, 5)] * 3), max_size=14)


def star(m):
    """m clauses that all hold variable 0: one variable in c = m clauses gives m(m - 1) shared incidences."""
    return Instance(n=2 * m + 1, clauses=[(0, 2 * i + 1, 2 * i + 2, 0) for i in range(m)])


class TestOverlapTable:
    """The CSR overlap table against the reference table of flat rows and gathers."""

    @given(inst=instances(max_n=9, max_m=16))
    @settings(max_examples=80)
    def test_clause_table_equals_that_of_the_reference_table(self, inst):
        assert grouped_table(inst, np.arange(inst.m)) == list(map(as_rows, reference_topologies(inst)))

    @given(triples=loose_triples)
    @settings(max_examples=150)
    def test_repeated_and_unsorted_variables_match_the_reference_table(self, triples):
        inst = Instance(6, [(*t, 0) for t in triples])
        assert grouped_table(inst, np.arange(inst.m)) == list(map(as_rows, reference_topologies(inst)))
        for got, want in zip(inst.pair_stats, two_sort_pair_stats(inst)):
            assert got.tobytes() == want.tobytes()

    @given(
        inst=instances(min_n=8, max_n=14, max_m=20),
        offset=st.integers(1 << 62, (1 << 62) + (1 << 40)),
        stride=st.integers(1, 1 << 40),
    )
    @settings(max_examples=60)
    def test_huge_labels_match_the_reference_table(self, inst, offset, stride):
        rows = [(offset + a * stride, offset + b * stride, offset + c * stride, r) for a, b, c, r in inst._rows()]
        huge = Instance(n=offset + inst.n * stride, clauses=rows)
        assert grouped_table(huge, np.arange(huge.m)) == list(map(as_rows, reference_topologies(huge)))

    @pytest.mark.parametrize("block", [1, 2, 7])
    @given(inst=instances(max_n=12, max_m=20))
    @settings(max_examples=40)
    def test_pair_stats_are_the_same_in_blocks_of_any_size(self, block, inst):
        with mock.patch.object(instance_module, "_STATS_BLOCK", block):
            got = Instance(inst.n, inst._rows()).pair_stats
        for got_counts, want in zip(got, two_sort_pair_stats(inst)):
            assert got_counts.tobytes() == want.tobytes()

    def test_a_table_larger_than_physical_memory_is_refused(self, monkeypatch):
        # 300 * 299 shared incidences at 18 bytes each, against 1 MiB of memory
        pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(_caps.os, "sysconf", pages.__getitem__)
        with pytest.raises(_caps.MemoryCapError, match="the overlap table of 89700 shared incidences"):
            star(300).pair_stats
        assert generate_random(n=600, m=300, d_bound=3, seed=1).pair_stats[0].size == 300

    def test_the_cli_exits_two_on_a_table_larger_than_physical_memory(self, monkeypatch, tmp_path):
        path = tmp_path / "star.e3lin2"
        path.write_text(serialize(star(300)))
        pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(_caps.os, "sysconf", pages.__getitem__)
        result = run_cli(["scan", str(path)])
        assert result.exit_code == 2
        assert "the overlap table of 89700 shared incidences needs about 1614600 bytes" in result.output

    def test_the_estimate_covers_the_peak_of_a_star(self):
        inst = star(300)
        _, peak = traced_peak(lambda: inst.pair_stats)
        assert peak <= 300 * 299 * instance_module._OVERLAP_BYTES_PER_PAIR


#: Sorted triples over seven variables, repeats allowed: repeated pairs, clauses that meet in two
#: variables and duplicate triples are all common.
crowded_triples = st.lists(st.sampled_from(list(combinations(range(7), 3))), max_size=16)


class TestClauseTable:
    """``clause_table`` over all clauses and over any ascending clauses against ``_clause_topology``."""

    @given(triples=st.one_of(crowded_triples, loose_triples), data=st.data())
    @settings(max_examples=200)
    def test_every_clause_equals_its_reference_rows(self, triples, data):
        inst = Instance(7, [(*t, 0) for t in triples])
        want = list(map(as_rows, reference_topologies(inst)))
        assert grouped_table(inst, np.arange(inst.m)) == want
        clauses = sorted(data.draw(st.sets(st.integers(0, inst.m - 1))) if inst.m else ())
        assert grouped_table(inst, clauses) == [want[j] for j in clauses]

    def test_repeated_pairs_cancelled_and_duplicate_clauses(self):
        # clause 0 meets 1 in all three variables (ignored), 2 in two (cancelled), and 3, 4 and 5
        # in one each, all three bringing the pair (4, 5): twice through variable 0
        rows = [(0, 1, 2, 0), (0, 1, 2, 1), (0, 1, 3, 0), (0, 4, 5, 1), (1, 4, 5, 0), (0, 4, 5, 0)]
        inst = Instance(6, rows)
        want = reference_topologies(inst)
        assert want[0] == ((0, 1, 2), (4, 5), (((0, 1, 3), (0, 1, 5)), ((0, 1, 4),), ()), (2,))
        assert grouped_table(inst, list(range(inst.m))) == list(map(as_rows, want))

    @given(triples=st.one_of(crowded_triples, loose_triples), data=st.data())
    @settings(max_examples=200)
    def test_build_neighborhood_is_the_reference_with_its_signs(self, triples, data):
        rhs = data.draw(st.lists(st.integers(0, 1), min_size=len(triples), max_size=len(triples)))
        inst = Instance(7, [(*t, r) for t, r in zip(triples, rhs)])
        assert_neighborhoods_are_the_reference(inst)
        assert_neighborhoods_are_the_reference(with_signs(inst, 1 - inst.rhs_array))

    @pytest.mark.parametrize("path", GOLDEN_INSTANCES, ids=lambda path: path.name)
    def test_build_neighborhood_is_the_reference_on_every_golden(self, path):
        inst = parse(path.read_text(encoding="utf-8"))
        assert_neighborhoods_are_the_reference(inst)
        assert_neighborhoods_are_the_reference(with_signs(inst, 1 - inst.rhs_array))

    @given(
        inst=instances(min_n=8, max_n=14, max_m=20),
        offset=st.integers(1 << 62, (1 << 62) + (1 << 40)),
        stride=st.integers(1, 1 << 40),
    )
    @settings(max_examples=40)
    def test_huge_labels_give_the_rows_of_their_small_originals(self, inst, offset, stride):
        # labels past 2^62: an array of length n, or a code v * n + j, could not be built
        rows = [(offset + a * stride, offset + b * stride, offset + c * stride, r) for a, b, c, r in inst._rows()]
        huge = Instance(n=offset + inst.n * stride, clauses=rows)
        clauses = np.arange(inst.m)
        for got, want in zip(huge.clause_table(clauses)[1:], inst.clause_table(clauses)[1:]):
            assert got.tobytes() == want.tobytes()


def assert_neighborhoods_are_the_reference(inst):
    """``build_neighborhood`` of every clause ``==`` its reference rows, each pair signed ``1 - 2 * rhs[k]``."""
    rhs = inst.rhs_array.tolist()
    for j, topology in enumerate(reference_topologies(inst)):
        support, pairs, cancelled = as_rows(topology)
        forms = tuple(tuple((a, b, 1 - 2 * rhs[k]) for f, a, b, k in pairs if f == form) for form in range(3))
        focal = Clause(*inst.triple_array[j].tolist(), rhs[j])
        assert build_neighborhood(inst, j) == Neighborhood(j, focal, support, forms, cancelled)


#: Bytes per clause that parse and then pair_stats may hold at their peaks (tracemalloc) on a
#: sparse n=30000, m=20000, D=3 instance: 79 and 111 measured with Python 3.11 and numpy 2.4,
#: plus a quarter for other versions. The earlier parse (one whole re-serialized text) and
#: table (gathers of both triples of every row) peaked at 295 and 507.
PARSE_BYTES_PER_CLAUSE = 100
PAIR_STATS_BYTES_PER_CLAUSE = 140


def traced_peak(step):
    """``step()`` and the tracemalloc peak it reached above what was held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = step()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_parse_and_pair_stats_stay_within_their_per_clause_budgets():
    text = serialize(generate_random(30000, 20000, 3, seed=1))
    inst, parse_peak = traced_peak(lambda: parse(text))
    _, pair_stats_peak = traced_peak(lambda: inst.pair_stats)
    assert parse_peak <= PARSE_BYTES_PER_CLAUSE * inst.m
    assert pair_stats_peak <= PAIR_STATS_BYTES_PER_CLAUSE * inst.m


class TestValidate:
    def test_clean(self, tiny_instance):
        assert validate(tiny_instance) == []

    def test_flags_problems(self):
        inst = Instance(
            n=4,
            clauses=(
                Clause(2, 1, 3, 0),
                Clause(0, 1, 9, 0),
                Clause(0, 1, 2, 0),
                Clause(0, 1, 2, 1),
            ),
        )
        kinds = {v.kind for v in validate(inst)}
        assert kinds == {"unsorted-triple", "index-out-of-range", "duplicate-triple"}

    def test_a_repeat_names_the_first_clause_holding_its_triple(self):
        inst = Instance(n=4, clauses=[(0, 1, 2, 0), (2, 1, 0, 0), (0, 1, 2, 1), (2, 1, 0, 1), (0, 1, 2, 0)])
        assert validate(inst) == loop_validate(inst)
        assert [v.message for v in validate(inst) if v.kind == "duplicate-triple"] == [
            "clause 2: triple (0, 1, 2) repeats clause 0",
            "clause 3: triple (2, 1, 0) repeats clause 1",
            "clause 4: triple (0, 1, 2) repeats clause 0",
        ]

    @settings(max_examples=300)
    @given(
        n=st.integers(0, 4),
        rows=st.lists(st.tuples(*[st.integers(-1, 4)] * 3, st.integers(0, 1)), max_size=20),
    )
    def test_equals_the_loop_on_unsorted_out_of_range_and_repeated_rows(self, n, rows):
        inst = Instance(n=n, clauses=rows)
        assert validate(inst) == loop_validate(inst)

    @given(triples=st.lists(st.tuples(*[st.integers(-1, 6)] * 3), min_size=1, max_size=8))
    def test_base_instance_raises_the_first_violation_of_the_loop(self, triples):
        n = 1 + max(max(t) for t in triples)
        expected = loop_validate(Instance(n=n, clauses=[(*t, 0) for t in triples]))
        if expected:
            with pytest.raises(ValueError) as info:
                base_instance(triples)
            assert str(info.value) == expected[0].message
        else:
            assert base_instance(triples).triples() == tuple(triples)


def loop_validate(instance):
    """The per-clause loop ``validate`` ran before the array row check: the reference."""
    out = []
    seen = {}
    for i, triple in enumerate(instance.triples()):
        if not (triple[0] < triple[1] < triple[2]):
            out.append(Violation("unsorted-triple", i, f"clause {i}: triple {triple} is not strictly increasing"))
        if min(triple) < 0 or max(triple) >= instance.n:
            out.append(Violation("index-out-of-range", i, f"clause {i}: triple {triple} outside [0, {instance.n})"))
        if triple in seen:
            out.append(Violation("duplicate-triple", i, f"clause {i}: triple {triple} repeats clause {seen[triple]}"))
        else:
            seen[triple] = i
    return out


class TestObjective:
    def test_satisfied_hand_case(self):
        inst = Instance(n=3, clauses=(Clause(0, 1, 2, 1),))
        assert satisfied_count(inst, Assignment([1, 0, 0])) == 1
        assert satisfied_count(inst, Assignment([0, 0, 0])) == 0

    def test_objective_is_half_of_signed_count(self):
        inst = Instance(n=3, clauses=(Clause(0, 1, 2, 0), Clause(0, 1, 2, 1)))
        # contradictory pair: exactly one satisfied whatever the assignment
        for bits in ([0, 0, 0], [1, 1, 0], [1, 0, 1]):
            assert objective_value(inst, Assignment(bits)) == 0.0

    def test_length_mismatch(self):
        inst = Instance(n=4, clauses=(Clause(0, 1, 2, 0),))
        with pytest.raises(ValueError):
            satisfied_count(inst, Assignment([0, 1]))

    @given(data=st.data(), inst=instances())
    def test_satisfied_equals_half_m_plus_objective(self, data, inst):
        bits = data.draw(bit_vectors(inst.n))
        a = Assignment(bits)
        sat = satisfied_count(inst, a)
        assert sat == dumb_satisfied_count(inst, bits)
        assert sat == pytest.approx(inst.m / 2 + objective_value(inst, a))


CHOICE_LOOP_CASES = [
    (18, 24, 3, "uniform-random", 1),  # full packing, many restarts
    (12, 16, 3, "uniform-random", 1005),
    (3, 1, 0, "uniform-random", 2),
    (4, 4, 2, "all-zero-rhs", 3),
    (20, 26, 3, "all-zero-rhs", 5),
    (50, 60, 4, "uniform-random", 6),
    (10, 0, 3, "uniform-random", 7),
]


class TestGenerateRandom:
    def test_deterministic(self):
        a = generate_random(n=10, m=8, d_bound=2, seed=5)
        b = generate_random(n=10, m=8, d_bound=2, seed=5)
        assert a == b
        assert a != generate_random(n=10, m=8, d_bound=2, seed=6)

    def test_respects_occurrence_cap(self):
        for seed in range(10):
            inst = generate_random(n=9, m=8, d_bound=2, seed=seed)
            assert inst.m == 8
            assert inst.d_bound <= 2
            assert validate(inst) == []

    def test_tight_packing_succeeds(self):
        inst = generate_random(n=12, m=16, d_bound=3, seed=1005)
        assert inst.m == 16
        assert inst.d_bound <= 3

    def test_sign_modes(self):
        zero = generate_random(n=10, m=6, d_bound=2, seed=1, sign_mode="all-zero-rhs")
        assert all(cl.rhs == 0 for cl in zero.clauses)
        assert set(SIGN_MODES) == {"uniform-random", "all-zero-rhs"}
        with pytest.raises(ValueError):
            generate_random(n=10, m=6, d_bound=2, seed=1, sign_mode="whatever")

    @pytest.mark.parametrize("n, m, d_bound, sign_mode, seed", CHOICE_LOOP_CASES)
    def test_matches_the_placement_loop_over_choice(self, n, m, d_bound, sign_mode, seed):
        want = _generate_by_choice(n, m, d_bound, sign_mode, seed)
        assert generate_random(n, m, d_bound, sign_mode, seed) == want

    @pytest.mark.parametrize(
        "n, m, d_bound, sign_mode, digest",
        [
            (12000, 8000, 3, "uniform-random", "892e9cf4059398584ab83227580df06e7281f31897e19cce49f133fdb9380c63"),
            (20, 26, 3, "uniform-random", "d46a54ee53cc8ec3aabf5b53c8e0919fbf64caa472c69ae06a25d66b495ed3fd"),
            (18, 24, 3, "all-zero-rhs", "1c963cde21fb474f63245ca8eb07413946652b53263ac178efec9901dbe3f302"),
        ],
    )
    def test_bench_shaped_outputs_are_pinned(self, n, m, d_bound, sign_mode, digest):
        # the first two are the benchmark's sparse scan and n=20 statevector instances
        text = serialize(generate_random(n, m, d_bound, sign_mode, seed=1))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_the_largest_n_matches_the_placement_loop_over_choice(self, seed):
        want = _generate_by_choice(2**32, 2, 1, seed=seed)
        assert generate_random(n=2**32, m=2, d_bound=1, seed=seed) == want

    @pytest.mark.parametrize("n", [2**32 + 1, 10**23])
    def test_refuses_an_n_above_2_to_the_32(self, n):
        # refused whatever m is, before anything is drawn
        with pytest.raises(InfeasibleError, match=f"^n must be at most 2\\*\\*32 = 4294967296, got {n}$"):
            generate_random(n=n, m=0, d_bound=0, seed=0)

    def test_retry_exhausted_message(self):
        with pytest.raises(
            RetryExhaustedError, match=r"^placed 38 of 40 triples in 40000 attempts \(n=24, D=4\)$"
        ):
            generate_random(24, 40, 4, "all-zero-rhs", seed=699762)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_blocks_of_any_size_give_the_same_instances(self, monkeypatch, block):
        # attempts then end both on and inside a block, with and without a rewind
        monkeypatch.setattr(instance_module, "_CHOICE_BLOCK", block)
        for case in CHOICE_LOOP_CASES:
            self.test_matches_the_placement_loop_over_choice(*case)
        self.test_retry_exhausted_message()

    @pytest.mark.parametrize(
        "n,m,d",
        [
            (4, 5, 0),  # 15 slots needed, 4 available
            (2, 1, 3),  # fewer than 3 variables
            (4, 5, 9),  # only C(4,3)=4 distinct triples
            (-1, 0, 0),
        ],
    )
    def test_infeasible(self, n, m, d):
        with pytest.raises(InfeasibleError):
            generate_random(n=n, m=m, d_bound=d, seed=0)


def _choice_triples(rng, n, attempts):
    return [rng.choice(n, size=3, replace=False).tolist() for _ in range(attempts)]


def _generate_by_choice(n, m, d_bound, sign_mode="uniform-random", seed=0):
    """``generate_random``'s placement loop with one ``rng.choice`` call per attempt."""
    rng = np.random.default_rng(seed)
    cap = d_bound + 1
    counts = Counter()
    chosen, used = [], set()
    attempts = stall = 0
    while len(chosen) < m:
        assert attempts < 1000 * m, "these cases fit in the budget"
        if stall >= 200:
            counts.clear()
            chosen.clear()
            used.clear()
            stall = 0
        attempts += 1
        triple = tuple(int(v) for v in np.sort(rng.choice(n, size=3, replace=False)))
        if triple in used or any(counts[v] >= cap for v in triple):
            stall += 1
            continue
        stall = 0
        used.add(triple)
        chosen.append(triple)
        for v in triple:
            counts[v] += 1
    rhs = np.zeros(m, dtype=np.int64) if sign_mode == "all-zero-rhs" else rng.integers(0, 2, size=m)
    return Instance(n=n, clauses=tuple(Clause(a, b, c, int(r)) for (a, b, c), r in zip(chosen, rhs)))


def _pcg64_state_before(word, inc, words_ahead):
    """A PCG64 state whose ``words_ahead``-th next raw word is ``word``.

    PCG64 steps its 128-bit LCG state and then outputs the two 64-bit halves
    of the new state xor-ed and rotated right by its top 6 bits; with those
    bits clear the output is the plain xor.
    """
    multiplier, modulus = 0x2360ED051FC65DA44385DF649FCCF645, 1 << 128
    high = 0x0123456789ABCDEF
    state = high << 64 | (high ^ word)
    for _ in range(words_ahead):
        state = (state - inc) * pow(multiplier, -1, modulus) % modulus
    return state


class TestChoiceReader:
    """``_choices`` against ``Generator.choice`` itself: the same triples, then the same state."""

    # n = 3 draws nothing for j = 0; at n = 3e9, 2**32 mod (j+1) is about a
    # third of 2**32, so Lemire's method redraws often; at n = 2**32 the top
    # range [0, 2**32 - 1] is the last that choice draws from 32-bit halves
    @pytest.mark.parametrize("n", [3, 4, 5, 18, 20, 1000, 12000, 3_000_000_000, 2**32 - 1, 2**32])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_draws_and_state_match_choice(self, n, seed):
        rng, reader_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [*_choices(reader_rng, n, 1000), *_choices(reader_rng, n, 1001)]
        assert got == _choice_triples(rng, n, 2001)
        assert reader_rng.bit_generator.state == rng.bit_generator.state

    def test_a_redraw_on_the_shuffle_range_matches_choice(self):
        # 2**32 mod 3 = 1, so the draw on [0, 2] redraws a zero half only:
        # here the fourth half read, the high half of the second word
        state = np.random.default_rng(0).bit_generator.state
        state["state"]["state"] = _pcg64_state_before(12345, state["state"]["inc"], 2)
        rng, reader_rng, check = (np.random.default_rng() for _ in range(3))
        for generator in (rng, reader_rng, check):
            generator.bit_generator.state = state
        assert check.bit_generator.random_raw(2)[1] == 12345
        assert list(_choices(reader_rng, 18, 3)) == _choice_triples(rng, 18, 3)
        assert reader_rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("draws", [0, 1, 2, 3])
    @pytest.mark.parametrize("pending", [False, True])
    def test_sync_hands_on_the_state_choice_leaves(self, draws, pending):
        rng, reader_rng = np.random.default_rng(4), np.random.default_rng(4)
        if pending:
            # a full-range uint32 leaves the high half of its word unread
            rng.integers(2**32, dtype=np.uint32)
            reader_rng.integers(2**32, dtype=np.uint32)
        assert list(_choices(reader_rng, 18, draws)) == _choice_triples(rng, 18, draws)
        assert reader_rng.bit_generator.state == rng.bit_generator.state
        assert reader_rng.integers(0, 2, size=65).tolist() == rng.integers(0, 2, size=65).tolist()


class TestSignResampling:
    def test_resample_keeps_triples(self):
        inst = generate_random(n=10, m=8, d_bound=2, seed=2)
        again = resample_signs(inst, seed=9)
        assert again.triples() == inst.triples()
        assert resample_signs(inst, seed=9) == again

    def test_seed_sequences_differ(self):
        inst = generate_random(n=12, m=10, d_bound=2, seed=2)
        variants = {resample_signs(inst, seed=[3, t]) for t in range(20)}
        assert len(variants) > 1

    def test_with_signs(self):
        inst = generate_random(n=10, m=4, d_bound=2, seed=2)
        flipped = with_signs(inst, [1, 0, 1, 0])
        assert [cl.rhs for cl in flipped.clauses] == [1, 0, 1, 0]
        assert flipped.triples() == inst.triples()
        with pytest.raises(ValueError):
            with_signs(inst, [0, 1])


class TestFileFormat:
    def test_serialize_shape(self, tiny_instance):
        text = serialize(tiny_instance)
        lines = text.split("\n")
        assert lines[0] == "e3lin2 9 5"
        assert lines[1] == "0 1 2 0"
        assert text.endswith("\n")

    @given(inst=instances())
    def test_round_trip(self, inst):
        assert parse(serialize(inst)) == inst

    def test_round_trip_generated(self):
        for seed in range(20):
            inst = generate_random(n=11, m=9, d_bound=2, seed=seed)
            assert parse(serialize(inst)) == inst

    @pytest.mark.parametrize(
        "text,line",
        [
            ("", 1),
            ("e3lin2 4\n", 1),
            ("xorsat 4 1\n0 1 2 0\n", 1),
            ("e3lin2 4 two\n", 1),
            ("e3lin2 4 1\n0 1 2 2\n", 2),
            ("e3lin2 4 1\n2 1 0 0\n", 2),
            ("e3lin2 4 1\n0 1 7 0\n", 2),
            ("e3lin2 4 2\n0 1 2 0\n0 1 2 1\n", 3),
            ("e3lin2 4 2\n0 1 2 0\n", 3),
            ("e3lin2 4 1\n0 1 2 0\n0 1 3 0\n", 3),
            ("e3lin2 4 1\n0  1 2 0\n", 2),
            # int() reads these, but serialize never writes them
            ("e3lin2 12 1\n0 1 1_0 0\n", 2),
            ("e3lin2 4 1\n0 1 +2 0\n", 2),
            ("e3lin2 4 1\n0 1 02 0\n", 2),
            ("e3lin2 4 1\n-0 1 2 0\n", 2),
            ("e3lin2 4 1\n0 1 2 0\r\n", 2),
            ("e3lin2 4 1\n0 1 \u0662 0\n", 2),
            ("e3lin2 +4 1\n0 1 2 0\n", 1),
            ("e3lin2 04 1\n0 1 2 0\n", 1),
            ("e3lin2 1_2 1\n0 1 2 0\n", 1),
            ("e3lin2 4 1\r\n0 1 2 0\n", 1),
            ("e3lin2 \u0664 1\n0 1 2 0\n", 1),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.line == line

    @pytest.mark.parametrize(
        "text,message",
        [
            ("e3lin2 12 1\n0 1 1_0 0\n", "bad token in '0 1 1_0 0', line 2"),
            ("e3lin2 +4 1\n", "malformed header 'e3lin2 +4 1', counts must be integers, line 1"),
            ("e3lin2 4 1\n0 1 2 -1\n", "rhs must be 0 or 1, got -1, line 2"),
            ("e3lin2 4 1\n-1 1 2 0\n", "variable index outside [0, 4) in (-1, 1, 2), line 2"),
            ("e3lin2 -4 1\n", "header counts must be non-negative, line 1"),
            # counts past the index range, refused before any clause line is read
            (
                "e3lin2 100000000000000000000000 1\n0 1 99999999999999999999999 0\n",
                f"header counts must be at most {INDEX_MAX}, line 1",
            ),
            (
                f"e3lin2 {INDEX_MAX + 1} 1\n0 1 {INDEX_MAX} 0\n",
                f"header counts must be at most {INDEX_MAX}, line 1",
            ),
            (f"e3lin2 4 {INDEX_MAX + 1}\n0 1 2 0\n", f"header counts must be at most {INDEX_MAX}, line 1"),
        ],
    )
    def test_refusals_keep_their_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message

    def test_the_largest_index_count_parses(self):
        inst = parse(f"e3lin2 {INDEX_MAX} 1\n0 1 {INDEX_MAX - 1} 0\n")
        assert inst.triple_array.tolist() == [[0, 1, INDEX_MAX - 1]]

    def test_eval_of_an_overflowing_file_exits_two(self, tmp_path):
        path = tmp_path / "huge.e3lin2"
        path.write_text("e3lin2 100000000000000000000000 1\n0 1 99999999999999999999999 0\n")
        result = run_cli(["eval", str(path), "--gamma", "0.2"])
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == (
            f"Error: {path}: header counts must be at most {INDEX_MAX}, line 1"
        )

    @pytest.mark.parametrize(
        "text,message",
        [
            ("e3lin2 4 1\r\n0 1 2 0\r\n", "CRLF line ending in 'e3lin2 4 1\\r', expected LF, line 1"),
            ("e3lin2 4 1\n0 1 2 0\r\n", "CRLF line ending in '0 1 2 0\\r', expected LF, line 2"),
        ],
    )
    def test_crlf_line_endings_are_named(self, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message

    def test_tolerates_exactly_one_trailing_newline(self):
        assert parse("e3lin2 3 1\n0 1 2 0\n").m == 1
        assert parse("e3lin2 3 1\n0 1 2 0").m == 1
        with pytest.raises(ParseError):
            parse("e3lin2 3 1\n0 1 2 0\n\n")

    @settings(max_examples=400)
    @given(inst=instances(max_m=6), data=st.data())
    def test_parse_equals_the_scalar_parser_on_mutated_files(self, inst, data):
        assert_parse_equals_the_scalar_parser(inst, data)

    @pytest.mark.parametrize("block", [1, 3])
    @settings(max_examples=200)
    @given(inst=instances(max_m=6), data=st.data())
    def test_parse_equals_the_scalar_parser_across_block_edges(self, block, inst, data):
        # compared a block of 1 or 3 rows at a time, mutations fall on both sides of a block edge
        with mock.patch.object(instance_module, "_COMPARE_BLOCK", block):
            assert_parse_equals_the_scalar_parser(inst, data)

    @pytest.mark.parametrize("block", [1, 3])
    @given(inst=instances(max_m=8))
    def test_serialize_writes_the_same_text_in_blocks_of_any_size(self, block, inst):
        want = f"e3lin2 {inst.n} {inst.m}\n" + "".join(f"{a} {b} {c} {r}\n" for a, b, c, r in inst._rows())
        with mock.patch.object(instance_module, "_COMPARE_BLOCK", block):
            assert serialize(inst) == want
            assert parse(want) == parse(want[:-1]) == inst

    def test_a_malformed_body_reports_only_the_usage_error(self, tmp_path):
        # in a new interpreter showing every warning, as a numpy warning would print one
        path = tmp_path / "bad.e3lin2"
        path.write_text("e3lin2 4 2\n0 1 2 0\n0 1 +3 0\n")
        src = str(Path(instance_module.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-W", "default", "-m", "qaoa_e3lin2.cli", "scan", path.name],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            "Usage: python -m qaoa_e3lin2.cli scan [OPTIONS] INSTANCE_PATH\n"
            "Try 'python -m qaoa_e3lin2.cli scan --help' for help.\n\n"
            "Error: bad.e3lin2: bad token in '0 1 +3 0', line 3\n"
        )


def assert_parse_equals_the_scalar_parser(inst, data):
    """Mutate the file of ``inst`` one to three times; ``parse`` and ``scalar_parse`` must agree on it."""
    lines = serialize(inst).split("\n")[:-1]
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(sorted(MUTATIONS)))
        i = data.draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))  # a clause line if any
        lines = MUTATIONS[name](lines, i, data)
    text = "\n".join(lines) + data.draw(st.sampled_from(["\n", ""]))
    assert outcome(parse, text) == outcome(scalar_parse, text)


def outcome(reader, text):
    """What ``reader`` makes of ``text``: the instance, or the refusal's type, message and line."""
    try:
        return reader(text)
    except ParseError as err:
        return type(err), str(err), err.line


def _token_mutation(change, position=None):
    """A mutation that rewrites one token of line i, drawn unless ``position`` names it, with ``change(token, lines)``."""

    def mutate(lines, i, data):
        tokens = lines[i].split(" ")
        t = data.draw(st.integers(0, len(tokens) - 1)) if position is None else min(position, len(tokens) - 1)
        tokens[t] = change(tokens[t], lines)
        return [*lines[:i], " ".join(tokens), *lines[i + 1 :]]

    return mutate


def _space_mutation(replacement):
    def mutate(lines, i, data):
        return [*lines[:i], lines[i].replace(" ", replacement, 1), *lines[i + 1 :]]

    return mutate


def _repeat_a_row(lines, i, data):
    """Overwrite line i with a drawn clause line, so the count stays."""
    if len(lines) < 2:
        return lines
    row = lines[data.draw(st.integers(1, len(lines) - 1))]
    return [*lines[:max(i, 1)], row, *lines[max(i, 1) + 1 :]]


def _append_a_repeat(lines, i, data):
    """Append a copy of a clause line and count it in the header."""
    if len(lines) < 2:
        return lines
    head = lines[0].split(" ")
    head[2] = str(len(lines))
    return [" ".join(head), *lines[1:], lines[max(i, 1)]]


#: Edits of a serialized file: what int() or numpy reads but serialize never
#: writes, rows that repeat, indices outside the header's range, and the
#: largest index an instance can hold.
MUTATIONS = {
    "plus": _token_mutation(lambda t, lines: "+" + t),
    "leading-zero": _token_mutation(lambda t, lines: "0" + t),
    "underscore": _token_mutation(lambda t, lines: "1_0"),
    "arabic-indic-digit": _token_mutation(lambda t, lines: "\u0662"),
    "minus-zero": _token_mutation(lambda t, lines: "-0"),
    "minus": _token_mutation(lambda t, lines: "-" + t),
    "rhs-two": _token_mutation(lambda t, lines: "2"),
    "twenty-digits": _token_mutation(lambda t, lines: "9" * 20),
    "index-max-less-one": _token_mutation(lambda t, lines: str(INDEX_MAX - 1)),
    "index-max": _token_mutation(lambda t, lines: str(INDEX_MAX)),
    "past-n": _token_mutation(lambda t, lines: lines[0].split(" ")[-2], position=2),
    "plus-one": _token_mutation(lambda t, lines: str(int(t) + 1) if t.isdigit() else t),
    "tab": _space_mutation("\t"),
    "double-space": _space_mutation("  "),
    "cr": lambda lines, i, data: [*lines[:i], lines[i] + "\r", *lines[i + 1 :]],
    "repeat-row": _repeat_a_row,
    "append-repeat": _append_a_repeat,
    "header-n-index-max": lambda lines, i, data: [f"e3lin2 {INDEX_MAX} {lines[0].split(' ')[2]}", *lines[1:]],
}


def scalar_parse(text):
    """The per-line parser ``parse`` replaced: the reference for its messages and line numbers."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty input", 1)

    if lines[0].endswith("\r"):
        raise ParseError(f"CRLF line ending in {lines[0]!r}, expected LF", 1)
    head = lines[0].split(" ")
    if len(head) != 3 or head[0] != "e3lin2":
        raise ParseError(f"malformed header {lines[0]!r}, expected 'e3lin2 <n> <m>'", 1)
    try:
        n, m = int(head[1]), int(head[2])
        if lines[0] != f"e3lin2 {n} {m}":
            raise ValueError
    except ValueError:
        raise ParseError(f"malformed header {lines[0]!r}, counts must be integers", 1) from None
    if n < 0 or m < 0:
        raise ParseError("header counts must be non-negative", 1)
    if max(n, m) > INDEX_MAX:
        raise ParseError(f"header counts must be at most {INDEX_MAX}", 1)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} clause lines, found {len(lines) - 1}", min(len(lines), m + 1) + 1)

    rows = []
    seen = {}
    for i, raw in enumerate(lines[1:], start=2):
        if raw.endswith("\r"):
            raise ParseError(f"CRLF line ending in {raw!r}, expected LF", i)
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
        rows.append((a, b, c, rhs))
    return Instance(n=n, clauses=rows)
