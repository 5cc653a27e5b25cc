"""Neighborhood histograms on the parity grid and by pair-graph component,
against the loops they replaced.

``loop_histogram`` and ``conftest.loop_eval_forms`` are the implementation
the package used before every 2^q enumeration went through
``instance.parity_blocks``: about seven int64 passes over every code per pair.
The tests require both routes, the walk over all 2^q codes and the
component route above ``analytic._WALK_MAX_Q``, to reproduce them exactly,
with equal dtypes, not within a tolerance, and the component route to agree
with the statevector. The last class checks that the Monte Carlo clause
term, the one enumeration-free path, refuses a run larger than physical
memory before it draws a spin.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaoa_e3lin2 import _caps, analytic
from qaoa_e3lin2 import instance as instance_module
from qaoa_e3lin2.analytic import (
    EvaluationPlan,
    build_neighborhood,
    clause_term_mc,
    combo_histogram,
    objective_expectation,
)
from qaoa_e3lin2.instance import (
    Clause,
    Instance,
    generate_random,
    parity_grid,
    parse,
    term_parity,
)
from qaoa_e3lin2.statevector import AngleParams, expectation, prepare

from conftest import instances, loop_eval_forms, run_cli
from test_lazy_exports import fresh

ENTANGLED_PATH = Path(__file__).parent / "golden" / "entangled.e3lin2"
ENTANGLED = parse(ENTANGLED_PATH.read_text(encoding="utf-8"))


def loop_histogram(q_size, forms, chunk=1 << 20):
    p1, p2, p3 = (len(f) for f in forms)
    dims = (2 * p1 + 1, 2 * p2 + 1, 2 * p3 + 1)
    total_cells = dims[0] * dims[1] * dims[2]
    hist = np.zeros(total_cells, dtype=np.int64)
    size = 1 << q_size
    for start in range(0, size, chunk):
        codes = np.arange(start, min(start + chunk, size), dtype=np.int64)
        c = loop_eval_forms(forms, codes)
        keys = ((c[0] + p1) * dims[1] + (c[1] + p2)) * dims[2] + (c[2] + p3)
        hist += np.bincount(keys, minlength=total_cells)
    occupied = np.nonzero(hist)[0]
    counts = hist[occupied]
    v1, rem = np.divmod(occupied, dims[1] * dims[2])
    v2, v3 = np.divmod(rem, dims[2])
    return np.stack([v1 - p1, v2 - p2, v3 - p3], axis=1), counts


def loop_parity_grid(terms, weights, high, low):
    codes = np.asarray(high)[:, None] | np.asarray(low)[None, :]
    out = np.zeros(codes.shape, dtype=np.float64)
    for term, w in zip(terms, weights):
        parity = np.zeros(codes.shape, dtype=np.int64)
        for v in term:
            parity ^= (codes >> v) & 1
        out += w * (1 - 2 * parity)
    return out


def assert_same(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def neighborhoods(instance):
    return [build_neighborhood(instance, j) for j in range(instance.m)]


@st.composite
def grid_cases(draw):
    k = draw(st.sampled_from((2, 3)))
    width = draw(st.integers(1, 8))
    t = draw(st.integers(0, 6))
    terms = np.array(
        [[draw(st.integers(0, width - 1)) for _ in range(k)] for _ in range(t)], dtype=np.intp
    ).reshape(t, k)
    weights = np.array([draw(st.integers(-40, 40)) for _ in range(t)], dtype=np.float64)
    low_bits = draw(st.integers(0, width))
    return terms, weights, width, low_bits


class TestParityGrid:
    @given(case=grid_cases())
    @settings(max_examples=80)
    def test_matches_term_loop(self, case):
        terms, weights, width, low_bits = case
        high = np.arange(1 << (width - low_bits)) << low_bits
        low = np.arange(1 << low_bits)
        got = parity_grid(terms, weights, width, high, low)
        assert got.dtype == np.float64
        assert np.array_equal(got, loop_parity_grid(terms, weights, high, low))

    def test_empty_low_half(self):
        terms = np.array([(0, 2), (1, 2)], dtype=np.intp)
        weights = np.array([3.0, -5.0])
        high = np.arange(8)
        got = parity_grid(terms, weights, 3, high, np.arange(1))
        assert got.shape == (8, 1)
        assert np.array_equal(got, loop_parity_grid(terms, weights, high, np.arange(1)))

    def test_zero_terms_give_zeros(self):
        terms = np.zeros((0, 3), dtype=np.intp)
        got = parity_grid(terms, np.zeros(0), 4, np.arange(4) << 2, np.arange(4))
        assert np.array_equal(got, np.zeros((4, 4)))

    def test_term_parity_xors_the_named_columns(self):
        bits = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8)
        terms = np.array([(0, 2), (1, 2), (0, 3)], dtype=np.intp)
        assert np.array_equal(term_parity(bits, terms), [[0, 1, 0], [1, 0, 0]])
        triple = np.array([(0, 1, 3)], dtype=np.intp)
        assert np.array_equal(term_parity(bits, triple), [[0], [1]])
        assert term_parity(bits, triple).dtype == np.uint8


class TestHistogramAgainstLoop:
    @given(inst=instances(max_n=10, max_m=9), chunk=st.sampled_from((1, 8, 64, 1 << 20)))
    @settings(max_examples=60)
    def test_matches_loop_for_every_chunk(self, inst, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(instance_module, "_PARITY_BLOCK", chunk)
            for nbhd in neighborhoods(inst):
                assert_same(combo_histogram(nbhd), loop_histogram(nbhd.q_size, nbhd.forms))

    def test_entangled_supports(self):
        entangled = [
            nbhd
            for nbhd in neighborhoods(ENTANGLED)
            if nbhd.q_size != 2 * sum(nbhd.pair_counts)
        ]
        assert len(entangled) == ENTANGLED.m and max(n.q_size for n in entangled) == 18
        for nbhd in entangled:
            assert_same(combo_histogram(nbhd), loop_histogram(nbhd.q_size, nbhd.forms))

    def test_block_boundaries_are_crossed(self):
        nbhd = max(neighborhoods(ENTANGLED), key=lambda n: n.q_size)
        want = loop_histogram(nbhd.q_size, nbhd.forms)
        for chunk in (1 << 10, 3000):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(analytic, "_WALK_MAX_Q", nbhd.q_size)
                mp.setattr(instance_module, "_PARITY_BLOCK", chunk)
                assert_same(combo_histogram(nbhd), want)

    def test_q_zero(self):
        nbhd = build_neighborhood(Instance(n=3, clauses=(Clause(0, 1, 2, 1),)), 0)
        assert nbhd.q_size == 0
        values, counts = combo_histogram(nbhd)
        assert_same((values, counts), loop_histogram(0, nbhd.forms))
        assert values.tolist() == [[0, 0, 0]] and counts.tolist() == [1]

    def test_forms_without_pairs(self):
        # only focal variable 0 meets other clauses: forms c2 and c3 are empty
        inst = Instance(
            n=7,
            clauses=(Clause(0, 1, 2, 0), Clause(0, 3, 4, 1), Clause(0, 3, 5, 0), Clause(0, 4, 6, 1)),
        )
        nbhd = build_neighborhood(inst, 0)
        assert nbhd.pair_counts == (3, 0, 0)
        assert_same(combo_histogram(nbhd), loop_histogram(nbhd.q_size, nbhd.forms))

    def test_blocks_hold_at_most_chunk_cells(self, monkeypatch):
        nbhd = max(neighborhoods(ENTANGLED), key=lambda n: n.q_size)
        pairs = sum(nbhd.pair_counts)
        shapes = []

        def spy(terms, weights, width):
            for first, grid in instance_module.parity_blocks(terms, weights, width):
                # one key's walk is a stack of one weight row
                assert grid.shape[:-2] == (1,)
                shapes.append(grid.shape[-2:])
                yield first, grid

        monkeypatch.setattr(analytic, "parity_blocks", spy)
        monkeypatch.setattr(analytic, "_WALK_MAX_Q", nbhd.q_size)
        monkeypatch.setattr(instance_module, "_PARITY_BLOCK", 4096)
        combo_histogram(nbhd)
        assert sum(rows * cols for rows, cols in shapes) == 1 << nbhd.q_size
        assert len(shapes) > 1
        for rows, cols in shapes:
            assert rows * cols <= 4096
            assert rows * pairs <= 4096 and cols * pairs <= 4096


@st.composite
def component_forms(draw):
    """(q, forms) whose pair graph mixes trees, cycles, repeated pairs and lone bits.

    Each component is a random tree over its bits plus a few random pairs,
    which close cycles or repeat a pair; a one-bit component has no pair.
    The bits are then shuffled, and each pair goes to a random form with a
    random sign.
    """
    pairs, q_size = [], 0
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(1, 5))
        bits = range(q_size, q_size + size)
        pairs += [(draw(st.integers(q_size, v - 1)), v) for v in bits[1:]]
        for _ in range(draw(st.integers(0, 3)) if size > 1 else 0):
            pairs.append(tuple(draw(st.lists(st.sampled_from(bits), min_size=2, max_size=2, unique=True))))
        q_size += size
    order = draw(st.permutations(range(q_size)))
    forms = ([], [], [])
    for a, b in draw(st.permutations(pairs)):
        forms[draw(st.integers(0, 2))].append((order[a], order[b], draw(st.sampled_from((1, -1)))))
    return q_size, tuple(tuple(form) for form in forms)


def cyclic_component_bits(q_size, forms):
    """The bit count of each component of the pair graph that holds a cycle."""
    pairs = [(a, b) for form in forms for a, b, _ in form]
    seen, sizes = set(), []
    for root in range(q_size):
        if root in seen:
            continue
        component, queue = {root}, [root]
        for v in queue:
            for a, b in pairs:
                for x, y in ((a, b), (b, a)):
                    if x == v and y not in component:
                        component.add(y)
                        queue.append(y)
        seen |= component
        if sum(a in component for a, _ in pairs) >= len(component):
            sizes.append(len(component))
    return sizes


def routed_histogram(q_size, forms, walk_max_q):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytic, "_WALK_MAX_Q", walk_max_q)
        got = analytic._layout_histograms(q_size, [forms])[0]
    assert not got[0].flags.writeable and not got[1].flags.writeable
    return got


class TestComponentRoute:
    @given(case=component_forms(), chunk=st.sampled_from((1, 8, 64, 1 << 16)))
    @example(case=(0, ((), (), ())), chunk=1 << 16)
    @example(case=(3, ((), (), ())), chunk=1 << 16)
    @example(case=(4, (((0, 1, 1), (1, 2, -1)), ((2, 3, 1),), ())), chunk=8)
    @example(case=(3, (((0, 1, 1),), ((1, 2, 1),), ((0, 2, -1),))), chunk=1)
    @example(case=(2, (((0, 1, 1),), ((0, 1, -1),), ())), chunk=8)
    @example(case=(2, (((0, 1, 1), (1, 0, 1)), (), ())), chunk=8)
    @example(
        case=(9, (((0, 1, 1), (3, 4, 1)), ((1, 2, -1), (5, 6, 1)), ((0, 2, 1), (6, 7, -1)))),
        chunk=64,
    )
    @settings(max_examples=80)
    def test_matches_loop(self, case, chunk):
        q_size, forms = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(instance_module, "_PARITY_BLOCK", chunk)
            got = routed_histogram(q_size, forms, -1)
        assert_same(got, loop_histogram(q_size, forms))

    @pytest.mark.parametrize("name", ["dense32", "entangled"])
    def test_every_key_of_the_bench_files(self, name):
        inst = generate_random(32, 48, 5, seed=1) if name == "dense32" else ENTANGLED
        keys = [key for key in EvaluationPlan(inst, "exact", 30).keys if not isinstance(key, int)]
        assert max(q_size for q_size, _, _ in keys) > analytic._WALK_MAX_Q
        for q_size, forms, _ in keys:
            want = loop_histogram(q_size, forms)
            for walk_max_q in (-1, analytic._WALK_MAX_Q):
                assert_same(routed_histogram(q_size, forms, walk_max_q), want)

    def test_walks_only_the_cyclic_components(self, monkeypatch):
        walked = []

        def spy(terms, weights, width):
            for first, grid in instance_module.parity_blocks(terms, weights, width):
                walked.append(grid.size)
                yield first, grid

        monkeypatch.setattr(analytic, "parity_blocks", spy)
        monkeypatch.setattr(instance_module, "_PARITY_BLOCK", 64)
        codes = 0
        for nbhd in neighborhoods(ENTANGLED):
            walked.clear()
            routed_histogram(nbhd.q_size, nbhd.forms, -1)
            assert sum(walked) == sum(1 << size for size in cyclic_component_bits(nbhd.q_size, nbhd.forms))
            codes += sum(walked)
        assert 0 < codes < sum(1 << nbhd.q_size for nbhd in neighborhoods(ENTANGLED))


    def test_counts_stay_within_int64(self):
        def path(q_size):
            return tuple((i, i + 1, 1) for i in range(q_size - 1)), (), ()

        values, counts = routed_histogram(62, path(62), analytic._WALK_MAX_Q)
        assert counts.min() > 0 and sum(counts.tolist()) == 1 << 62
        with pytest.raises(analytic.SupportTooLargeError, match="q=63"):
            routed_histogram(63, path(63), analytic._WALK_MAX_Q)


class TestComponentRouteAgainstStatevector:
    def test_exact_w_matches_the_statevector(self, monkeypatch):
        inst = generate_random(18, 36, 5, seed=1)
        pairs_total, support = inst.pair_stats
        largest = int(support[support != 2 * pairs_total].max())
        assert largest > analytic._WALK_MAX_Q
        widths = []
        counts = analytic._component_counts
        monkeypatch.setattr(
            analytic, "_component_counts", lambda *args: widths.append(args[2]) or counts(*args)
        )
        for gamma in (-0.5, 0.17, 0.3, 0.9):
            w = objective_expectation(inst, gamma, mode="exact").total
            state = prepare(inst, AngleParams(gamma=-gamma, beta=math.pi / 4))
            assert abs(w - expectation(state, inst)) <= 1e-9
        assert max(widths) == largest


def _refuse_rng(*args, **kwargs):
    raise AssertionError("Monte Carlo spins were drawn")


class TestMonteCarloMemoryRefusal:
    @pytest.fixture
    def one_mib(self, monkeypatch):
        pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(_caps.os, "sysconf", pages.__getitem__)

    def test_threshold_is_the_physical_memory(self, one_mib, monkeypatch):
        nbhd = max(neighborhoods(ENTANGLED), key=lambda n: n.q_size)
        per_sample = nbhd.q_size + analytic.MC_PEAK_BYTES_PER_SAMPLE
        fits = (1 << 20) // per_sample
        assert clause_term_mc(nbhd, 0.3, fits, seed=1).method == analytic.MC_METHOD
        monkeypatch.setattr(np.random, "default_rng", _refuse_rng)
        with pytest.raises(_caps.MemoryCapError, match="q=18 support"):
            clause_term_mc(nbhd, 0.3, fits + 1, seed=1)

    def test_estimate_covers_the_first_call_in_a_fresh_interpreter(self):
        # the first call also imports numpy.random, so it holds more than any later one
        q, peak = fresh(
            "import json, tracemalloc\n"
            "from pathlib import Path\n"
            "from qaoa_e3lin2 import analytic, instance\n"
            f"inst = instance.parse(Path({str(ENTANGLED_PATH)!r}).read_text())\n"
            "nbhd = analytic.build_neighborhood(inst, 0)\n"
            "tracemalloc.start()\n"
            "analytic.clause_term_mc(nbhd, 0.3, 100000)\n"
            "print(json.dumps([nbhd.q_size, tracemalloc.get_traced_memory()[1]]))\n"
        )
        assert q == 15
        assert peak <= 100000 * (q + analytic.MC_PEAK_BYTES_PER_SAMPLE)

    def test_eval_command_exits_two(self, one_mib, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", _refuse_rng)
        result = run_cli(
            ["eval", str(ENTANGLED_PATH), "--gamma", "0.2", "--mode", "mc", "--mc-samples", "1000000000"]
        )
        assert result.exit_code == 2
        assert "physical memory" in result.output
