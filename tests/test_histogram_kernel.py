"""Neighborhood histograms on the parity grid, against the loops they
replaced.

``loop_histogram`` and ``conftest.loop_eval_forms`` are the implementation
the package used before every 2^q enumeration went through
``instance.parity_blocks``: about seven int64 passes over every code per pair.
The tests require the new path to reproduce them exactly, with equal dtypes,
not within a tolerance. The last class checks that the Monte Carlo clause
term, the one enumeration-free path, refuses a run larger than physical
memory before it draws a spin.
"""

from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoa_e3lin2 import _caps, analytic
from qaoa_e3lin2 import instance as instance_module
from qaoa_e3lin2.analytic import (
    build_neighborhood,
    clause_term_mc,
    combo_histogram,
)
from qaoa_e3lin2.cli import main
from qaoa_e3lin2.instance import Clause, Instance, parity_grid, parse, term_parity

from conftest import instances, loop_eval_forms

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


def fresh_histogram(nbhd):
    analytic._histogram_cached.cache_clear()
    return combo_histogram(nbhd)


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
                assert_same(fresh_histogram(nbhd), loop_histogram(nbhd.q_size, nbhd.forms))

    def test_entangled_supports(self):
        entangled = [
            nbhd
            for nbhd in neighborhoods(ENTANGLED)
            if nbhd.q_size != 2 * sum(nbhd.pair_counts)
        ]
        assert len(entangled) == ENTANGLED.m and max(n.q_size for n in entangled) == 18
        for nbhd in entangled:
            assert_same(fresh_histogram(nbhd), loop_histogram(nbhd.q_size, nbhd.forms))

    def test_block_boundaries_are_crossed(self):
        nbhd = max(neighborhoods(ENTANGLED), key=lambda n: n.q_size)
        want = loop_histogram(nbhd.q_size, nbhd.forms)
        for chunk in (1 << 10, 3000):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(instance_module, "_PARITY_BLOCK", chunk)
                assert_same(fresh_histogram(nbhd), want)

    def test_q_zero(self):
        nbhd = build_neighborhood(Instance(n=3, clauses=(Clause(0, 1, 2, 1),)), 0)
        assert nbhd.q_size == 0
        values, counts = fresh_histogram(nbhd)
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
        assert_same(fresh_histogram(nbhd), loop_histogram(nbhd.q_size, nbhd.forms))

    def test_blocks_hold_at_most_chunk_cells(self, monkeypatch):
        nbhd = max(neighborhoods(ENTANGLED), key=lambda n: n.q_size)
        pairs = sum(nbhd.pair_counts)
        shapes = []

        def spy(terms, weights, width):
            for first, grid in instance_module.parity_blocks(terms, weights, width):
                shapes.append(grid.shape)
                yield first, grid

        monkeypatch.setattr(analytic, "parity_blocks", spy)
        monkeypatch.setattr(instance_module, "_PARITY_BLOCK", 4096)
        fresh_histogram(nbhd)
        assert sum(rows * cols for rows, cols in shapes) == 1 << nbhd.q_size
        assert len(shapes) > 1
        for rows, cols in shapes:
            assert rows * cols <= 4096
            assert rows * pairs <= 4096 and cols * pairs <= 4096


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

    def test_eval_command_exits_two(self, one_mib, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", _refuse_rng)
        result = CliRunner().invoke(
            main,
            ["eval", str(ENTANGLED_PATH), "--gamma", "0.2", "--mode", "mc", "--mc-samples", "1000000000"],
        )
        assert result.exit_code == 2
        assert "physical memory" in result.output
