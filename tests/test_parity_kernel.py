"""The shared clause-parity kernel against the per-clause loops it replaced.

Each ``loop_*`` function below is the implementation the package used before
every parity computation went through ``instance.clause_parity``; the tests
require the kernel's callers to reproduce them exactly (``np.array_equal``
or ``==``), not within a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoa_e3lin2 import _caps, sampler, statevector
from qaoa_e3lin2 import instance as instance_module
from qaoa_e3lin2.instance import (
    Assignment,
    Clause,
    Instance,
    clause_parity,
    objective_value,
    parity_grid,
    satisfied_count,
    serialize,
)
from qaoa_e3lin2.sampler import SampleReport, brute_force_max, run, satisfied_count_batch
from qaoa_e3lin2.statevector import (
    AngleParams,
    apply_cost_phase,
    cost_values,
    expectation,
    prepare,
    sample,
    sample_bits,
    uniform_state,
)

from conftest import bit_vectors, dumb_satisfied_count, instances, run_cli


def loop_cost_values(instance, n):
    idx = np.arange(1 << n, dtype=np.int64)
    total = np.zeros(1 << n, dtype=np.float64)
    for cl in instance.clauses:
        parity = ((idx >> cl.a) ^ (idx >> cl.b) ^ (idx >> cl.c)) & 1
        total += cl.sign * (1.0 - 2.0 * parity)
    total *= 0.5
    return total


def loop_satisfied_count_batch(instance, bits):
    counts = np.zeros(bits.shape[0], dtype=np.int64)
    for cl in instance.clauses:
        parity = bits[:, cl.a] ^ bits[:, cl.b] ^ bits[:, cl.c]
        counts += parity == cl.rhs
    return counts


def loop_brute_force_max(instance):
    codes = np.arange(1 << instance.n, dtype=np.int64)
    counts = np.zeros(codes.size, dtype=np.int64)
    for cl in instance.clauses:
        counts += (((codes >> cl.a) ^ (codes >> cl.b) ^ (codes >> cl.c)) & 1) == cl.rhs
    best_code = int(np.argmax(counts))
    best_count = int(counts[best_code])
    return best_count, Assignment([(best_code >> v) & 1 for v in range(instance.n)])


def loop_sample(state, count, seed):
    rng = np.random.default_rng(seed)
    probs = state.probabilities()
    probs = probs / probs.sum()
    draws = rng.choice(probs.size, size=count, p=probs)
    return [
        Assignment(((int(z) >> np.arange(state.n, dtype=np.int64)) & 1).astype(np.uint8))
        for z in draws
    ]


def loop_run(instance, gamma, beta, samples, seed):
    state = prepare(instance, AngleParams(gamma=gamma, beta=beta))
    predicted = instance.m / 2.0 + expectation(state, instance)
    draws = loop_sample(state, samples, seed)
    counts = loop_satisfied_count_batch(instance, np.stack([a.bits for a in draws]))
    best = int(np.argmax(counts))
    return SampleReport(
        gamma=gamma,
        beta=beta,
        analytic_gamma=-gamma,
        samples=samples,
        mean_satisfied=float(np.mean(counts)),
        best_satisfied=int(counts[best]),
        best_string=draws[best],
        predicted_mean=predicted,
        seed=seed,
    )


def spin_objective(instance, bits):
    spins = [1 - 2 * b for b in bits]
    return sum(cl.sign * spins[cl.a] * spins[cl.b] * spins[cl.c] for cl in instance.clauses) / 2.0


class TestKernel:
    @given(inst=instances(max_n=9, max_m=8), data=st.data())
    @settings(max_examples=40)
    def test_scalar_callers_match_the_helpers(self, inst, data):
        bits = data.draw(bit_vectors(inst.n))
        a = Assignment(bits)
        assert satisfied_count(inst, a) == dumb_satisfied_count(inst, bits)
        assert objective_value(inst, a) == spin_objective(inst, bits)

    def test_parity_broadcasts_over_leading_axes(self, tiny_instance):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(3, 4, tiny_instance.n), dtype=np.uint8)
        out = clause_parity(tiny_instance, bits)
        assert out.shape == (3, 4, tiny_instance.m)
        assert np.array_equal(out[1, 2], clause_parity(tiny_instance, bits[1, 2]))


class TestCostDiagonal:
    @given(inst=instances(min_n=3, max_n=11, max_m=10), extra=st.integers(0, 3))
    @settings(max_examples=60)
    def test_equals_the_clause_loop(self, inst, extra):
        # extra > 0 makes the register wider than the instance; odd and
        # even widths both occur
        n = inst.n + extra
        assert np.array_equal(cost_values(inst, n), loop_cost_values(inst, n))

    @pytest.mark.parametrize("inst_n, n", [(0, 1), (1, 1), (0, 2), (3, 3)])
    def test_tiny_registers(self, inst_n, n):
        inst = Instance(n=inst_n, clauses=(Clause(0, 1, 2, 1),) if inst_n == 3 else ())
        assert np.array_equal(cost_values(inst, n), loop_cost_values(inst, n))

    @given(inst=instances(max_n=10, max_m=10), gamma=st.floats(-3.0, 3.0))
    @settings(max_examples=40)
    def test_phase_table_is_bitwise_the_direct_exponential(self, inst, gamma):
        state = uniform_state(inst.n)
        got = apply_cost_phase(state, inst, gamma).amplitudes
        want = state.amplitudes * np.exp(-1j * gamma * cost_values(inst, inst.n))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestShots:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sample_bits_rows_are_the_sampled_assignments(self, tiny_instance, seed):
        state = prepare(tiny_instance, AngleParams(0.3, 0.7))
        bits = sample_bits(state, 50, seed=seed)
        assert bits.shape == (50, tiny_instance.n) and bits.dtype == np.uint8
        assert [Assignment(row) for row in bits] == sample(state, 50, seed=seed)
        assert sample(state, 50, seed=seed) == loop_sample(state, 50, seed)

    @pytest.mark.parametrize("gamma, beta, seed", [(0.3, 0.7, 5), (-0.45, math.pi / 4, 2)])
    def test_run_report_equals_the_loop_built_one(self, tiny_instance, gamma, beta, seed):
        got = run(tiny_instance, gamma, beta, samples=300, seed=seed)
        assert got == loop_run(tiny_instance, gamma, beta, 300, seed)

    @pytest.mark.parametrize("shape", [(4, 10), (4, 8), (9,), (2, 3, 9)])
    def test_batch_refuses_a_matrix_of_the_wrong_shape(self, tiny_instance, shape):
        with pytest.raises(ValueError, match="not \\(batch, 9\\)"):
            satisfied_count_batch(tiny_instance, np.zeros(shape, dtype=np.uint8))


@st.composite
def weighted_terms(draw):
    """(terms, weights, width): up to 8 terms of 1 to 3 distinct bits below width, integer weights."""
    width = draw(st.integers(0, 10))
    k = draw(st.integers(1, max(min(3, width), 1)))
    positions = st.lists(st.integers(0, max(width - 1, 0)), min_size=k, max_size=k, unique=True)
    rows = draw(st.lists(positions, max_size=8 if width else 0))
    weights = draw(st.lists(st.integers(-8, 8), min_size=len(rows), max_size=len(rows)))
    terms = np.array(rows, dtype=np.intp).reshape(len(rows), k)
    return terms, np.array(weights, dtype=np.float64), width


class TestParityBlocks:
    @pytest.mark.parametrize("block", [1, 5, 64])
    @given(case=weighted_terms())
    @settings(max_examples=40)
    def test_blocks_walk_every_code_once_within_the_block_size(self, case, block):
        terms, weights, width = case
        code_bits, term_parity = instance_module.code_bits, instance_module.term_parity
        bits_calls, sign_sizes = [], []

        def count_code_bits(codes, n):
            bits_calls.append(len(codes))
            return code_bits(codes, n)

        def size_term_parity(bits, terms):
            out = term_parity(bits, terms)
            sign_sizes.append(out.size)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(instance_module, "_PARITY_BLOCK", block)
            mp.setattr(instance_module, "code_bits", count_code_bits)
            mp.setattr(instance_module, "term_parity", size_term_parity)
            blocks = list(instance_module.parity_blocks(terms, weights, width))
        code = 0
        for first, grid in blocks:
            assert first == code and grid.size <= block
            rows, cols = grid.shape
            high, low = first + cols * np.arange(rows), np.arange(cols)
            assert np.array_equal(grid, parity_grid(terms, weights, width, high, low))
            code += grid.size
        assert code == 1 << width
        # one row of a +-1 matrix may alone be longer than the block
        assert max(sign_sizes) <= max(block, len(terms))
        assert len(bits_calls) == len(blocks) + 1


class TestBruteForceChunks:
    @pytest.mark.parametrize("chunk", [1, 4, 5, 16])
    @given(inst=instances(max_n=9, max_m=8))
    @settings(max_examples=15)
    def test_small_chunks_keep_count_and_lowest_maximizer(self, inst, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(instance_module, "_PARITY_BLOCK", chunk)
            got = brute_force_max(inst)
        assert got == loop_brute_force_max(inst)


def _refuse_allocation(*args, **kwargs):
    raise AssertionError("a dense array was allocated")


class TestMemoryRefusal:
    @pytest.fixture
    def no_dense_arrays(self, monkeypatch):
        for name in ("full", "empty", "zeros", "ones"):
            monkeypatch.setattr(np, name, _refuse_allocation)

    def test_refuses_forty_qubits_before_allocating(self, no_dense_arrays):
        with pytest.raises(_caps.MemoryCapError, match="40-qubit statevector"):
            uniform_state(40, n_max=40)

    def test_sample_command_exits_two(self, tmp_path, monkeypatch, no_dense_arrays):
        path = tmp_path / "wide.e3lin2"
        wide = Instance(n=40, clauses=(Clause(0, 1, 2, 0), Clause(37, 38, 39, 1)))
        path.write_text(serialize(wide), encoding="utf-8")
        result = run_cli(["sample", str(path), "--gamma", "0.2", "--n-max", "40"])
        assert result.exit_code == 2
        assert "physical memory" in result.output

    def test_refuses_a_trillion_shots_before_preparing(self, tiny_instance, no_dense_arrays):
        with pytest.raises(_caps.MemoryCapError, match="1000000000000 shots"):
            run(tiny_instance, 0.3, 0.7, samples=10**12)

    def test_sample_command_refuses_a_trillion_shots(self, tmp_path, tiny_instance, no_dense_arrays):
        path = tmp_path / "tiny.e3lin2"
        path.write_text(serialize(tiny_instance), encoding="utf-8")
        result = run_cli(["sample", str(path), "--gamma", "0.2", "--samples", str(10**12)])
        assert result.exit_code == 2
        assert "physical memory" in result.output

    def test_threshold_is_the_physical_memory(self, monkeypatch):
        # a machine with 1 MiB: 2^14 amplitudes at 64 bytes fit, 2^15 do not
        pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(_caps.os, "sysconf", pages.__getitem__)
        assert statevector.PEAK_BYTES_PER_AMPLITUDE << 14 == 1 << 20
        assert uniform_state(14).n == 14
        with pytest.raises(ValueError):
            uniform_state(15)
