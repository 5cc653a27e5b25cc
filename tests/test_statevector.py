import itertools
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoa_e3lin2 import instance as instance_module
from qaoa_e3lin2 import statevector
from qaoa_e3lin2.instance import Assignment, Clause, Instance, generate_random, objective_value
from qaoa_e3lin2.statevector import (
    AngleParams,
    QuantumState,
    apply_cost_phase,
    apply_mixer,
    cost_values,
    expectation,
    prepare,
    sample,
    sample_bits,
    uniform_state,
)

from conftest import instances

STATE18 = pathlib.Path(__file__).resolve().parent / "golden" / "state18.e3lin2"


def all_assignment_objectives(inst):
    out = []
    for code in range(1 << inst.n):
        bits = [(code >> v) & 1 for v in range(inst.n)]
        out.append(objective_value(inst, Assignment(bits)))
    return np.array(out)


class TestAngleParams:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AngleParams(gamma=math.nan, beta=0.0)
        with pytest.raises(ValueError):
            AngleParams(gamma=0.0, beta=math.inf)


class TestUniformState:
    def test_amplitudes(self):
        state = uniform_state(3)
        assert state.n == 3
        np.testing.assert_allclose(state.amplitudes, np.full(8, 8**-0.5))
        assert state.norm() == pytest.approx(1.0)

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            uniform_state(7, n_max=6)
        with pytest.raises(ValueError):
            uniform_state(0)


class TestCostValues:
    def test_single_clause_table(self):
        inst = Instance(n=3, clauses=(Clause(0, 1, 2, 0),))
        values = cost_values(inst, 3)
        # index bit v is x_v; parity 0 satisfies rhs=0 giving +1/2
        assert values[0b000] == 0.5
        assert values[0b001] == -0.5
        assert values[0b011] == 0.5
        assert values[0b111] == -0.5

    @given(inst=instances(max_n=6, max_m=6))
    @settings(max_examples=40)
    def test_matches_objective_value(self, inst):
        np.testing.assert_allclose(
            cost_values(inst, inst.n), all_assignment_objectives(inst), atol=1e-12
        )


class TestLayers:
    def test_cost_phase_preserves_probabilities(self, tiny_instance):
        state = uniform_state(tiny_instance.n)
        phased = apply_cost_phase(state, tiny_instance, 0.37)
        np.testing.assert_allclose(phased.probabilities(), state.probabilities())

    @pytest.mark.parametrize(
        "inst, n",
        [
            (Instance(n=4, clauses=()), 4),
            (generate_random(n=7, m=6, d_bound=2, seed=3), 9),
            (instance_module.parse(STATE18.read_text(encoding="utf-8")), 18),
        ],
        ids=["m0", "n7-in-9", "state18"],
    )
    def test_cost_phase_of_the_broadcast_uniform_state_is_that_of_its_full_array(self, inst, n):
        # the broadcast state's pre-scaled level table gives every amplitude
        # bitwise the product that the full state gets one amplitude at a time
        uniform = uniform_state(n)
        full = QuantumState(n=n, amplitudes=np.full(1 << n, uniform.amplitudes[0]))
        assert uniform.amplitudes.strides == (0,) and full.amplitudes.flags.c_contiguous
        for gamma in (0.0, -0.2, 0.37, 2.9):
            want = apply_cost_phase(full, inst, gamma).amplitudes.view(np.uint64)
            assert np.array_equal(apply_cost_phase(uniform, inst, gamma).amplitudes.view(np.uint64), want)

    def test_cost_phase_at_zero_is_identity(self, tiny_instance):
        state = uniform_state(tiny_instance.n)
        same = apply_cost_phase(state, tiny_instance, 0.0)
        np.testing.assert_array_equal(same.amplitudes, state.amplitudes)

    def test_mixer_at_zero_is_identity(self):
        state = uniform_state(4)
        same = apply_mixer(state, 0.0)
        np.testing.assert_allclose(same.amplitudes, state.amplitudes)

    def test_mixer_at_half_pi_flips_all_bits(self):
        rng = np.random.default_rng(7)
        amp = rng.normal(size=8) + 1j * rng.normal(size=8)
        amp /= np.linalg.norm(amp)
        state = QuantumState(n=3, amplitudes=amp)
        flipped = apply_mixer(state, math.pi / 2)
        # e^{-i (pi/2) X} = -i X per qubit: amplitudes swap 0<->1 on every
        # bit (index i -> 2^n-1-i) and pick up a global (-i)^n phase
        np.testing.assert_allclose(flipped.amplitudes, (-1j) ** 3 * amp[::-1], atol=1e-12)

    def test_mixer_preserves_norm(self):
        state = uniform_state(5)
        assert apply_mixer(state, 1.234).norm() == pytest.approx(1.0, abs=1e-12)

    def test_mixer_restores_numpy_ufunc_buffer_size(self):
        bufsize = np.getbufsize()
        apply_mixer(uniform_state(5), 1.234)
        assert np.getbufsize() == bufsize != statevector._UFUNC_BUFFER


def loop_mixer(amp, n, beta):
    """The plain per-qubit mixer loop, each qubit over the whole state."""
    amp = amp.copy()
    cos_b = math.cos(beta)
    sin_b = math.sin(beta)
    for v in range(n):
        view = amp.reshape(1 << (n - 1 - v), 2, 1 << v)
        a0 = view[:, 0, :].copy()
        a1 = view[:, 1, :]
        view[:, 0, :] = cos_b * a0 - 1j * sin_b * a1
        view[:, 1, :] = cos_b * a1 - 1j * sin_b * a0
    return amp


def assert_bitwise_equal(got, want):
    got, want = got.view(np.float64), want.view(np.float64)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


#: Transposed-qubit counts: none, one, a few, and the default; with a row block
#: of 2^2 or 2^3 amplitudes, some are at or above the block's own bits.
TRANSPOSED = (0, 1, 3, statevector._TRANSPOSED_BITS)


def assert_mixed_as_the_loop(state, beta, want, monkeypatch):
    """``apply_mixer`` is bitwise ``want`` at every transposed-qubit count and ufunc buffer size."""
    for transposed, buffer in itertools.product(TRANSPOSED, (statevector._UFUNC_BUFFER, 8192)):
        monkeypatch.setattr(statevector, "_TRANSPOSED_BITS", transposed)
        monkeypatch.setattr(statevector, "_UFUNC_BUFFER", buffer)
        assert_bitwise_equal(apply_mixer(state, beta).amplitudes, want)


class TestTiledMixer:
    # n runs below, at and above k = tile_bits, and for k = 2 and 3 past 2k,
    # where a column tile is one column of 2^(n-k) rows
    @pytest.mark.parametrize("tile_bits", [2, 3, statevector._TILE_BITS])
    def test_bitwise_equal_to_the_loop(self, tile_bits, monkeypatch):
        monkeypatch.setattr(statevector, "_TILE_BITS", tile_bits)
        rng = np.random.default_rng(tile_bits)
        phase_instance = Instance(n=3, clauses=(Clause(0, 1, 2, 1),))
        for n in range(1, min(17, 2 * tile_bits + 4) + 1):
            amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amp /= np.linalg.norm(amp)
            state = QuantumState(n=n, amplitudes=amp)
            before = amp.copy()
            for beta in (0.0, math.pi / 4, math.pi / 2, -1.1, 2.9):
                assert_mixed_as_the_loop(state, beta, loop_mixer(before, n, beta), monkeypatch)
            if n >= phase_instance.n:
                apply_cost_phase(state, phase_instance, 0.7)
            assert_bitwise_equal(state.amplitudes, before)

    @pytest.mark.parametrize("tile_bits", [2, 3, statevector._TILE_BITS])
    def test_signed_zero_imaginary_parts_are_bitwise_those_of_the_loop(self, tile_bits, monkeypatch):
        # a real state with imaginary parts of +0 and -0, phased at gamma=0,
        # keeps them; beta=0 and pi/2 then add products that are zeros too
        monkeypatch.setattr(statevector, "_TILE_BITS", tile_bits)
        rng = np.random.default_rng(tile_bits)
        inst = generate_random(n=5, m=6, d_bound=3, seed=2)
        for n in (inst.n, min(17, 2 * tile_bits + 3)):
            amp = np.empty(1 << n, dtype=np.complex128)
            amp.real = rng.normal(size=1 << n)
            amp.real /= np.linalg.norm(amp.real)
            amp.imag = np.copysign(0.0, rng.normal(size=1 << n))
            state = apply_cost_phase(QuantumState(n=n, amplitudes=amp), inst, 0.0)
            signs = np.signbit(state.amplitudes.imag)
            assert signs.any() and not signs.all() and not state.amplitudes.imag.any()
            for beta in (0.0, math.pi / 2):
                assert_mixed_as_the_loop(state, beta, loop_mixer(state.amplitudes, n, beta), monkeypatch)

    def test_peak_memory_is_within_the_estimate(self):
        n = 16
        inst = generate_random(n=n, m=20, d_bound=3, seed=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            expectation(prepare(inst, AngleParams(gamma=-0.2, beta=math.pi / 4)), inst)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= statevector.PEAK_BYTES_PER_AMPLITUDE << n


def reference_states(inst, amp, gamma, beta):
    """C on the register of ``amp``, ``amp`` phased, and mixed, each over the whole register at once.

    The phases are gathered from the level table at the index 2C + m of each
    code, multiplied into ``amp``, and mixed by the plain per-qubit loop.
    """
    n = amp.size.bit_length() - 1
    cost = np.tile(all_assignment_objectives(inst), 1 << (n - inst.n))
    table = np.exp(-1j * gamma * np.arange(-inst.m, inst.m + 1) * 0.5)
    phased = amp * table[(2 * cost).astype(np.intp) + inst.m]
    return cost, phased, loop_mixer(phased, n, beta)


class TestManyBlocks:
    # blocks of 1, 8 and 64 codes split every register below into several
    @pytest.mark.parametrize("block", [1, 8, 64])
    @pytest.mark.parametrize(
        "inst",
        [Instance(n=4, clauses=()), generate_random(n=7, m=6, d_bound=2, seed=3)],
        ids=["m0", "n7"],
    )
    def test_bitwise_equal_to_the_whole_register(self, inst, block, monkeypatch):
        monkeypatch.setattr(instance_module, "_PARITY_BLOCK", block)
        rng = np.random.default_rng(block)
        for gamma, beta in ((0.0, 0.0), (-0.2, math.pi / 4), (2.9, -1.1)):
            # the wider register has more qubits than the instance
            for n in (inst.n, inst.n + 2):
                uniform = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128)
                cost, phased, mixed = reference_states(inst, uniform, gamma, beta)
                assert_bitwise_equal(cost_values(inst, n), cost)
                assert_bitwise_equal(apply_cost_phase(uniform_state(n), inst, gamma).amplitudes, phased)
                if n == inst.n:
                    assert_bitwise_equal(prepare(inst, AngleParams(gamma, beta)).amplitudes, mixed)
                # a state that is not uniform shows which amplitude meets which
                # phase; numpy rounds a one-element in-place multiply on its own
                # path, so blocks of one code may differ in the last bit
                amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                amp /= np.linalg.norm(amp)
                _, phased, _ = reference_states(inst, amp, gamma, beta)
                got = apply_cost_phase(QuantumState(n=n, amplitudes=amp), inst, gamma)
                np.testing.assert_allclose(got.amplitudes, phased, rtol=1e-15, atol=0)


def traced(fn, *args):
    """``fn(*args)``, the bytes it still holds once it returns, and its peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - base, peak - base


class TestMemory:
    def test_uniform_state_holds_one_amplitude(self):
        state, held, _ = traced(uniform_state, 18)
        assert state.amplitudes.shape == (1 << 18,)
        assert held < 1024

    def test_prepare_peaks_below_32_bytes_per_amplitude(self):
        inst = instance_module.parse(STATE18.read_text(encoding="utf-8"))
        _, _, peak = traced(prepare, inst, AngleParams(gamma=-0.2, beta=math.pi / 4))
        assert peak < 32 << inst.n

    def test_expectation_peaks_below_12_bytes_per_amplitude_above_its_state(self):
        # no 2^n probabilities or cost diagonal are held
        inst = generate_random(n=20, m=26, d_bound=3, seed=1)
        state = prepare(inst, AngleParams(gamma=-0.2, beta=math.pi / 4))
        _, _, peak = traced(expectation, state, inst)
        assert peak < 12 << inst.n


    def test_expectation_peaks_below_2_bytes_per_amplitude_above_its_state(self):
        # one _DOT_CHUNK of probabilities and one cost block at a time; the
        # block walk's own buffers alone are 9 bytes per amplitude at n=16
        inst = generate_random(n=20, m=26, d_bound=3, seed=1)
        state = prepare(inst, AngleParams(gamma=-0.2, beta=math.pi / 4))
        _, _, peak = traced(expectation, state, inst)
        assert peak < 2 << inst.n


    def test_sample_bits_peaks_below_17_bytes_per_amplitude_above_its_state(self):
        # the 2^n probabilities, normalised in place, and choice's cumulative
        # array beside them, plus the shots
        inst = instance_module.parse(STATE18.read_text(encoding="utf-8"))
        state = prepare(inst, AngleParams(gamma=-0.2, beta=math.pi / 4))
        sample_bits(state, 1)  # the first draw imports numpy.random, which tracemalloc counts
        _, _, peak = traced(sample_bits, state, 10000, 1)
        assert peak < 17 << inst.n

    def test_the_in_place_normalisation_draws_the_same_shots(self):
        inst = instance_module.parse(STATE18.read_text(encoding="utf-8"))
        state = prepare(inst, AngleParams(gamma=-0.2, beta=math.pi / 4))
        probs = state.probabilities()
        codes = np.random.default_rng(3).choice(probs.size, size=500, p=probs / probs.sum())
        assert np.array_equal(sample_bits(state, 500, 3), instance_module.code_bits(codes, inst.n))


class TestPrepareAndExpectation:
    def test_zero_angles_give_zero_expectation(self, tiny_instance):
        state = prepare(tiny_instance, AngleParams(gamma=0.0, beta=0.0))
        assert expectation(state, tiny_instance) == pytest.approx(0.0, abs=1e-12)

    def test_mixer_alone_keeps_uniform_expectation(self, tiny_instance):
        # the uniform state is X-invariant, so any beta leaves the mean at 0
        state = prepare(tiny_instance, AngleParams(gamma=0.0, beta=0.61))
        assert expectation(state, tiny_instance) == pytest.approx(0.0, abs=1e-12)

    @given(inst=instances(max_n=7, max_m=6), gamma=st.floats(-1.5, 1.5), beta=st.floats(-1.5, 1.5))
    @settings(max_examples=30)
    def test_expectation_matches_probability_average(self, inst, gamma, beta):
        state = prepare(inst, AngleParams(gamma=gamma, beta=beta))
        by_hand = float(np.dot(state.probabilities(), all_assignment_objectives(inst)))
        assert expectation(state, inst) == pytest.approx(by_hand, abs=1e-10)

    def test_qubit_cap(self, tiny_instance):
        with pytest.raises(ValueError):
            prepare(tiny_instance, AngleParams(0.1, 0.2), n_max=5)

    def test_expectation_is_bitwise_that_of_the_whole_probability_array(self):
        # the dots and their fsum as when the probabilities were one 2^n array
        inst = instance_module.parse(STATE18.read_text(encoding="utf-8"))
        state = prepare(inst, AngleParams(gamma=-0.2, beta=math.pi / 4))
        probs, chunk, partials = state.probabilities(), statevector._DOT_CHUNK, []
        for first, grid in instance_module.clause_sum_blocks(inst, inst.n):
            p, c = probs[first : first + grid.size], grid.ravel()
            partials += [np.dot(p[i : i + chunk], c[i : i + chunk]) for i in range(0, c.size, chunk)]
        assert expectation(state, inst) == 0.5 * math.fsum(partials)


class TestNormGuard:
    def test_corrupted_state_rejected(self):
        with pytest.raises(FloatingPointError):
            QuantumState(n=2, amplitudes=np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))

    def test_a_norm_off_by_1e_11_is_rejected_on_both_paths(self):
        n = 10
        rng = np.random.default_rng(3)
        amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amp /= np.linalg.norm(amp)
        uniform = np.broadcast_to(np.complex128(2.0 ** (-n / 2.0)), 1 << n)
        assert amp.flags.c_contiguous and not uniform.flags.c_contiguous
        for unit in (amp, uniform):
            QuantumState(n=n, amplitudes=unit)
            with pytest.raises(FloatingPointError):
                QuantumState(n=n, amplitudes=unit * math.sqrt(1.0 + 1e-11))
            with pytest.raises(FloatingPointError):
                QuantumState(n=n, amplitudes=np.broadcast_to(unit * math.sqrt(1.0 - 1e-11), 1 << n))


    def test_a_broadcast_amplitude_is_checked_from_itself(self):
        # size * |a|^2 against the tolerance, with no 2^n temporaries; a
        # strided state that is not broadcast is still summed in full
        for n in range(1, 25):
            assert uniform_state(n).amplitudes.strides == (0,)
        n = 13
        a = 2.0 ** (-n / 2.0)
        for scale, ok in ((1.0, True), (1.0 + 1e-13, True), (1.0 + 1e-11, False), (1.0 - 1e-11, False)):
            amp = np.broadcast_to(np.complex128(a * math.sqrt(scale)), 1 << n)
            assert amp.strides == (0,)
            strided = np.repeat(amp[:1], 2 << n)[::2]
            assert not strided.flags.c_contiguous and strided.strides != (0,)
            for state in (amp, strided):
                if ok:
                    QuantumState(n=n, amplitudes=state)
                else:
                    with pytest.raises(FloatingPointError):
                        QuantumState(n=n, amplitudes=state)


class TestSample:
    def test_deterministic(self):
        state = uniform_state(4)
        assert sample(state, 12, seed=3) == sample(state, 12, seed=3)
        assert sample(state, 12, seed=3) != sample(state, 12, seed=4)

    def test_each_draw_is_a_read_only_copy_of_its_sample_bits_row(self):
        state = prepare(generate_random(n=6, m=5, d_bound=2, seed=3), AngleParams(gamma=0.4, beta=math.pi / 8))
        bits = sample_bits(state, 40, seed=2)
        draws = sample(state, 40, seed=2)
        assert [a.bits.tolist() for a in draws] == bits.tolist()
        assert all(not a.bits.flags.writeable and a.bits.base is None for a in draws)

    def test_assignment_shape(self):
        state = uniform_state(5)
        draws = sample(state, 7, seed=0)
        assert len(draws) == 7
        assert all(a.n == 5 for a in draws)

    def test_concentrated_state_samples_its_basis_vector(self):
        amp = np.zeros(8, dtype=complex)
        amp[0b101] = 1.0
        state = QuantumState(n=3, amplitudes=amp)
        draws = sample(state, 20, seed=1)
        # bit v of the index is x_v: index 0b101 has x_0=1, x_1=0, x_2=1
        assert all(a == Assignment([1, 0, 1]) for a in draws)

    def test_uniform_frequencies(self):
        state = uniform_state(2)
        draws = sample(state, 4000, seed=5)
        freq = np.bincount([int("".join(map(str, reversed(a.bits.tolist()))), 2) for a in draws], minlength=4)
        assert freq.min() > 800  # 4 sigma below the mean of 1000 is ~913
