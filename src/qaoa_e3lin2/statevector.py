"""Dense statevector reference simulator for the level-1 ansatz.

Prepares ``exp(-i beta B) exp(-i gamma C) |s>`` where ``|s>`` is the uniform
superposition, ``B`` is the sum of single-qubit X operators and ``C`` is the
diagonal spin objective of an instance. Exact expectations and Born-rule
samples from this module are the ground truth the fast analytic evaluator is
checked against.

Bit order: variable v is bit v of the basis-state integer index
(little-endian), so index ``sum_v x_v 2^v`` encodes assignment x.

The cost diagonal comes block by block from ``instance.clause_sum_blocks``
(twice C, exact). C takes at most 2m+1 half-integer levels:
``apply_cost_phase`` evaluates ``exp(-i gamma C)`` once per level and gathers
each block's phases from that table, through one reused index buffer. The
uniform state is one amplitude broadcast to all 2^n indices (stride 0). Its
norm is checked from that amplitude, and the cost phase multiplies the level
table by it once, amplitude first as in the per-amplitude product, then
gathers straight into the phased state. So every entry is bitwise that
product, and ``prepare`` holds no 2^n array but the phased state.

The mixer updates the state in place, a cache-sized tile at a time. The low
``_TILE_BITS`` qubits pair amplitudes inside one row block of 2^_TILE_BITS,
so each block takes all of them while it is in cache. Its first
``_TRANSPOSED_BITS`` qubits run on a transposed copy of the block, where a
qubit's pair partners are whole rows apart instead of runs of 1 to 64
amplitudes, which the ufuncs walk slowly; the copy goes back and the rest of
the low qubits run on the row. The high qubits then run over column tiles,
copied into a contiguous buffer and back. Meanwhile numpy's ufunc buffer is
``_UFUNC_BUFFER`` elements, small enough to stay in cache. Each qubit is
three whole-block ufunc calls: ``i sin(beta) a`` of every amplitude into
one scratch buffer, ``cos(beta) a`` in place, and a subtraction of each
pair's partner from the scratch buffer through a view with the pair
reversed. Every amplitude so gets ``cos(beta) a0 - 1j sin(beta) a1`` with the
same scalars and operand order as the plain per-qubit loop, and goes through
qubits 0..n-1 in order, so the amplitudes are bitwise those of that loop,
sign bits included. Fusing gates would be faster but moves amplitudes by
rounding.

``QuantumState.probabilities`` squares ``|a|`` in place, bitwise
``np.abs(a) ** 2`` in one float64 array, and ``draw_bits`` normalises it in
place. ``sampler.run`` drops its state before it draws, so the draw holds
only the probabilities and ``choice``'s cumulative array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _caps
from .instance import Assignment, Instance, clause_sum_blocks, code_bits

NORM_TOL = 1e-12

#: Bytes per amplitude that ``prepare`` plus ``expectation`` hold at their
#: peak: tracemalloc measures 32.7 at n=16, 20.5 at n=18 and 17.2 at n=20,
#: which is the peak of ``prepare`` alone, since ``expectation`` takes only
#: 1.2 above its state at n=20 (``scripts/time_statevector.py``). At n=16 one
#: cost block is the whole register, and its grid and index buffer are 16 of
#: the 32.7. ``sampler.run`` peaks at 24.0 at n=18 and n=20, with the state
#: and its probabilities. Their outputs hold at any BLAS thread count: the
#: cost blocks are exact integer sums, and no dot in ``expectation`` is long
#: enough for OpenBLAS to thread.
PEAK_BYTES_PER_AMPLITUDE = 64

#: log2 of the amplitudes the mixer updates while they stay in cache: a row
#: block for the low qubits, a column tile for the high ones. 2^15 complex128
#: amplitudes are 512 KiB.
_TILE_BITS = 15

#: Low qubits the mixer runs on a transposed copy of each row block, where a
#: qubit's pair partners are whole rows apart rather than runs of 1 to 64
#: amplitudes. Read at call time.
_TRANSPOSED_BITS = 7

#: Elements of numpy's ufunc buffer while the mixer runs. The pair-reversed
#: subtraction walks runs shorter than the buffer through a buffer copy: 128
#: KiB at numpy's default of 8192, 16 KiB at 1024, where runs of 2^10 and up
#: need none. That took 14% off the n=20 mixer; a buffer moves no value.
_UFUNC_BUFFER = 1024

#: Entries of one dot in ``expectation``; OpenBLAS threads only those above 10,000.
_DOT_CHUNK = 1 << 13


@dataclass(frozen=True)
class AngleParams:
    """State-preparation angles, both in radians."""

    gamma: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and math.isfinite(self.beta)):
            raise ValueError(f"angles must be finite, got gamma={self.gamma}, beta={self.beta}")


@dataclass(frozen=True, eq=False)
class QuantumState:
    """n qubits as a dense complex amplitude vector of length 2^n."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes for n={self.n}, got shape {amp.shape}")
        _check_norm(amp)
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.probabilities())))

    def probabilities(self) -> np.ndarray:
        """|a|^2 of every amplitude, squared in place: bitwise ``np.abs(a) ** 2`` in one 2^n array."""
        probs = np.abs(self.amplitudes)
        return np.square(probs, out=probs)


def _check_norm(amp: np.ndarray) -> None:
    """Refuse a state whose squared norm is off 1 by more than ``NORM_TOL``.

    A contiguous state is summed in one pass over its float64 view, with no
    temporary. A broadcast state (stride 0, as the uniform state is) holds
    one amplitude, so its squared norm is ``size * |a|^2``.
    """
    if amp.flags.c_contiguous:
        f = amp.view(np.float64)
        sq_norm = np.einsum("i,i->", f, f)
    elif amp.strides == (0,):
        sq_norm = amp.size * np.abs(amp[0]) ** 2
    else:
        sq_norm = np.sum(np.abs(amp) ** 2)
    err = abs(float(sq_norm) - 1.0)
    if err > NORM_TOL:
        raise FloatingPointError(f"state norm drifted by {err:.3e} (> {NORM_TOL})")


def cost_values(instance: Instance, n: int) -> np.ndarray:
    """Spin objective C(z) for every basis index of an n-qubit register."""
    if n < instance.n:
        raise ValueError(f"register n={n} smaller than instance n={instance.n}")
    values = np.empty(1 << n)
    for first, grid in clause_sum_blocks(instance, n):
        np.multiply(grid.ravel(), 0.5, out=values[first : first + grid.size])
    return values


def uniform_state(n: int, n_max: int | None = None) -> QuantumState:
    """The uniform superposition |s>, an eigenstate of every X, as one broadcast amplitude."""
    n_max = _caps.N_MAX_DEFAULT if n_max is None else n_max
    if not 1 <= n <= n_max:
        raise ValueError(f"n must be in [1, {n_max}], got {n}")
    _caps.require_memory(PEAK_BYTES_PER_AMPLITUDE << n, f"a {n}-qubit statevector")
    amp = np.broadcast_to(np.complex128(2.0 ** (-n / 2.0)), 1 << n)
    return QuantumState(n=n, amplitudes=amp)


def apply_cost_phase(state: QuantumState, instance: Instance, gamma: float) -> QuantumState:
    """Multiply amplitude[z] by exp(-i gamma C(z)); diagonal, norm preserving."""
    if state.n < instance.n:
        raise ValueError(f"state has {state.n} qubits, instance needs {instance.n}")
    amp = state.amplitudes
    levels = np.arange(-instance.m, instance.m + 1) * 0.5
    table = np.exp(-1j * gamma * levels)
    uniform = amp.strides == (0,)
    if uniform:
        # amplitude times phase, as the per-amplitude product below, once per level
        table = np.multiply(amp[:1], table)
    phased = np.empty(1 << state.n, dtype=np.complex128)
    index = None
    for first, grid in clause_sum_blocks(instance, state.n):
        grid += instance.m
        if index is None:  # the first block is the largest
            index = np.empty(grid.size, dtype=np.intp)
        codes, block = index[: grid.size], phased[first : first + grid.size]
        np.copyto(codes, grid.ravel(), casting="unsafe")
        np.take(table, codes, out=block, mode="clip")  # "raise" would buffer
        if not uniform:
            np.multiply(amp[first : first + grid.size], block, out=block)
        del grid  # free this block before the next one is built
    return QuantumState(n=state.n, amplitudes=phased)


def _mix_bits(block: np.ndarray, bits: range, cos_b: float, isin_b: complex, tmp: np.ndarray) -> None:
    """exp(-i beta X) in place on the given bits of a contiguous block, in order.

    ``tmp`` holds at least the block.
    """
    tmp = tmp[: block.size]
    for bit in bits:
        np.multiply(isin_b, block, out=tmp)
        np.multiply(cos_b, block, out=block)
        pairs = block.reshape(-1, 2, 1 << bit)
        np.subtract(pairs, tmp.reshape(pairs.shape)[:, ::-1, :], out=pairs)


def _mix_in_place(amp: np.ndarray, n: int, beta: float) -> None:
    """exp(-i beta X) on every qubit of an n-qubit amplitude vector, in place."""
    cos_b = math.cos(beta)
    isin_b = 1j * math.sin(beta)
    low = min(n, _TILE_BITS)
    high = n - low
    flip = min(low, _TRANSPOSED_BITS)
    # A column tile has 2^high rows, and at least one column when high > low.
    col_bits = max(0, low - high)
    tmp = np.empty(1 << max(low, high), dtype=np.complex128)
    buf = np.empty(1 << max(low, high), dtype=np.complex128)
    rows = amp.reshape(1 << high, 1 << low)
    # qubit b < flip is bit b of a row's column index, and bit low - flip + b
    # of the transposed block
    block = buf[: 1 << low].reshape(1 << flip, 1 << (low - flip))
    bufsize = np.setbufsize(_UFUNC_BUFFER)
    try:
        for row in rows:
            by_col = row.reshape(1 << (low - flip), 1 << flip).T
            np.copyto(block, by_col)
            _mix_bits(block.reshape(-1), range(low - flip, low), cos_b, isin_b, tmp)
            np.copyto(by_col, block)
            _mix_bits(row, range(flip, low), cos_b, isin_b, tmp)
        if not high:
            return
        cols = 1 << col_bits
        tile = buf.reshape(1 << high, cols)
        for c0 in range(0, 1 << low, cols):
            np.copyto(tile, rows[:, c0 : c0 + cols])
            _mix_bits(tile.reshape(-1), range(col_bits, col_bits + high), cos_b, isin_b, tmp)
            np.copyto(rows[:, c0 : c0 + cols], tile)
    finally:
        np.setbufsize(bufsize)


def apply_mixer(state: QuantumState, beta: float) -> QuantumState:
    """Apply exp(-i beta X) = cos(beta) I - i sin(beta) X to every qubit."""
    amp = state.amplitudes.copy()
    _mix_in_place(amp, state.n, beta)
    return QuantumState(n=state.n, amplitudes=amp)


def prepare(instance: Instance, params: AngleParams, n_max: int | None = None) -> QuantumState:
    """The level-1 state: mixer after cost phase on the uniform state.

    The phased state is this function's own, so it is mixed without a copy.
    """
    state = apply_cost_phase(uniform_state(instance.n, n_max=n_max), instance, params.gamma)
    _mix_in_place(state.amplitudes, state.n, params.beta)
    return QuantumState(n=state.n, amplitudes=state.amplitudes)


def expectation(state: QuantumState, instance: Instance) -> float:
    """<state| C |state> for the diagonal spin objective; exactly real.

    Twice C comes block by block from ``clause_sum_blocks``; ``math.fsum``
    adds its dots with the probabilities, which are squared ``_DOT_CHUNK``
    amplitudes at a time, so no 2^n array is held and the value does not
    depend on the BLAS thread count.
    """
    if state.n < instance.n:
        raise ValueError(f"register n={state.n} smaller than instance n={instance.n}")
    partials = []
    for first, grid in clause_sum_blocks(instance, state.n):
        a, c = state.amplitudes[first : first + grid.size], grid.ravel()
        partials += [
            np.dot(np.abs(a[i : i + _DOT_CHUNK]) ** 2, c[i : i + _DOT_CHUNK]) for i in range(0, c.size, _DOT_CHUNK)
        ]
    return 0.5 * math.fsum(partials)


def sample_bits(state: QuantumState, count: int, seed: int = 0) -> np.ndarray:
    """Draw i.i.d. computational-basis measurements as a (count, n) uint8 bit matrix.

    Deterministic per seed; row i holds the bits of the i-th measured index.
    """
    return draw_bits(state.probabilities(), count, seed)


def draw_bits(probs: np.ndarray, count: int, seed: int = 0) -> np.ndarray:
    """``sample_bits`` from a state's ``probabilities()``, which it normalises in place.

    A caller that drops the state first draws with only the probabilities
    and ``choice``'s cumulative array held.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    probs /= probs.sum()  # in place: no second 2^n array
    codes = np.random.default_rng(seed).choice(probs.size, size=count, p=probs)
    return code_bits(codes, probs.size.bit_length() - 1)


def sample(state: QuantumState, count: int, seed: int = 0) -> list[Assignment]:
    """``sample_bits`` with every row wrapped in an ``Assignment``."""
    return [Assignment(row) for row in sample_bits(state, count, seed)]
