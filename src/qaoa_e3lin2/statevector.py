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
each block's phases from that table. The uniform state is one broadcast
amplitude, so ``prepare`` holds no 2^n array but the phased state.

The mixer updates the state in place, a cache-sized tile at a time. The low
``_TILE_BITS`` qubits pair amplitudes inside one row block of 2^_TILE_BITS,
so each block takes all of them while it is in cache. The high qubits then
run over column tiles, copied into a contiguous buffer and back. Each qubit
is three whole-block ufunc calls: ``i sin(beta) a`` of every amplitude into
one scratch buffer, ``cos(beta) a`` in place, and a subtraction of each
pair's partner from the scratch buffer through a view with the pair
reversed. Every amplitude so gets ``cos(beta) a0 - 1j sin(beta) a1`` with the
same scalars and operand order as the plain per-qubit loop, and goes through
qubits 0..n-1 in order, so the amplitudes are bitwise those of that loop,
sign bits included. Fusing gates would be faster but moves amplitudes by
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _caps
from .instance import Assignment, Instance, clause_sum_blocks, code_bits

NORM_TOL = 1e-12

#: Bytes per amplitude that ``prepare`` plus ``expectation`` hold at their
#: peak: tracemalloc measures 32.7 at n=16 and 17.2 at n=20, which is the
#: peak of ``prepare`` alone, since ``expectation`` takes only 1.2 above its
#: state at n=20 (``scripts/time_statevector.py``). At n=16 the block walk's
#: own buffers are 9 of the 32.7. Their outputs hold at any BLAS thread
#: count: the cost blocks are exact integer sums, and no dot in
#: ``expectation`` is long enough for OpenBLAS to thread.
PEAK_BYTES_PER_AMPLITUDE = 64

#: log2 of the amplitudes the mixer updates while they stay in cache: a row
#: block for the low qubits, a column tile for the high ones. 2^15 complex128
#: amplitudes are 512 KiB.
_TILE_BITS = 15

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
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _check_norm(amp: np.ndarray) -> None:
    """Refuse a state whose squared norm is off 1 by more than ``NORM_TOL``.

    A contiguous state is summed in one pass over its float64 view, with no
    temporary; the broadcast uniform state has no such view.
    """
    if amp.flags.c_contiguous:
        f = amp.view(np.float64)
        sq_norm = np.einsum("i,i->", f, f)
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
    levels = np.arange(-instance.m, instance.m + 1) * 0.5
    table = np.exp(-1j * gamma * levels)
    phased = np.empty(1 << state.n, dtype=np.complex128)
    for first, grid in clause_sum_blocks(instance, state.n):
        grid += instance.m
        block = phased[first : first + grid.size]
        np.take(table, grid.astype(np.intp).ravel(), out=block, mode="clip")  # "raise" would buffer
        np.multiply(state.amplitudes[first : first + grid.size], block, out=block)
    del grid  # a block may be the whole register; free it before the norm check
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
    # A column tile has 2^high rows, and at least one column when high > low.
    col_bits = max(0, low - high)
    tmp = np.empty(1 << max(low, high), dtype=np.complex128)
    rows = amp.reshape(1 << high, 1 << low)
    for row in rows:
        _mix_bits(row, range(low), cos_b, isin_b, tmp)
    if not high:
        return
    cols = 1 << col_bits
    tile = np.empty((1 << high, cols), dtype=np.complex128)
    for c0 in range(0, 1 << low, cols):
        np.copyto(tile, rows[:, c0 : c0 + cols])
        _mix_bits(tile.reshape(-1), range(col_bits, col_bits + high), cos_b, isin_b, tmp)
        np.copyto(rows[:, c0 : c0 + cols], tile)


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
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    probs = state.probabilities()
    probs /= probs.sum()  # in place: no second 2^n array
    return code_bits(np.random.default_rng(seed).choice(probs.size, size=count, p=probs), state.n)


def sample(state: QuantumState, count: int, seed: int = 0) -> list[Assignment]:
    """``sample_bits`` with every row wrapped in an ``Assignment``."""
    return [Assignment(row) for row in sample_bits(state, count, seed)]
