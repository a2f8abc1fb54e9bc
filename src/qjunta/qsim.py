"""Dense statevector simulator for Boolean-oracle circuits.

Exactly the gate set the oracle circuits need: Hadamard layers, X, CNOT,
the XOR-into-target bit oracle, the sign-flip phase oracle, and the
two-application derivative composite.  Plus one- and two-qubit reduced
densities and seeded measurement sampling.  There is no generic matrix gate:
H, the only gate that is not a permutation or a sign flip, runs as butterflies.

Conventions:

* basis index ``b`` encodes qubit ``k`` as bit ``k`` of ``b`` (qubit 0 is
  the least significant bit), matching the input-index convention of
  :mod:`qjunta.boolfn`;
* operations are pure: they take a state and return a new one, so distinct
  states can be processed on different threads without coordination;
* every operation preserves the norm to well below 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from . import boolfn
from .boolfn import Evaluator

# Dense amplitude arrays are capped at the widest circuit the pipeline runs:
# categorization's n-qubit register plus its recording qubit, at the table cap.
MAX_QUBITS = boolfn.MAX_TABLE_VARS + 1

NORM_ATOL = 1e-9
DENSITY_ATOL = 1e-9

# PRNG behind sample_counts, recorded in run metadata for reproducibility.
PRNG_NAME = "pcg64"


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over ``2^num_qubits`` basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 0 < self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.num_qubits}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"state is not normalized: |amps|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class TwoQubitDensity:
    """4x4 reduced density matrix over the basis |00>,|01>,|10>,|11> of an
    ordered qubit pair (first qubit is the leading bit of the basis label)."""

    entries: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.entries, dtype=np.complex128)
        if rho.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
        if not np.allclose(rho, rho.conj().T, atol=DENSITY_ATOL):
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > DENSITY_ATOL or abs(np.trace(rho).imag) > DENSITY_ATOL:
            raise ValueError(f"density matrix trace is {np.trace(rho)!r}, expected 1")
        if np.linalg.eigvalsh(rho).min() < -DENSITY_ATOL:
            raise ValueError("density matrix has a negative eigenvalue")
        rho.setflags(write=False)
        object.__setattr__(self, "entries", rho)


def _check_qubit(state: StateVector, qubit: int):
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.num_qubits} qubits")


def new_state(num_qubits: int, basis: int = 0) -> StateVector:
    """Computational basis state |basis>."""
    if not 0 < num_qubits <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {num_qubits}")
    if not 0 <= basis < (1 << num_qubits):
        raise ValueError(f"basis index {basis} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[basis] = 1.0
    return StateVector(num_qubits, amps)


def apply_hadamard_layer(state: StateVector, qubits: Iterable[int]) -> StateVector:
    """Apply H to each listed qubit (indices must be distinct).

    One in-place butterfly ``(a, b) -> (a + b, a - b)`` per qubit, then a
    single scaling by ``2^(-k/2)``: exact on dyadic amplitudes for even ``k``.
    """
    targets = list(qubits)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate qubit in {targets}")
    for qubit in targets:
        _check_qubit(state, qubit)
    amps = state.amplitudes.copy()
    for qubit in targets:
        pairs = amps.reshape(-1, 2, 1 << qubit)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(low, pairs[:, 1], out=pairs[:, 1])
    amps *= 2.0 ** (-len(targets) / 2)
    return StateVector(state.num_qubits, amps)


def apply_x(state: StateVector, qubit: int) -> StateVector:
    _check_qubit(state, qubit)
    idx = np.arange(state.amplitudes.size) ^ (1 << qubit)
    return StateVector(state.num_qubits, state.amplitudes[idx])


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError(f"control and target coincide: {control}")
    idx = np.arange(state.amplitudes.size)
    src = idx ^ (((idx >> control) & 1) << target)
    return StateVector(state.num_qubits, state.amplitudes[src])


def apply_bit_oracle(
    state: StateVector,
    f: Union[Evaluator, np.ndarray],
    num_inputs: int,
    target: int,
) -> StateVector:
    """XOR ``f`` of the input register into the target qubit.

    The input register is qubits ``0 .. num_inputs-1``, read as an input
    index under the shared bit convention; ``target`` must lie outside it.
    Self-inverse.
    """
    if not 0 < num_inputs < state.num_qubits:
        raise ValueError(f"register of {num_inputs} qubits does not fit in {state.num_qubits}")
    _check_qubit(state, target)
    if target < num_inputs:
        raise ValueError(f"target qubit {target} overlaps the input register")
    values = boolfn.function_values(f, num_inputs)
    idx = np.arange(state.amplitudes.size)
    src = idx ^ (values[idx & ((1 << num_inputs) - 1)].astype(np.int64) << target)
    return StateVector(state.num_qubits, state.amplitudes[src])


def apply_phase_oracle(
    state: StateVector,
    f: Union[Evaluator, np.ndarray],
    num_inputs: int,
) -> StateVector:
    """Multiply the amplitude of each basis state by (-1)^f(register bits)."""
    if not 0 < num_inputs <= state.num_qubits:
        raise ValueError(f"register of {num_inputs} qubits does not fit in {state.num_qubits}")
    values = boolfn.function_values(f, num_inputs)
    signs = 1.0 - 2.0 * np.tile(values, state.amplitudes.size >> num_inputs)
    return StateVector(state.num_qubits, state.amplitudes * signs)


def apply_derivative_oracle(
    state: StateVector,
    f: Union[Evaluator, np.ndarray],
    num_inputs: int,
    i: int,
    target: int,
) -> StateVector:
    """XOR the directional derivative ``f(x) ^ f(x XOR e_i)`` into the target.

    Built from two applications of the base bit oracle with an X conjugation
    on qubit ``i`` between them; acts as the identity on every basis state
    exactly when the function does not depend on ``x_i``.
    """
    if not 0 <= i < num_inputs:
        raise ValueError(f"variable index {i} out of range for register of {num_inputs}")
    out = apply_bit_oracle(state, f, num_inputs, target)
    out = apply_x(out, i)
    out = apply_bit_oracle(out, f, num_inputs, target)
    return apply_x(out, i)


def reduced_density_two_qubits(state: StateVector, a: int, b: int) -> TwoQubitDensity:
    """Partial trace down to the ordered pair ``(a, b)``."""
    _check_qubit(state, a)
    _check_qubit(state, b)
    if a == b:
        raise ValueError(f"need two distinct qubits, got {a} twice")
    q = state.num_qubits
    tensor = state.amplitudes.reshape((2,) * q)
    tensor = np.moveaxis(tensor, (q - 1 - a, q - 1 - b), (0, 1)).reshape(4, -1)
    return TwoQubitDensity(tensor @ tensor.conj().T)


def qubit_density(state: StateVector, qubit: int) -> np.ndarray:
    """Reduced 2x2 density of one qubit, ``rho[a, b] = sum_env amp(a, env) *
    conj(amp(b, env))``, divided by its trace: immune to the state's norm
    rounding (about 1e-15 after a long circuit)."""
    _check_qubit(state, qubit)
    pairs = state.amplitudes.reshape(-1, 2, 1 << qubit)
    rho = np.einsum("aib,ajb->ij", pairs, pairs.conj())
    return rho / rho.trace().real


def prob_one(state: StateVector, qubit: int) -> float:
    """Probability of reading 1 on ``qubit``, in [0, 1]."""
    return float(qubit_density(state, qubit)[1, 1].real)


def sample_counts(state: StateVector, qubit: int, shots: int, seed: int) -> tuple[int, int]:
    """Finite-shot readout of one qubit: ``(zeros, ones)``, ``zeros + ones == shots``.

    Deterministic for a given seed (PCG64 generator).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    ones = int(rng.binomial(shots, prob_one(state, qubit)))
    return shots - ones, ones


# --- oracle wrappers ----------------------------------------------------------

class BitOracle:
    """A Boolean black box packaged for both uses the algorithms need:
    classical point queries and the dense ``values`` table circuits apply.

    ``applications_per_call`` and ``queries_per_call`` express the cost of one
    use in units of the underlying base oracle; composites override them.
    """

    applications_per_call = 1
    queries_per_call = 1

    def __init__(self, f: Evaluator, num_inputs: int):
        if num_inputs <= 0:
            raise ValueError(f"variable count must be positive, got {num_inputs}")
        if num_inputs > boolfn.MAX_TABLE_VARS:
            raise ValueError(f"n={num_inputs} exceeds the dense-table cap of {boolfn.MAX_TABLE_VARS}")
        if isinstance(f, (boolfn.AnfFunction, boolfn.TruthTable)) and f.n != num_inputs:
            raise ValueError(f"function has n={f.n}, expected {num_inputs}")
        self.func = f
        self.num_inputs = num_inputs
        self._values: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = boolfn.function_values(self.func, self.num_inputs)
        return self._values

    def query(self, x: int) -> int:
        return boolfn.evaluate(self.func, x)


class DerivativeOracle(BitOracle):
    """Composite computing ``f(x) XOR f(x XOR e_i)`` from two copies of the
    base oracle; one application costs 2 base applications, one classical
    query costs 2 base queries.  Its ``values`` are one gather over the base
    table, equal as a bit oracle to :func:`apply_derivative_oracle`."""

    applications_per_call = 2
    queries_per_call = 2

    def __init__(self, base: BitOracle, i: int):
        if not 0 <= i < base.num_inputs:
            raise ValueError(f"variable index {i} out of range for n={base.num_inputs}")
        super().__init__(lambda x: base.query(x) ^ base.query(x ^ (1 << i)), base.num_inputs)
        self.base = base
        self.i = i

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            base = self.base.values
            out = base ^ base[np.arange(base.size) ^ (1 << self.i)]
            out.setflags(write=False)
            self._values = out
        return self._values


def as_oracle(f, num_inputs: int) -> BitOracle:
    """Wrap ``f`` as a :class:`BitOracle` unless it already is one."""
    if isinstance(f, BitOracle):
        if f.num_inputs != num_inputs:
            raise ValueError(f"oracle has {f.num_inputs} inputs, expected {num_inputs}")
        return f
    return BitOracle(f, num_inputs)
