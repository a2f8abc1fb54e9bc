"""Simulator gate semantics, oracle identities, and reduced densities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qjunta import (
    BitOracle,
    DerivativeOracle,
    StateVector,
    TwoQubitDensity,
    apply_bit_oracle,
    apply_cnot,
    apply_derivative_oracle,
    apply_hadamard_layer,
    apply_phase_oracle,
    apply_x,
    derivative,
    evaluate,
    new_state,
    parse_anf,
    prob_one,
    qubit_density,
    reduced_density_two_qubits,
    sample_counts,
    to_truth_table,
)
from helpers import random_anf, random_state

INV_SQRT2 = 1.0 / np.sqrt(2.0)
DENSE_H = np.array([[1.0, 1.0], [1.0, -1.0]]) * INV_SQRT2


@st.composite
def states_and_qubits(draw):
    """A random normalized state on at most 6 qubits and a random ordered
    subset of its qubits."""
    q = draw(st.integers(1, 6))
    parts = draw(arrays(np.float64, (2, 1 << q), elements=st.floats(-1.0, 1.0, width=64)))
    amps = parts[0] + 1j * parts[1]
    norm = np.linalg.norm(amps)
    if norm < 1e-3:
        amps, norm = np.eye(1 << q, dtype=complex)[0], 1.0
    qubits = draw(st.lists(st.integers(0, q - 1), unique=True))
    return StateVector(q, amps / norm), qubits


def assert_state(state: StateVector, expected, atol=1e-12):
    np.testing.assert_allclose(state.amplitudes, np.asarray(expected, dtype=complex), atol=atol)


class TestNewState:
    def test_basis_states(self):
        assert_state(new_state(2, 0b10), [0, 0, 1, 0])
        assert_state(new_state(1, 1), [0, 1])
        # the layout of the gate-level junta circuit at n=1: both extra
        # qubits (indices n and n+1) start in |1>
        assert_state(new_state(3, 0b110), [0, 0, 0, 0, 0, 0, 1, 0])

    def test_basis_out_of_range(self):
        with pytest.raises(ValueError):
            new_state(2, 4)


class TestHadamard:
    def test_plus_and_minus(self):
        assert_state(apply_hadamard_layer(new_state(1, 0), [0]), [INV_SQRT2, INV_SQRT2])
        assert_state(apply_hadamard_layer(new_state(1, 1), [0]), [INV_SQRT2, -INV_SQRT2])

    def test_involution(self):
        rng = np.random.default_rng(2)
        state = random_state(rng, 4)
        twice = apply_hadamard_layer(apply_hadamard_layer(state, [0, 2, 3]), [0, 2, 3])
        np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            apply_hadamard_layer(new_state(2), [0, 0])

    @settings(deadline=None)
    @given(states_and_qubits())
    def test_matches_dense_kron_operator(self, case):
        state, qubits = case
        # qubit 0 is the least significant bit, so it is the last kron factor
        operator = np.ones((1, 1))
        for k in reversed(range(state.num_qubits)):
            operator = np.kron(operator, DENSE_H if k in qubits else np.eye(2))
        out = apply_hadamard_layer(state, qubits)
        np.testing.assert_allclose(out.amplitudes, operator @ state.amplitudes, atol=1e-12)


class TestPermutationGates:
    def test_x(self):
        assert_state(apply_x(new_state(1, 0), 0), [0, 1])

    def test_cnot_on_superposition(self):
        # (a|0> + b|1>) on the control qubit 0, |1> on the target qubit 1
        a, b = 0.6, 0.8
        state = StateVector(2, np.array([0, 0, a, b], dtype=complex))
        out = apply_cnot(state, control=0, target=1)
        # a|control=0,target=1> + b|control=1,target=0>
        assert_state(out, [0, b, a, 0])

    def test_cnot_control_clear(self):
        assert_state(apply_cnot(new_state(2, 0), 0, 1), [1, 0, 0, 0])

    def test_control_equals_target(self):
        with pytest.raises(ValueError):
            apply_cnot(new_state(2), 1, 1)


class TestBitOracle:
    def test_copies_variable(self):
        state = apply_hadamard_layer(new_state(2, 0), [0])
        out = apply_bit_oracle(state, parse_anf("x0", 1), 1, target=1)
        assert_state(out, [INV_SQRT2, 0, 0, INV_SQRT2])

    def test_constant_zero_is_identity(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 3)
        out = apply_bit_oracle(state, parse_anf("0", 2), 2, target=2)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_self_inverse(self):
        rng = np.random.default_rng(4)
        f = random_anf(rng, 3)
        state = random_state(rng, 4)
        twice = apply_bit_oracle(apply_bit_oracle(state, f, 3, 3), f, 3, 3)
        np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)

    def test_target_overlap_rejected(self):
        with pytest.raises(ValueError):
            apply_bit_oracle(new_state(3), parse_anf("x0", 2), 2, target=1)


class TestPhaseOracle:
    def test_sign_flip(self):
        state = apply_hadamard_layer(new_state(1, 0), [0])
        out = apply_phase_oracle(state, parse_anf("x0", 1), 1)
        assert_state(out, [INV_SQRT2, -INV_SQRT2])

    def test_constant_one_global_phase(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 2)
        out = apply_phase_oracle(state, parse_anf("1", 2), 2)
        np.testing.assert_allclose(out.amplitudes, -state.amplitudes, atol=1e-12)

    def test_kickback_identity(self):
        # a bit oracle whose target sits in (|0> - |1>)/sqrt(2) acts as the
        # phase oracle on the register, with the ancilla factor untouched;
        # so does the phase oracle applied to the register inside the wider state
        rng = np.random.default_rng(6)
        minus = np.array([INV_SQRT2, -INV_SQRT2], dtype=complex)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            f = random_anf(rng, n)
            register = random_state(rng, n)
            full = StateVector(n + 1, np.kron(minus, register.amplitudes))
            via_phase = np.kron(minus, apply_phase_oracle(register, f, n).amplitudes)
            for out in (apply_bit_oracle(full, f, n, target=n), apply_phase_oracle(full, f, n)):
                np.testing.assert_allclose(out.amplitudes, via_phase, atol=1e-12)


class TestDerivativeOracle:
    def test_junta_variable_gives_identity(self):
        f = parse_anf("x1", 2)
        for basis in range(8):
            state = new_state(3, basis)
            out = apply_derivative_oracle(state, f, 2, i=0, target=2)
            np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_product_term_flips_when_partner_set(self):
        # derivative of x0&x1 in direction 0 is x1, so |x=11, t=0> flips t
        out = apply_derivative_oracle(new_state(3, 0b011), parse_anf("x0&x1", 2), 2, 0, 2)
        assert_state(out, new_state(3, 0b111).amplitudes)

    def test_linear_term_always_flips(self):
        f = parse_anf("x0", 1)
        for basis in range(4):
            out = apply_derivative_oracle(new_state(2, basis), f, 1, 0, 1)
            assert_state(out, new_state(2, basis ^ 2).amplitudes)

    def test_matches_bit_oracle_of_derivative(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            f = random_anf(rng, n)
            for i in range(n):
                g = to_truth_table(derivative(f, i))
                for basis in range(1 << (n + 1)):
                    state = new_state(n + 1, basis)
                    via_composite = apply_derivative_oracle(state, f, n, i, n)
                    via_direct = apply_bit_oracle(state, g, n, n)
                    np.testing.assert_allclose(
                        via_composite.amplitudes, via_direct.amplitudes, atol=1e-12
                    )


class TestReducedDensity:
    def test_bell_state_coherence(self):
        state = StateVector(2, np.array([0, INV_SQRT2, INV_SQRT2, 0], dtype=complex))
        rho = reduced_density_two_qubits(state, 0, 1).entries
        # |01> means qubit 0 reads 0 and qubit 1 reads 1
        assert rho[1, 2] == pytest.approx(0.5)
        assert rho[1, 1] == pytest.approx(0.5)
        assert rho[2, 2] == pytest.approx(0.5)

    def test_product_state(self):
        rho = reduced_density_two_qubits(new_state(2, 0b10), 0, 1).entries
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # (qubit0, qubit1) = (0, 1)
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_traces_out_environment(self):
        rng = np.random.default_rng(9)
        state = random_state(rng, 5)
        rho = reduced_density_two_qubits(state, 1, 3).entries
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            reduced_density_two_qubits(new_state(2), 1, 1)

    def test_density_validation(self):
        with pytest.raises(ValueError):
            TwoQubitDensity(np.eye(4))  # trace 4
        with pytest.raises(ValueError):
            TwoQubitDensity(np.diag([1.5, -0.5, 0, 0]))  # negative eigenvalue


class TestQubitDensity:
    @settings(deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.integers(0, 5), st.integers(1, 5))
    def test_matches_partial_trace_of_pair(self, q, seed, pick, shift):
        # complex amplitudes, so the conjugated side of rho[0, 1] is pinned
        state = random_state(np.random.default_rng(seed), q)
        qubit = pick % q
        other = (qubit + shift % (q - 1) + 1) % q
        pair = reduced_density_two_qubits(state, qubit, other).entries.reshape(2, 2, 2, 2)
        np.testing.assert_allclose(
            qubit_density(state, qubit), np.einsum("abcb->ac", pair), rtol=0, atol=1e-12
        )


class TestProbOne:
    def test_plain_states(self):
        plus = apply_hadamard_layer(new_state(1, 0), [0])
        assert prob_one(plus, 0) == pytest.approx(0.5)
        assert prob_one(new_state(1, 1), 0) == 1.0

    @settings(deadline=None)
    @given(states_and_qubits(), st.integers(0, 5))
    def test_matches_masked_brute_force_sum(self, case, pick):
        state, _ = case
        qubit = pick % state.num_qubits
        ones = sum(
            abs(a) ** 2 for b, a in enumerate(state.amplitudes) if (b >> qubit) & 1
        )
        assert prob_one(state, qubit) == pytest.approx(ones, abs=1e-12)

    def test_clipped_to_unit_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            state = random_state(rng, 3)
            p = prob_one(state, int(rng.integers(0, 3)))
            assert 0.0 <= p <= 1.0


class TestSampleCounts:
    def test_deterministic_states(self):
        assert sample_counts(new_state(1, 1), 0, 100, seed=1) == (0, 100)
        assert sample_counts(new_state(1, 0), 0, 100, seed=1) == (100, 0)

    def test_concentration(self):
        plus = apply_hadamard_layer(new_state(1, 0), [0])
        zeros, ones = sample_counts(plus, 0, 100_000, seed=42)
        assert zeros + ones == 100_000
        assert abs(ones / 100_000 - 0.5) < 0.01

    def test_seed_reproducibility(self):
        plus = apply_hadamard_layer(new_state(1, 0), [0])
        assert sample_counts(plus, 0, 1000, seed=7) == sample_counts(plus, 0, 1000, seed=7)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample_counts(new_state(1), 0, 0, seed=0)


class TestNormPreservation:
    def test_random_circuits(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            q = int(rng.integers(2, 7))
            state = random_state(rng, q)
            f = random_anf(rng, q - 1)
            steps = [
                lambda s: apply_hadamard_layer(s, range(q - 1)),
                lambda s: apply_x(s, int(rng.integers(0, q))),
                lambda s: apply_cnot(s, 0, q - 1),
                lambda s: apply_bit_oracle(s, f, q - 1, q - 1),
                lambda s: apply_phase_oracle(s, f, q - 1),
            ]
            for step in steps:
                state = step(state)
                norm = np.linalg.norm(state.amplitudes)
                assert abs(norm - 1.0) < 1e-12


class TestOracleWrappers:
    def test_bit_oracle_counts_unit_cost(self):
        oracle = BitOracle(parse_anf("x0&x1", 2), 2)
        assert oracle.applications_per_call == 1
        assert oracle.queries_per_call == 1
        assert oracle.query(3) == 1

    def test_derivative_wrapper_keeps_its_function(self):
        deriv = DerivativeOracle(BitOracle(parse_anf("x0&x1 ^ x2", 3), 3), 0)
        for x in range(8):
            assert evaluate(deriv.func, x) == deriv.query(x)

    def test_derivative_wrapper_matches_composite(self):
        rng = np.random.default_rng(14)
        f = random_anf(rng, 3)
        base = BitOracle(f, 3)
        deriv = DerivativeOracle(base, 1)
        assert deriv.applications_per_call == 2
        g = derivative(f, 1)
        table = to_truth_table(g)
        for x in range(8):
            assert deriv.query(x) == table.bits[x]
        state = random_state(rng, 4)
        via_values = apply_bit_oracle(state, deriv.values, 3, 3).amplitudes
        np.testing.assert_allclose(
            via_values, apply_bit_oracle(state, table, 3, 3).amplitudes, atol=1e-12
        )
        np.testing.assert_allclose(
            via_values, apply_derivative_oracle(state, f, 3, 1, 3).amplitudes, atol=1e-12
        )
