"""The junta decision procedure: probe, circuit, verdicts, call accounting."""

import tracemalloc

import numpy as np
import pytest

from qjunta import (
    BitOracle,
    TruthTable,
    Verdict,
    anf_from_truth_table,
    apply_bit_oracle,
    apply_cnot,
    apply_hadamard_layer,
    categorize,
    concurrence_wootters,
    entangling_probe,
    influence_circuit,
    influence_report,
    junta_scan,
    junta_variable_test,
    new_state,
    parse_anf,
    prob_one,
    reduced_density_two_qubits,
    to_truth_table,
)
from qjunta import learner
from qjunta.boolfn import MAX_TABLE_VARS, function_values
from qjunta.junta import EPSILON_ZERO
from helpers import random_anf, random_truth_table


class TestEntanglingProbe:
    def test_superposed_qubit_maximally_entangles(self):
        state = apply_hadamard_layer(new_state(1, 0), [0])
        result = entangling_probe(state, tested=0)
        assert result.c_effective == pytest.approx(1.0, abs=1e-12)
        assert result.c_wootters == pytest.approx(1.0, abs=1e-8)

    def test_basis_qubit_gives_nothing(self):
        result = entangling_probe(new_state(1, 0), tested=0)
        assert result.c_effective == 0.0
        assert result.c_wootters == 0.0
        # pair ends in |01> (tested reads 0, auxiliary reads 1)
        np.testing.assert_allclose(result.density.entries, np.diag([0, 1, 0, 0]), atol=1e-12)

    def test_tested_out_of_range(self):
        for tested in (-1, 2):
            with pytest.raises(ValueError):
                entangling_probe(new_state(2), tested=tested)


class TestGateLevelReference:
    """The register-only circuits against the paper's full circuits, built
    gate by gate with a simulated kickback qubit and auxiliary."""

    @staticmethod
    def functions():
        for n in (1, 2, 3):
            for code in range(1 << (1 << n)):
                bits = np.array([(code >> x) & 1 for x in range(1 << n)], dtype=np.uint8)
                yield n, TruthTable(n, bits)
        rng = np.random.default_rng(41)
        for n in range(4, 8):
            for _ in range(6):
                yield n, random_truth_table(rng, n)

    @staticmethod
    def assert_same(probe, density, p1):
        np.testing.assert_allclose(probe.density.entries, density.entries, rtol=0, atol=1e-12)
        assert probe.p1 == pytest.approx(p1, rel=0, abs=1e-12)
        assert probe.c_wootters == pytest.approx(concurrence_wootters(density), rel=0, abs=1e-12)

    def test_influence_circuit(self):
        for n, table in self.functions():
            state = new_state(n + 2, basis=(1 << n) | (1 << (n + 1)))
            state = apply_hadamard_layer(state, range(n + 1))
            state = apply_bit_oracle(state, table, n, target=n)
            before_probe = apply_hadamard_layer(state, range(n + 1))
            for i in range(n):
                after = apply_cnot(before_probe, control=i, target=n + 1)
                probe = influence_circuit(table, n, i)
                assert probe.state.num_qubits == n
                density = reduced_density_two_qubits(after, i, n + 1)
                self.assert_same(probe, density, prob_one(after, i))

    def test_categorize_circuit(self, monkeypatch):
        probes = []

        def spy(state, tested):
            probes.append(entangling_probe(state, tested))
            return probes[-1]

        monkeypatch.setattr(learner, "entangling_probe", spy)
        for n, table in self.functions():
            state = new_state(n + 2, basis=1 << (n + 1))
            state = apply_hadamard_layer(state, range(n))
            state = apply_bit_oracle(state, table, n, target=n)
            state = apply_hadamard_layer(state, range(n))
            after = apply_cnot(state, control=n, target=n + 1)
            density = reduced_density_two_qubits(after, n, n + 1)
            verdict = categorize(table, n)
            probe = probes.pop()
            assert probe.state.num_qubits == n + 1
            assert (verdict.p1, verdict.c_wootters) == (probe.p1, probe.c_wootters)
            self.assert_same(probe, density, prob_one(after, n))


class TestInfluenceCircuit:
    def test_population_equals_influence(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            f = random_anf(rng, n)
            table = to_truth_table(f)
            i = int(rng.integers(0, n))
            run = influence_circuit(f, n, i)
            expected = influence_report(table, i)
            assert run.p1 == pytest.approx(expected.influence, abs=1e-9)
            assert run.c_effective == pytest.approx(expected.c_effective, abs=1e-9)

    def test_discrepancy_witness(self):
        # x0 of x0&x1: the reduced pair is an even zero-coherence mixture, so
        # the population measure saturates while the exact mixed-state
        # concurrence vanishes
        run = influence_circuit(parse_anf("x0&x1", 2), 2, 0)
        np.testing.assert_allclose(run.density.entries, np.diag([0, 0.5, 0.5, 0]), atol=1e-9)
        assert run.c_effective == pytest.approx(1.0, abs=1e-9)
        assert run.c_wootters == pytest.approx(0.0, abs=1e-8)


class TestVerdicts:
    def test_absent_variable(self):
        v = junta_variable_test(parse_anf("x2", 3), 3, 0)
        assert v.verdict is Verdict.JUNTA
        assert v.p1 <= 1e-9
        assert v.c_effective <= 1e-9

    def test_linear_term_exits_before_any_quantum_work(self):
        v = junta_variable_test(parse_anf("x0 ^ x1&x2", 3), 3, 0)
        assert v.verdict is Verdict.NOT_JUNTA_LINEAR
        assert v.oracle_calls_quantum == 0
        assert v.oracle_calls_classical == 2
        assert v.p1 is None and v.c_effective is None and v.c_wootters is None

    def test_product_variable(self):
        v = junta_variable_test(parse_anf("x0&x1", 2), 2, 0)
        assert v.verdict is Verdict.NOT_JUNTA
        assert v.p1 == pytest.approx(0.5, abs=1e-9)
        assert v.c_effective == pytest.approx(1.0, abs=1e-9)

    def test_constant_term_reported(self):
        v = junta_variable_test(parse_anf("1 ^ x1&x0", 2), 2, 1)
        assert v.constant_term_present == 1

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError):
            junta_variable_test(parse_anf("x0", 1), 1, 1)

    def test_zero_threshold_below_smallest_influence_at_cap(self):
        # a nonzero influence of an n-variable function is at least 2/2^n
        assert EPSILON_ZERO < 2 / 2**MAX_TABLE_VARS

    def test_exhaustive_small_tables(self):
        # every 3-variable function, every variable: the verdict must match
        # the brute-force flip count, and the linear exit must fire exactly
        # when the singleton term is in the function's normal form
        for code in range(1 << 8):
            table = TruthTable(3, np.array([(code >> x) & 1 for x in range(8)], dtype=np.uint8))
            f = anf_from_truth_table(table)
            for i in range(3):
                verdict = junta_variable_test(table, 3, i).verdict
                if frozenset({i}) in f.terms:
                    assert verdict is Verdict.NOT_JUNTA_LINEAR
                elif influence_report(table, i).nu1 == 0:
                    assert verdict is Verdict.JUNTA
                else:
                    assert verdict is Verdict.NOT_JUNTA


class TestBlackBoxInputs:
    def test_plain_callable_oracle(self):
        # same function three ways: callable, expression, table
        f_anf = parse_anf("x0&x1 ^ x2", 3)
        table = to_truth_table(f_anf)
        as_callable = lambda x: ((x & 1) & ((x >> 1) & 1)) ^ ((x >> 2) & 1)
        for i in range(3):
            verdicts = {
                junta_variable_test(f, 3, i).verdict
                for f in (f_anf, table, as_callable)
            }
            assert len(verdicts) == 1

    def test_oversized_black_box_rejected_before_any_work(self):
        # the message names the caller's n, not a circuit's qubit count,
        # and the black box is neither queried nor tabulated
        calls = []

        def f(x):
            calls.append(x)
            return 0

        n = MAX_TABLE_VARS + 1
        message = f"^n={n} exceeds the dense-table cap of {MAX_TABLE_VARS}$"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                junta_variable_test(f, n, 0)
            with pytest.raises(ValueError, match=message):
                BitOracle(f, n)
            with pytest.raises(ValueError, match=message):
                function_values(f, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 1 << 20


class TestCallAccounting:
    def test_per_verdict_bounds(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            f = random_anf(rng, n)
            v = junta_variable_test(f, n, int(rng.integers(0, n)))
            assert v.oracle_calls_quantum <= 1
            assert v.oracle_calls_classical == 2

    def test_scan_totals(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            f = random_truth_table(rng, n)
            verdicts = junta_scan(f, n)
            assert len(verdicts) == n
            assert sum(v.oracle_calls_quantum for v in verdicts) <= n
            assert sum(v.oracle_calls_classical for v in verdicts) == 2 * n


class TestSampledMode:
    def test_requires_shots_and_seed(self):
        f = parse_anf("x0", 1)
        with pytest.raises(ValueError):
            junta_variable_test(f, 1, 0, mode="sampled")
        with pytest.raises(ValueError):
            junta_variable_test(f, 1, 0, mode="sampled", shots=10)
        with pytest.raises(ValueError):
            junta_variable_test(f, 1, 0, mode="bogus")

    def test_reproducible(self):
        f = parse_anf("x0&x1 ^ x1&x2", 3)
        a = junta_variable_test(f, 3, 0, mode="sampled", shots=500, seed=9)
        b = junta_variable_test(f, 3, 0, mode="sampled", shots=500, seed=9)
        assert a == b
        assert a.zeros + a.ones == 500
        assert a.p1 == a.ones / 500

    def test_junta_iff_zero_ones(self):
        f = parse_anf("x1&x2", 3)
        for seed in range(20):
            v = junta_variable_test(f, 3, 0, mode="sampled", shots=50, seed=seed)
            assert (v.verdict is Verdict.JUNTA) == (v.ones == 0)
        absent = junta_variable_test(f, 3, 0, mode="sampled", shots=50, seed=0)
        assert absent.verdict is Verdict.JUNTA

    def test_detectable_influence_rarely_missed(self):
        # influence 1/4 with 32 shots clears the 8/shots detectability bar
        f = parse_anf("x0&x1&x2", 3)
        assert influence_report(to_truth_table(f), 0).influence >= 8 / 32
        hits = sum(
            junta_variable_test(f, 3, 0, mode="sampled", shots=32, seed=seed).verdict
            is Verdict.NOT_JUNTA
            for seed in range(100)
        )
        assert hits >= 99
