"""Boolean-function layer: parser, algebra, and the exhaustive analyses."""

import numpy as np
import pytest

from qjunta import (
    AnfFunction,
    AnfParseError,
    TruthTable,
    anf_from_truth_table,
    count_ones,
    evaluate,
    format_anf,
    format_truth_table,
    influence_report,
    linearity_probe,
    negate_variable,
    parse_anf,
    parse_truth_table,
    same_term_variables_brute,
    to_truth_table,
    xor_functions,
)
from helpers import random_anf


def anf(text, n):
    return parse_anf(text, n)


class TestParse:
    def test_products_and_xor(self):
        f = anf("x0 & x1 ^ x2", 3)
        assert f.terms == {frozenset({0, 1}), frozenset({2})}

    def test_pairs_cancel(self):
        assert anf("1 ^ 1", 1).terms == frozenset()
        assert anf("x0 ^ x0&x1 ^ x0", 2).terms == {frozenset({0, 1})}

    def test_constants(self):
        assert anf("1", 2).terms == {frozenset()}
        assert anf("0", 2).terms == frozenset()

    def test_whitespace_ignored(self):
        assert anf("  x0&x1^ x2 ", 3) == anf("x0 & x1 ^ x2", 3)

    def test_repeated_variable_in_term(self):
        assert anf("x0 & x0", 1).terms == {frozenset({0})}

    @pytest.mark.parametrize(
        "text,position",
        [
            ("x0 & ", 5),       # dangling connector
            ("^ x0", 0),        # leading xor
            ("x0 x1", 3),       # missing connector
            ("x0 & y1", 5),     # bad character
            ("x", 0),           # missing index
            ("", 0),            # empty
            ("x0 ^^ x1", 4),    # empty term
        ],
    )
    def test_syntax_error_positions(self, text, position):
        with pytest.raises(AnfParseError) as err:
            parse_anf(text, 2)
        assert err.value.position == position

    def test_index_out_of_range(self):
        with pytest.raises(AnfParseError) as err:
            parse_anf("x0 ^ x3", 3)
        assert err.value.position == 5

    def test_left_inverse_of_printer(self):
        rng = np.random.default_rng(7)
        cases = [AnfFunction.constant(3, 0), AnfFunction.constant(3, 1)]
        cases += [random_anf(rng, int(rng.integers(1, 7))) for _ in range(200)]
        for f in cases:
            assert parse_anf(format_anf(f), f.n) == f


class TestEvaluate:
    def test_product(self):
        f = anf("x0&x1", 2)
        assert evaluate(f, 3) == 1
        assert evaluate(f, 2) == 0

    def test_constant_one(self):
        f = anf("1", 2)
        assert all(evaluate(f, x) == 1 for x in range(4))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            evaluate(anf("x0", 1), 2)
        with pytest.raises(ValueError):
            evaluate(to_truth_table(anf("x0", 1)), -1)

    def test_plain_callable(self):
        assert evaluate(lambda x: x >> 1, 3) == 1
        assert evaluate(lambda x: 2, 0) == 0  # only the low bit counts
        with pytest.raises(TypeError):
            evaluate(3, 0)


class TestTruthTable:
    def test_product_table(self):
        assert list(to_truth_table(anf("x0&x1", 2)).bits) == [0, 0, 0, 1]

    def test_constant_zero(self):
        assert list(to_truth_table(anf("0", 1)).bits) == [0, 0]

    def test_mixed_terms(self):
        # all four inputs of x1 ^ x0&x1 evaluated independently
        f = anf("x1 ^ x0&x1", 2)
        expected = [evaluate(f, x) for x in range(4)]
        assert expected == [0, 0, 1, 0]
        assert list(to_truth_table(f).bits) == expected

    def test_size_cap(self):
        with pytest.raises(ValueError):
            to_truth_table(AnfFunction(30, frozenset()))

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            TruthTable(1, np.array([0, 2], dtype=np.uint8))
        with pytest.raises(ValueError):
            TruthTable(2, np.array([0, 1], dtype=np.uint8))

    def test_anf_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            f = random_anf(rng, int(rng.integers(1, 7)))
            assert anf_from_truth_table(to_truth_table(f)) == f


class TestNegateVariable:
    def test_expansion(self):
        assert negate_variable(anf("x0&x1", 2), 0) == anf("x0&x1 ^ x1", 2)
        assert negate_variable(anf("x2", 3), 0) == anf("x2", 3)
        assert negate_variable(anf("x0", 1), 0) == anf("1 ^ x0", 1)

    def test_matches_shifted_truth_table(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            f = random_anf(rng, n)
            i = int(rng.integers(0, n))
            shifted = to_truth_table(f).bits[np.arange(1 << n) ^ (1 << i)]
            assert np.array_equal(to_truth_table(negate_variable(f, i)).bits, shifted)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            negate_variable(anf("x0", 1), 1)


class TestXorFunctions:
    def test_term_cancellation(self):
        assert xor_functions(anf("x0&x1", 2), anf("x0&x1 ^ x1", 2)) == anf("x1", 2)
        f = anf("x0 ^ x1&x0", 2)
        assert xor_functions(f, f) == anf("0", 2)
        assert xor_functions(anf("x0", 1), anf("1 ^ x0", 1)) == anf("1", 1)

    def test_pointwise(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            f, g = random_anf(rng, n), random_anf(rng, n)
            combined = to_truth_table(xor_functions(f, g)).bits
            assert np.array_equal(combined, to_truth_table(f).bits ^ to_truth_table(g).bits)

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            xor_functions(anf("x0", 1), anf("x0", 2))


class TestInfluence:
    def test_product_term(self):
        report = influence_report(to_truth_table(anf("x0&x1", 2)), 0)
        assert (report.nu0, report.nu1) == (2, 2)
        assert report.influence == 0.5
        assert report.c_effective == 1.0

    def test_constant(self):
        report = influence_report(to_truth_table(anf("0", 3)), 1)
        assert (report.nu0, report.nu1) == (8, 0)
        assert report.influence == 0.0
        assert report.c_effective == 0.0

    def test_linear_term_only(self):
        # every input flips the output, so the excitation is total and the
        # concurrence collapses back to zero
        report = influence_report(to_truth_table(anf("x0", 2)), 0)
        assert (report.nu0, report.nu1) == (0, 4)
        assert report.influence == 1.0
        assert report.c_effective == 0.0

    def test_counts_sum_to_size(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            f = random_anf(rng, n)
            i = int(rng.integers(0, n))
            report = influence_report(to_truth_table(f), i)
            assert report.nu0 + report.nu1 == 1 << n

    def test_zero_influence_iff_derivative_vanishes(self):
        # exhaustive over every 3-variable function
        for code in range(1 << 8):
            table = TruthTable(3, np.array([(code >> x) & 1 for x in range(8)], dtype=np.uint8))
            f = anf_from_truth_table(table)
            for i in range(3):
                g = xor_functions(f, negate_variable(f, i))
                vanishes = not g.terms
                assert (influence_report(table, i).nu1 == 0) == vanishes


class TestLinearityProbe:
    def test_linear_term_found(self):
        assert linearity_probe(anf("x0 ^ x1&x2", 3), 0) == (0, True)

    def test_product_not_flagged(self):
        assert linearity_probe(anf("x0&x1", 2), 0) == (0, False)

    def test_constant_term_reported(self):
        assert linearity_probe(anf("1", 2), 0) == (1, False)

    def test_exact_for_anf_semantics(self):
        # exhaustive over every 3-variable function: the two-point probe fires
        # exactly when the singleton term is present
        for code in range(1 << 8):
            table = TruthTable(3, np.array([(code >> x) & 1 for x in range(8)], dtype=np.uint8))
            f = anf_from_truth_table(table)
            for i in range(3):
                probe = linearity_probe(f, i)
                assert probe.linear_term_present == (frozenset({i}) in f.terms)
                assert probe.constant_term_present == (frozenset() in f.terms)

    def test_accepts_plain_callable(self):
        probe = linearity_probe(lambda x: x & 1, 0)
        assert probe == (0, True)


class TestCounting:
    def test_count_ones(self):
        assert count_ones(to_truth_table(anf("0", 2))) == 0
        assert count_ones(to_truth_table(anf("x0", 2))) == 2
        assert count_ones(to_truth_table(anf("x0&x1", 2))) == 1


class TestSameTermBrute:
    def test_partner_in_product(self):
        assert same_term_variables_brute(anf("x0&x1 ^ x2", 3), 0) == {1}

    def test_linear_terms_have_no_partners(self):
        assert same_term_variables_brute(anf("x0 ^ x1", 2), 0) == set()

    def test_triple_product(self):
        assert same_term_variables_brute(anf("x0&x1&x2", 3), 0) == {1, 2}

    def test_probed_variable_never_included(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            f = random_anf(rng, n)
            i = int(rng.integers(0, n))
            assert i not in same_term_variables_brute(f, i)


class TestTableFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            f = random_anf(rng, int(rng.integers(1, 6)))
            table = to_truth_table(f)
            text = format_truth_table(table)
            assert parse_truth_table(text) == table
            assert format_truth_table(parse_truth_table(text)) == text

    def test_trailing_newline_optional(self):
        assert parse_truth_table("1\n01") == parse_truth_table("1\n01\n")

    @pytest.mark.parametrize(
        "text",
        ["", "2\n", "x\n0101", "2\n010", "2\n010a", "1\n01\nextra"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_truth_table(text)
