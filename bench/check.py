"""Output checker: every benchmark call against brute force in ``qjunta.boolfn``.

Each ``check_*`` function takes one output and the ground truth it must
match, and returns a list of problems (empty when the output is right).
Exact-mode outputs are checked for their values; sampled outputs only for
what holds under every seed (a zero population reads zero ones, and the
counts add up to the shots).  Every output is also checked against the
documented oracle-call accounting.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import jsonschema
import numpy as np

from qjunta import boolfn
from qjunta.junta import Verdict
from qjunta.learner import Category

P1_ATOL = 1e-9
SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report_schema.json"


class Truth:
    """Brute-force facts about one function, computed on first use."""

    def __init__(self, table: boolfn.TruthTable):
        self.table = table
        self.n = table.n
        self.size = 1 << table.n
        self.ones = boolfn.count_ones(table)
        self._nu1: dict[int, int] = {}
        self._verdict: dict[int, Verdict] = {}

    def nu1(self, i: int) -> int:
        if i not in self._nu1:
            self._nu1[i] = boolfn.influence_report(self.table, i).nu1
        return self._nu1[i]

    def expected_verdict(self, i: int) -> Verdict:
        if i not in self._verdict:
            if boolfn.linearity_probe(self.table, i).linear_term_present:
                self._verdict[i] = Verdict.NOT_JUNTA_LINEAR
            else:
                self._verdict[i] = Verdict.JUNTA if self.nu1(i) == 0 else Verdict.NOT_JUNTA
        return self._verdict[i]

    def derivative(self, i: int) -> "Truth":
        bits = self.table.bits
        return Truth(boolfn.TruthTable(self.n, bits ^ bits[np.arange(self.size) ^ (1 << i)]))

    def same_term(self, i: int) -> set[int]:
        return boolfn.same_term_variables_brute(boolfn.anf_from_truth_table(self.table), i)


def _problems(*pairs) -> list[str]:
    return [message for ok, message in pairs if not ok]


def _verdict_fields(verdict: str, p1, zeros, ones, truth: Truth, i: int, shots: int | None) -> list[str]:
    expected = truth.expected_verdict(i)
    if expected is Verdict.NOT_JUNTA_LINEAR or shots is None:
        out = _problems((verdict == expected.value, f"x{i}: verdict {verdict} != {expected.value}"))
    else:
        return _problems(
            (zeros + ones == shots, f"x{i}: zeros + ones != {shots}"),
            (truth.nu1(i) > 0 or ones == 0, f"x{i}: zero influence read {ones} ones"),
        )
    if expected is not Verdict.NOT_JUNTA_LINEAR:
        exact = truth.nu1(i) / truth.size
        out += _problems((abs(p1 - exact) <= P1_ATOL, f"x{i}: p1 {p1!r} != {exact!r}"))
    return out


def check_verdict(v, truth: Truth, i: int, shots: int | None = None) -> list[str]:
    """A ``JuntaVerdict`` for variable ``i``; ``shots`` set means sampled mode."""
    circuit = truth.expected_verdict(i) is not Verdict.NOT_JUNTA_LINEAR
    return _verdict_fields(v.verdict.value, v.p1, v.zeros, v.ones, truth, i, shots) + _problems(
        (v.variable == i, f"variable {v.variable} != {i}"),
        (v.oracle_calls_classical == 2, f"classical calls {v.oracle_calls_classical} != 2"),
        (v.oracle_calls_quantum == int(circuit), f"quantum calls {v.oracle_calls_quantum} != {int(circuit)}"),
    )


def check_scan(verdicts, truth: Truth) -> list[str]:
    out = _problems((len(verdicts) == truth.n, f"{len(verdicts)} verdicts for n={truth.n}"))
    for i, v in enumerate(verdicts):
        out += check_verdict(v, truth, i)
    quantum = sum(v.oracle_calls_quantum for v in verdicts)
    classical = sum(v.oracle_calls_classical for v in verdicts)
    return out + _problems(
        (quantum <= truth.n, f"scan used {quantum} > n quantum calls"),
        (classical == 2 * truth.n, f"scan used {classical} != 2n classical calls"),
    )


def expected_category(truth: Truth) -> Category:
    m = truth.ones
    if m in (0, truth.size):
        return Category.CONSTANT
    return Category.BALANCED if 2 * m == truth.size else Category.OTHER


def _category_fields(category, m_low, m_high, constant_value, quantum, classical,
                     zeros, ones, truth: Truth, shots: int | None) -> list[str]:
    m = truth.ones
    constant = m in (0, truth.size)
    out = _problems((quantum == 1, f"categorize used {quantum} != 1 quantum calls"))
    if shots is None:
        expected = expected_category(truth)
        out += _problems(
            (category == expected.value, f"category {category} != {expected.value}"),
            ((m_low, m_high) == (min(m, truth.size - m), max(m, truth.size - m)),
             f"m candidates {(m_low, m_high)} do not match M={m}"),
            (constant_value == (m // truth.size if constant else None),
             f"constant value {constant_value} for M={m}"),
            (classical == int(constant), f"categorize used {classical} classical calls"),
        )
    else:
        out += _problems(
            (zeros + ones == shots, f"zeros + ones != {shots}"),
            (m != 0 or ones == 0, f"M=0 read {ones} ones"),
            (m != truth.size or zeros == 0, f"M=N read {zeros} zeros"),
            (classical == int(category == Category.CONSTANT.value), f"categorize used {classical} classical calls"),
        )
    return out


def check_category(c, truth: Truth, shots: int | None = None) -> list[str]:
    """A ``CategoryVerdict``; ``shots`` set means sampled mode."""
    return _category_fields(
        c.category.value, *c.m_candidates, c.constant_value,
        c.oracle_calls_quantum, c.oracle_calls_classical, c.zeros, c.ones, truth, shots,
    )


@lru_cache(maxsize=1)
def _validator():
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


def _payload_verdict(payload: dict, truth: Truth, i: int, shots: int | None) -> list[str]:
    return _verdict_fields(payload["verdict"], payload["p1"], payload["zeros"], payload["ones"], truth, i, shots)


def check_cli(run, command: str, truth: Truth, var: int | None = None,
              shots: int | None = None, term: tuple[frozenset, int] | None = None) -> list[str]:
    """A ``cli.main(..., "--output", "json")`` run: exit code, schema, values.

    ``term`` is the planted ``(term, constant)`` of a ``learn-term`` input.
    """
    if run.code != 0:
        return [f"{command}: exit code {run.code}"]
    try:
        report = json.loads(run.stdout)
    except json.JSONDecodeError as error:
        return [f"{command}: stdout is not JSON ({error})"]
    errors = [e.message for e in _validator().iter_errors(report)]
    if errors:
        return [f"{command}: schema: {m}" for m in errors]
    result, calls = report["result"], report["oracle_calls"]
    n = truth.n
    out = _problems((report["input"]["n"] == n, f"{command}: n {report['input']['n']} != {n}"))

    if command == "same-term":
        out += _payload_verdict(result["initial"], truth, var, shots)
        ran = bool(result["per_variable"])
        expected = truth.expected_verdict(var)
        # A sampled run may miss a small influence; the other two cases are seed-free.
        if shots is None or expected is not Verdict.NOT_JUNTA:
            out += _problems((ran == (expected is not Verdict.JUNTA),
                              "derivative sweep ran for a junta variable or skipped a relevant one"))
        if ran:
            deriv = truth.derivative(var)
            for t, payload in result["per_variable"].items():
                out += _payload_verdict(payload, deriv, int(t), shots)
        if shots is None:
            members = truth.same_term(var)
            out += _problems((set(result["members"]) == members,
                              f"members {result['members']} != {sorted(members)}"))
        out += _problems(
            (calls["quantum"] <= 2 * n + 2, f"same-term used {calls['quantum']} > 2n+2 quantum calls"),
            (calls["classical"] == (2 + 4 * n if ran else 2), f"same-term used {calls['classical']} classical calls"),
        )
    elif command in ("categorize", "count-solutions"):
        out += _category_fields(
            result["category"], result["m_low"], result["m_high"], result["constant_value"],
            calls["quantum"], calls["classical"], result["zeros"], result["ones"], truth, shots,
        )
    elif command == "influence":
        nu1 = truth.nu1(var)
        out += _problems(
            ((result["nu0"], result["nu1"]) == (truth.size - nu1, nu1),
             f"influence ({result['nu0']}, {result['nu1']}) != ({truth.size - nu1}, {nu1})"),
            ((calls["quantum"], calls["classical"]) == (0, truth.size), f"influence calls {calls}"),
        )
    elif command == "learn-term":
        planted, constant = term
        out += _problems(
            (result["term"] == sorted(planted), f"learned {result['term']} != {sorted(planted)}"),
            (result["constant_term_present"] == constant, f"constant {result['constant_term_present']} != {constant}"),
            # At most one application per scanned variable, plus one same-term sweep.
            (calls["quantum"] <= n + 2 * n + 2, f"learn-term used {calls['quantum']} quantum calls"),
            (calls["classical"] <= 2 * n + 2 + 4 * n, f"learn-term used {calls['classical']} classical calls"),
        )
    else:
        out.append(f"unchecked command {command}")
    return out


def oracle_calls(out) -> tuple[int, int]:
    """(quantum, classical) oracle calls one output reports; (0, 0) if unreadable."""
    if isinstance(out, list):
        return tuple(np.sum([oracle_calls(v) for v in out], axis=0, dtype=int))
    if hasattr(out, "oracle_calls_quantum"):
        return out.oracle_calls_quantum, out.oracle_calls_classical
    try:
        calls = json.loads(out.stdout)["oracle_calls"]
    except (AttributeError, ValueError, KeyError, TypeError):
        return 0, 0
    return calls["quantum"], calls["classical"]
