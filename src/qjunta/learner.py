"""Applications of the junta test: partner-variable discovery, single-term
learning, and constant/balanced/other categorization with solution counting.

Partner discovery probes the derivative oracle: ``g(x) = f(x) ^ f(x XOR e_i)``
keeps exactly the reduced forms of the terms containing ``x_i``, is
independent of ``x_i`` itself, and is identically zero precisely when
``x_i`` is junta.  Variables that are not junta in ``g`` are the ones
sharing a product term with ``x_i``.

Categorization runs the bit-record variant of the influence circuit: the
recording qubit's excitation probability is ``M/N`` (``M`` = number of
satisfying inputs), so the probe's effective concurrence is
``2*sqrt(M*(N-M))/N``; it is 0 exactly for constant functions and 1 exactly
for balanced ones, and inverting it recovers ``M`` up to the inherent
``M <-> N-M`` ambiguity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from . import qsim
from .junta import (
    EPSILON_ZERO, JuntaVerdict, Verdict, check_mode, entangling_probe, junta_variable_test, read_probe,
)
from .qsim import DerivativeOracle

# Threshold note attached to every category verdict; the balanced threshold
# sits at 1 because that is what the count formula gives at M = N/2.
BALANCED_THRESHOLD_NOTE = (
    "balanced threshold is c = 1: the count formula 2*sqrt(M*(N-M))/N equals 1 "
    "exactly at M = N/2; a balanced threshold at c = 1/2 would be inconsistent "
    "with that formula"
)

SINGLE_TERM_PROMISE_NOTE = (
    "assumes the input is a single product term (or constant); promise "
    "violations are not detected and the result is then best effort"
)


class Category(enum.Enum):
    CONSTANT = "constant"
    BALANCED = "balanced"
    OTHER = "other"


@dataclass(frozen=True)
class SameTermSet:
    """Indices sharing a product term with the probed variable.

    ``per_variable`` holds the verdict of each derivative-oracle test (empty
    when the initial junta test already exited).  Call counters are in base
    oracle units: one derivative application costs 2, one derivative query
    costs 2.
    """

    variable: int
    members: frozenset[int]
    initial_verdict: JuntaVerdict
    per_variable: dict[int, JuntaVerdict] = field(repr=False)
    oracle_calls_quantum: int = 0
    oracle_calls_classical: int = 0


@dataclass(frozen=True)
class LearnedTerm:
    """Result of single-term learning: either a product term or a constant.

    Exactly one of ``term`` and ``constant_value`` is set.
    ``constant_term_present`` is the probe's reading of ``f(0)``, reported
    alongside the term so forms with an extra constant stay visible.
    """

    term: frozenset[int] | None
    constant_value: int | None
    constant_term_present: int
    oracle_calls_quantum: int
    oracle_calls_classical: int
    note: str = SINGLE_TERM_PROMISE_NOTE


@dataclass(frozen=True)
class CategoryVerdict:
    """Constant/balanced/other decision, with the recovered solution counts."""

    category: Category
    p1: float
    c_effective: float
    c_wootters: float
    m_candidates: tuple[int, int]
    constant_value: int | None
    oracle_calls_quantum: int
    oracle_calls_classical: int
    mode: str
    shots: int | None = None
    seed: int | None = None
    zeros: int | None = None
    ones: int | None = None
    note: str = BALANCED_THRESHOLD_NOTE


def same_term_variables(
    f,
    n: int,
    i: int,
    mode: str = "exact",
    shots: int | None = None,
    seed: int | None = None,
) -> SameTermSet:
    """Find all variables sharing a product term with ``x_i``.

    Runs the junta test on ``f`` first; if ``x_i`` is junta the set is empty
    and the derivative oracle is never built.  Otherwise each variable
    ``t = 0 .. n-1`` is junta-tested against the derivative oracle (``t = i``
    included; the derivative is independent of ``x_i``, so it never joins).
    Uses at most ``2n + 2`` base-oracle applications.

    In sampled mode the derivative tests use seeds ``seed + t + 1``.
    """
    check_mode(mode, shots, seed)
    oracle = qsim.as_oracle(f, n)
    initial = junta_variable_test(oracle, n, i, mode=mode, shots=shots, seed=seed)
    quantum = initial.oracle_calls_quantum
    classical = initial.oracle_calls_classical
    if initial.verdict is Verdict.JUNTA:
        return SameTermSet(
            variable=i,
            members=frozenset(),
            initial_verdict=initial,
            per_variable={},
            oracle_calls_quantum=quantum,
            oracle_calls_classical=classical,
        )

    deriv = DerivativeOracle(oracle, i)
    per_variable: dict[int, JuntaVerdict] = {}
    members = set()
    for t in range(n):
        verdict = junta_variable_test(
            deriv, n, t, mode=mode, shots=shots,
            seed=None if seed is None else seed + t + 1,
        )
        per_variable[t] = verdict
        quantum += verdict.oracle_calls_quantum * deriv.applications_per_call
        classical += verdict.oracle_calls_classical * deriv.queries_per_call
        if verdict.verdict is not Verdict.JUNTA:
            members.add(t)
    return SameTermSet(
        variable=i,
        members=frozenset(members),
        initial_verdict=initial,
        per_variable=per_variable,
        oracle_calls_quantum=quantum,
        oracle_calls_classical=classical,
    )


def learn_single_term(
    f,
    n: int,
    mode: str = "exact",
    shots: int | None = None,
    seed: int | None = None,
) -> LearnedTerm:
    """Recover a function promised to be a single product term or constant.

    Scans variables until one is not junta, then unions it with its
    same-term partners; if every variable is junta the function is constant
    and one classical query reads the value.
    """
    check_mode(mode, shots, seed)
    oracle = qsim.as_oracle(f, n)
    quantum = classical = 0
    first_hit: JuntaVerdict | None = None
    for i in range(n):
        verdict = junta_variable_test(
            oracle, n, i, mode=mode, shots=shots,
            seed=None if seed is None else seed + i,
        )
        quantum += verdict.oracle_calls_quantum
        classical += verdict.oracle_calls_classical
        if verdict.verdict is not Verdict.JUNTA:
            first_hit = verdict
            break

    if first_hit is None:
        value = oracle.query(0)
        return LearnedTerm(
            term=None,
            constant_value=value,
            constant_term_present=value,
            oracle_calls_quantum=quantum,
            oracle_calls_classical=classical + 1,
        )

    partners = same_term_variables(
        oracle, n, first_hit.variable, mode=mode, shots=shots,
        seed=None if seed is None else seed + n,
    )
    return LearnedTerm(
        term=frozenset({first_hit.variable} | partners.members),
        constant_value=None,
        constant_term_present=first_hit.constant_term_present,
        oracle_calls_quantum=quantum + partners.oracle_calls_quantum,
        oracle_calls_classical=classical + partners.oracle_calls_classical,
    )


def categorize(
    f,
    n: int,
    mode: str = "exact",
    shots: int | None = None,
    seed: int | None = None,
) -> CategoryVerdict:
    """Classify the black box as constant, balanced, or of other form.

    One oracle application on ``|0>^(n+1)``: H on the first ``n`` qubits,
    the oracle recorded into qubit ``n``, H again, then the entangling probe
    on qubit ``n``, whose |1> auxiliary is formed in closed form (exact: it
    is a product factor before the CNOT).  Constant functions are
    disambiguated (0 vs 1) with one classical query.
    """
    check_mode(mode, shots, seed)
    oracle = qsim.as_oracle(f, n)
    size = 1 << n

    state = qsim.new_state(n + 1)
    state = qsim.apply_hadamard_layer(state, range(n))
    state = qsim.apply_bit_oracle(state, oracle.values, n, target=n)
    state = qsim.apply_hadamard_layer(state, range(n))
    probe = entangling_probe(state, tested=n)
    p1, c_eff, zeros, ones = read_probe(probe, n, mode, shots, seed)

    classical = 0
    constant_value = None
    if c_eff <= EPSILON_ZERO:
        category = Category.CONSTANT
        constant_value = oracle.query(0)
        classical = 1
    elif c_eff >= 1.0 - EPSILON_ZERO:
        category = Category.BALANCED
    else:
        category = Category.OTHER

    return CategoryVerdict(
        category=category,
        p1=p1,
        c_effective=c_eff,
        c_wootters=probe.c_wootters,
        m_candidates=solution_count_candidates(c_eff, size),
        constant_value=constant_value,
        oracle_calls_quantum=oracle.applications_per_call,
        oracle_calls_classical=classical,
        mode=mode,
        shots=shots,
        seed=seed,
        zeros=zeros,
        ones=ones,
    )


def solution_count_candidates(c: float, size: int) -> tuple[int, int]:
    """Invert ``c = 2*sqrt(M*(size-M))/size`` for the solution count ``M``.

    Returns the two roots ``(size/2)*(1 -+ sqrt(1-c^2))`` rounded to
    integers; they always sum to ``size``, and the measurement cannot
    distinguish ``M`` from ``size - M``, so both are reported.
    """
    if size < 1 or size & (size - 1):
        raise ValueError(f"table size must be a power of two, got {size}")
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"concurrence must be in [0, 1], got {c!r}")
    spread = math.sqrt(max(0.0, 1.0 - c * c))
    m_low = round(size * (1.0 - spread) / 2.0)
    return m_low, size - m_low
