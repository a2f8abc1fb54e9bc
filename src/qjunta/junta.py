"""Single-variable junta testing through forced entanglement.

The test for variable ``x_i`` of an n-input black box runs in three stages:

1. *Linearity gate* (classical, 2 queries): if ``f(0) != f(e_i)`` the
   variable sits in a linear term; it is reported not-junta immediately and
   no circuit runs.  This catches the one case the circuit is blind to: a
   variable appearing only linearly drives the tested qubit all the way to
   |1>, which is again a product state.
2. *Influence circuit* (quantum, 1 oracle application): H on ``|0>^n``, the
   phase oracle ``(-1)^f(x)``, H again; qubit ``i`` then reads 1 with
   probability ``p1 = nu1 / 2^n``, the variable's influence.  The paper's
   bit oracle targets a ``|->`` kickback qubit, which stays ``|->`` and
   leaves exactly that phase, so only the n-qubit register is simulated.
3. *Entangling probe*: CNOT from qubit ``i`` onto a |1> auxiliary, then
   measure the pair's entanglement.  The pair is formed in closed form: the
   auxiliary is a |1> product factor before the CNOT, which sends qubit
   ``i``'s |0>, |1> to |01>, |10>, so the pair's density is exactly qubit
   ``i``'s 2x2 density on those two basis states.

The verdict statistic is the population ``p1`` (equivalently the effective
concurrence ``2*sqrt(p1(1-p1))``), not the Wootters concurrence of the
reduced pair: the pair is mixed in general and its exact concurrence can
vanish for non-junta variables (``x0`` of ``x0&x1`` is the witness).  Both
numbers are always reported so the discrepancy stays visible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import boolfn, qsim
from .entangle import concurrence_wootters, effective_concurrence
from .qsim import StateVector, TwoQubitDensity

# Populations at or below this are "no measurable excitation" in exact mode.
EPSILON_ZERO = 1e-9


class Verdict(enum.Enum):
    JUNTA = "junta"
    NOT_JUNTA_LINEAR = "not-junta-linear"
    NOT_JUNTA = "not-junta"


class ProbeResult(NamedTuple):
    """Entangling-probe output: the register it read, the (tested, auxiliary)
    pair, the tested qubit's population ``p1`` and both entanglement measures."""

    state: StateVector
    density: TwoQubitDensity
    p1: float
    c_effective: float
    c_wootters: float


@dataclass(frozen=True)
class JuntaVerdict:
    """Decision for one variable, with full diagnostics.

    ``p1`` and the concurrences are None when the linearity gate fired (the
    circuit never ran).  In sampled mode ``p1`` is the empirical fraction
    ``ones/shots`` and ``c_effective`` is computed from it; ``c_wootters``
    always comes from the exactly simulated reduced pair.  Oracle call
    counters are in units of the oracle under test.
    """

    verdict: Verdict
    variable: int
    p1: float | None
    c_effective: float | None
    c_wootters: float | None
    constant_term_present: int
    oracle_calls_quantum: int
    oracle_calls_classical: int
    mode: str
    shots: int | None = None
    seed: int | None = None
    zeros: int | None = None
    ones: int | None = None


def check_mode(mode: str, shots: int | None, seed: int | None) -> None:
    """Reject an unknown mode, and sampled mode without shots or a seed."""
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if mode == "sampled":
        if shots is None or shots < 1:
            raise ValueError(f"sampled mode needs shots >= 1, got {shots!r}")
        if seed is None:
            raise ValueError("sampled mode needs an explicit seed")


def entangling_probe(state: StateVector, tested: int) -> ProbeResult:
    """CNOT from ``tested`` onto a fresh |1> auxiliary, then quantify the pair.

    No auxiliary is simulated: as a |1> product factor before the CNOT it
    makes the pair's density the tested qubit's 2x2 density on |01>, |10>.
    """
    rho = qsim.qubit_density(state, tested)
    density = TwoQubitDensity(np.pad(rho, 1))  # rho on rows and columns |01>, |10>
    p1 = float(rho[1, 1].real)
    return ProbeResult(state, density, p1, effective_concurrence(p1), concurrence_wootters(density))


def read_probe(
    probe: ProbeResult, tested: int, mode: str, shots: int | None, seed: int | None
) -> tuple[float, float, int | None, int | None]:
    """The decision statistics ``(p1, c_effective, zeros, ones)`` of a probe:
    its own numbers in exact mode, else from ``shots`` measurements of the
    tested qubit, with ``p1 = ones/shots``."""
    if mode == "exact":
        return probe.p1, probe.c_effective, None, None
    zeros, ones = qsim.sample_counts(probe.state, tested, shots, seed)
    p1 = ones / shots
    return p1, effective_concurrence(p1), zeros, ones


def influence_circuit(f, n: int, i: int) -> ProbeResult:
    """Run the influence circuit plus entangling probe for variable ``i``.

    This is the quantum stage on its own, with no classical linearity gate;
    ``p1`` equals the variable's influence ``nu1/2^n`` exactly.
    """
    oracle = qsim.as_oracle(f, n)
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range for n={n}")
    state = qsim.new_state(n)
    state = qsim.apply_hadamard_layer(state, range(n))
    state = qsim.apply_phase_oracle(state, oracle.values, n)
    state = qsim.apply_hadamard_layer(state, range(n))
    return entangling_probe(state, tested=i)


def junta_variable_test(
    f,
    n: int,
    i: int,
    mode: str = "exact",
    shots: int | None = None,
    seed: int | None = None,
) -> JuntaVerdict:
    """Decide whether variable ``i`` of the n-input black box is junta.

    Costs exactly 2 classical queries plus at most 1 quantum application of
    the oracle.  In sampled mode, junta is declared only on zero observed
    ones; populations below roughly ``1/shots`` can then be missed, which is
    inherent to any finite-shot tester.
    """
    check_mode(mode, shots, seed)
    oracle = qsim.as_oracle(f, n)
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range for n={n}")

    gate = boolfn.linearity_probe(oracle.query, i)
    if gate.linear_term_present:
        return JuntaVerdict(
            verdict=Verdict.NOT_JUNTA_LINEAR,
            variable=i,
            p1=None,
            c_effective=None,
            c_wootters=None,
            constant_term_present=gate.constant_term_present,
            oracle_calls_quantum=0,
            oracle_calls_classical=2,
            mode=mode,
            shots=shots,
            seed=seed,
        )

    probe = influence_circuit(oracle, n, i)
    p1, c_eff, zeros, ones = read_probe(probe, i, mode, shots, seed)
    is_junta = p1 <= EPSILON_ZERO if mode == "exact" else ones == 0
    return JuntaVerdict(
        verdict=Verdict.JUNTA if is_junta else Verdict.NOT_JUNTA,
        variable=i,
        p1=p1,
        c_effective=c_eff,
        c_wootters=probe.c_wootters,
        constant_term_present=gate.constant_term_present,
        oracle_calls_quantum=1,
        oracle_calls_classical=2,
        mode=mode,
        shots=shots,
        seed=seed,
        zeros=zeros,
        ones=ones,
    )


def junta_scan(
    f,
    n: int,
    mode: str = "exact",
    shots: int | None = None,
    seed: int | None = None,
) -> list[JuntaVerdict]:
    """Test every variable in turn: at most ``n`` quantum oracle applications
    and exactly ``2n`` classical queries in total.

    In sampled mode the per-variable seed is ``seed + i`` so repeated scans
    stay reproducible.
    """
    oracle = qsim.as_oracle(f, n)
    return [
        junta_variable_test(
            oracle, n, i, mode=mode, shots=shots,
            seed=None if seed is None else seed + i,
        )
        for i in range(n)
    ]
