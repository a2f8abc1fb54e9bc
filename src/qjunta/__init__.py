"""Entanglement-based junta testing and learning of Boolean functions.

A Boolean black box is probed with a small circuit: Fourier-sample the
function so that qubit ``i`` carries the influence of variable ``x_i`` as
its excitation probability, then drive a CNOT into a |1> auxiliary and read
the entanglement off the pair.  Nonzero entanglement pins the variable as
relevant; a classical two-point probe covers the purely linear case the
circuit cannot see.  Everything is double checked against exhaustive
classical analysis of the same function.
"""

from .boolfn import (
    AnfFunction,
    AnfParseError,
    InfluenceReport,
    LinearityProbe,
    TruthTable,
    anf_from_truth_table,
    count_ones,
    derivative,
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
from .entangle import PureTwoQubit, concurrence_pure, concurrence_wootters, effective_concurrence
from .junta import (
    JuntaVerdict,
    ProbeResult,
    Verdict,
    entangling_probe,
    influence_circuit,
    junta_scan,
    junta_variable_test,
)
from .learner import (
    Category,
    CategoryVerdict,
    LearnedTerm,
    SameTermSet,
    categorize,
    learn_single_term,
    same_term_variables,
    solution_count_candidates,
)
from .qsim import (
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
    new_state,
    prob_one,
    qubit_density,
    reduced_density_two_qubits,
    sample_counts,
)

__all__ = [
    "AnfFunction",
    "AnfParseError",
    "BitOracle",
    "Category",
    "CategoryVerdict",
    "DerivativeOracle",
    "InfluenceReport",
    "JuntaVerdict",
    "LearnedTerm",
    "LinearityProbe",
    "ProbeResult",
    "PureTwoQubit",
    "SameTermSet",
    "StateVector",
    "TruthTable",
    "TwoQubitDensity",
    "Verdict",
    "anf_from_truth_table",
    "apply_bit_oracle",
    "apply_cnot",
    "apply_derivative_oracle",
    "apply_hadamard_layer",
    "apply_phase_oracle",
    "apply_x",
    "categorize",
    "concurrence_pure",
    "concurrence_wootters",
    "count_ones",
    "derivative",
    "effective_concurrence",
    "entangling_probe",
    "evaluate",
    "format_anf",
    "format_truth_table",
    "influence_circuit",
    "influence_report",
    "junta_scan",
    "junta_variable_test",
    "learn_single_term",
    "linearity_probe",
    "negate_variable",
    "new_state",
    "parse_anf",
    "parse_truth_table",
    "prob_one",
    "qubit_density",
    "reduced_density_two_qubits",
    "same_term_variables",
    "same_term_variables_brute",
    "sample_counts",
    "solution_count_candidates",
    "to_truth_table",
    "xor_functions",
]

__version__ = "0.1.0"
