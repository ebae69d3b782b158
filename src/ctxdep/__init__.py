"""Matrix-invariant tests for context-dependent quantum gates.

The package has four layers: :mod:`ctxdep.ptm` (operator bases, transfer
matrices, generators, determinant and trace-power summaries),
:mod:`ctxdep.noise` (a two-qubit model where a hidden persistent spectator
makes single-qubit gates history-dependent), :mod:`ctxdep.experiment`
(sequence families and exact or finite-shot probability tables), and
:mod:`ctxdep.analysis` (the permutation, cyclic, and repetition tests plus
unitarity and divisibility measures).  :mod:`ctxdep.cli` drives preset
scenarios from flat config files, which :mod:`ctxdep.config` parses and
validates.
"""

from .analysis import (
    CalibrationMatrices,
    IllConditioned,
    NotTracePreserving,
    SingularReference,
    TestReport,
    Verdict,
    accessible_volume,
    bootstrap_ci,
    calibration_from_states_effects,
    cp_witness,
    cyclic_fidelity_test,
    det_permutation_test,
    ideal_calibration,
    raw_estimate,
    repetition_test,
    unitarity_tilde,
    unitarity_u,
)
from .experiment import (
    ProbabilityTable,
    Sequence,
    SequenceFamily,
    cyclic_family,
    family_tables,
    permutation_family,
    prob_table,
    random_permutation_family,
    read_table_csv,
    repetition_family,
    sample_table,
    sequence_ptm,
    write_table_csv,
)
from .noise import (
    GATE_IDLE,
    GATE_X_HALF,
    GATE_X_MINUS_HALF,
    GATE_X_PI,
    GATE_Y_MINUS_HALF,
    GATE_Y_PI,
    IDEAL_GATE_SET,
    GateSpec,
    NoiseParams,
    TwoQubitModel,
    UnknownGate,
    build_model,
    distort_spam,
    gate_unitary,
    initial_state,
    ising_generator,
    measurement_effect,
    noisy_gate,
)
from .ptm import (
    NegativeRate,
    NonHermitianInput,
    NonRealEntry,
    OperatorBasis,
    choi_matrix,
    dissipator_generator,
    hamiltonian_generator,
    log_abs_det,
    matexp,
    pauli_basis,
    ptm_of_map,
    trace_powers,
    vectorize_effect,
    vectorize_state,
)

__version__ = "0.1.0"
