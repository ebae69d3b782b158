"""Matrix-invariant tests for context-dependent quantum gates.

The package has four layers: :mod:`ctxdep.ptm` (operator bases, transfer
matrices, generators, determinant and trace-power summaries),
:mod:`ctxdep.noise` (a two-qubit model where a hidden persistent spectator
makes single-qubit gates history-dependent), :mod:`ctxdep.experiment`
(sequence families and exact or finite-shot probability tables), and
:mod:`ctxdep.analysis` (the permutation, cyclic, and repetition tests plus
unitarity and divisibility measures).  :mod:`ctxdep.gates` holds the gate
instructions they share.  :mod:`ctxdep.cli` drives preset scenarios from flat
config files, which :mod:`ctxdep.config` parses and validates.

The names below are re-exported from their layers on first access (PEP 562),
so ``import ctxdep`` and the config and CLI modules load no numpy; a layer is
imported when one of its names is first used.
"""

import importlib

_EXPORTS = {
    "analysis": (
        "CalibrationMatrices",
        "IllConditioned",
        "NotTracePreserving",
        "SingularReference",
        "TestReport",
        "Verdict",
        "accessible_volume",
        "bootstrap_ci",
        "calibration_from_states_effects",
        "cp_witness",
        "cyclic_fidelity_test",
        "det_permutation_test",
        "ideal_calibration",
        "raw_estimate",
        "repetition_test",
        "unitarity_tilde",
        "unitarity_u",
    ),
    "experiment": (
        "ProbabilityTable",
        "Sequence",
        "SequenceFamily",
        "cyclic_family",
        "family_tables",
        "permutation_family",
        "prob_table",
        "random_permutation_family",
        "read_table_csv",
        "repetition_family",
        "sample_table",
        "sequence_ptm",
        "write_table_csv",
    ),
    "gates": (
        "GATE_IDLE",
        "GATE_X_HALF",
        "GATE_X_MINUS_HALF",
        "GATE_X_PI",
        "GATE_Y_MINUS_HALF",
        "GATE_Y_PI",
        "IDEAL_GATE_SET",
        "GateSpec",
    ),
    "noise": (
        "NoiseParams",
        "TwoQubitModel",
        "UnknownGate",
        "build_model",
        "distort_spam",
        "gate_unitary",
        "initial_state",
        "ising_generator",
        "measurement_effect",
        "noisy_gate",
    ),
    "ptm": (
        "NegativeRate",
        "NonHermitianInput",
        "NonRealEntry",
        "OperatorBasis",
        "choi_matrix",
        "dissipator_generator",
        "hamiltonian_generator",
        "log_abs_det",
        "matexp",
        "pauli_basis",
        "ptm_of_map",
        "trace_powers",
        "vectorize_effect",
        "vectorize_state",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # `ctxdep.noise` after a bare `import ctxdep`
        return importlib.import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
