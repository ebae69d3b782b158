"""Two-qubit hidden-coupling noise model.

A target qubit A is coupled to a persistent spectator qubit B through an
always-on ZZ interaction while both qubits decohere.  Gate instructions act
on A only, B is never reset and never measured, so once the coupling is
switched on the effective action on A depends on the sequence history: the
same instruction no longer corresponds to a single fixed process matrix.

Every gate, including the state-preparation and measurement-axis gates, is
the exponential of (ideal rotation generator) + t_gate * (coupling +
decoherence).  Composite operations are products of such elementary gate
matrices, never a single exponential, so each elementary gate carries its
own dose of coupling and decoherence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .gates import IDEAL_GATE_SET, GateSpec
from .ptm import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    OperatorBasis,
    dissipator_generator,
    hamiltonian_generator,
    matexp,
    pauli_basis,
    vectorize_state,
)

__all__ = [
    "UnknownGate",
    "NoiseParams",
    "gate_unitary",
    "ising_generator",
    "rotation_generator",
    "initial_state",
    "measurement_effect",
    "TwoQubitModel",
    "build_model",
    "distort_spam",
]


class UnknownGate(KeyError):
    """A sequence referenced a gate the model cannot build."""


@dataclass(frozen=True)
class NoiseParams:
    """Physical parameters of the two-qubit model.

    Rates are angular (1/s), ``coupling`` is the ZZ strength J (rad/s),
    ``t_gate`` the elementary gate duration (s), ``p_ground`` the ground-state
    weight of the thermal preparation, and ``eta`` the readout efficiency.
    """

    gamma1: float
    gamma3: float
    gamma_phi: float
    coupling: float
    t_gate: float
    p_ground: float
    eta: float

    def __post_init__(self):
        for name in ("gamma1", "gamma3", "gamma_phi"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.p_ground <= 1.0:
            raise ValueError("p_ground must lie in [0, 1]")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.t_gate <= 0:
            raise ValueError("t_gate must be positive")
        if not math.isfinite(self.coupling):
            raise ValueError("coupling must be finite")

    @property
    def phi(self) -> float:
        """Dimensionless coupling angle accumulated per gate: J * t_gate."""
        return self.coupling * self.t_gate


_AXIS_OPS = {"X": PAULI_X, "Y": PAULI_Y}


def gate_unitary(gate: GateSpec) -> np.ndarray:
    """Ideal 2x2 unitary of a gate instruction, exp(-i*angle*sigma/2)."""
    if gate.axis == "I":
        return PAULI_I.copy()
    sigma = _AXIS_OPS[gate.axis]
    half = gate.angle / 2.0
    return math.cos(half) * PAULI_I - 1j * math.sin(half) * sigma


def rotation_generator(gate: GateSpec) -> np.ndarray:
    """Generator of the ideal rotation on A (tensored with identity on B).

    The idle gate has a zero generator by convention.
    """
    basis = pauli_basis(2)
    if gate.axis == "I":
        return np.zeros((basis.size, basis.size))
    h = (gate.angle / 2.0) * np.kron(_AXIS_OPS[gate.axis], PAULI_I)
    return hamiltonian_generator(h, basis)


@functools.lru_cache(maxsize=64)
def _ideal_generator(gate: GateSpec) -> np.ndarray:
    """:func:`rotation_generator`, built once per gate and read-only.

    It depends on neither the coupling nor the decay rates, so every model
    shares it.
    """
    generator = rotation_generator(gate)
    generator.flags.writeable = False
    return generator


def ising_generator(coupling: float) -> np.ndarray:
    """Generator of the ZZ interaction ``rho -> -i[(J/2) Z(x)Z, rho]``."""
    if not math.isfinite(coupling):
        raise ValueError("coupling must be finite")
    return hamiltonian_generator((coupling / 2.0) * np.kron(PAULI_Z, PAULI_Z), pauli_basis(2))


@functools.lru_cache(maxsize=64)
def _dissipator(gamma1: float, gamma3: float, gamma_phi: float) -> np.ndarray:
    """The two-qubit :func:`dissipator_generator`, built once per rate set and read-only.

    It does not depend on the coupling, so every model of a phi sweep shares it.
    """
    dissipator = dissipator_generator(gamma1, gamma3, gamma_phi, 2)
    dissipator.flags.writeable = False
    return dissipator


def _thermal_qubit(p_ground: float) -> np.ndarray:
    return np.diag([p_ground, 1.0 - p_ground]).astype(complex)


def initial_state(params: NoiseParams) -> np.ndarray:
    """Vectorized noisy initial state ``(p|0><0| + (1-p)|1><1|)^(x)2``.

    With ``p = gamma1 / (gamma1 + gamma3)`` this state is stationary under
    the pure-decoherence part of the dynamics.
    """
    rho = np.kron(_thermal_qubit(params.p_ground), _thermal_qubit(params.p_ground))
    return vectorize_state(rho, pauli_basis(2))


def measurement_effect(params: NoiseParams) -> np.ndarray:
    """Vectorized monitored effect ``eta |1><1|`` on A; B is traced out."""
    effect = params.eta * np.kron(np.diag([0.0, 1.0]).astype(complex), PAULI_I)
    return vectorize_state(effect, pauli_basis(2))


@dataclass
class TwoQubitModel:
    """Built simulation model: cached gate matrices plus SPAM vectors.

    ``spam_in[i]`` is the noisy prepared state after in-gate ``i`` and
    ``spam_out[k]`` the noisy measured effect for out-gate ``k`` (both in the
    16-dimensional joint representation).  A probability-table entry for a
    sequence with total transfer matrix ``S`` is
    ``spam_out[k] @ S @ spam_in[i]``.

    ``generators`` holds the coupling and dissipator generators, shared by
    every gate; the read-only dissipator is shared by every model with the
    same rates.  Treat instances as immutable; the only internal mutation is
    gate-matrix memoization.
    """

    params: NoiseParams
    basis: OperatorBasis
    spam_in: np.ndarray  # (4, 16)
    spam_out: np.ndarray  # (4, 16)
    generators: tuple = field(repr=False)
    _gate_cache: dict = field(default_factory=dict, repr=False)

    def gate_ptm(self, gate: GateSpec) -> np.ndarray:
        """16x16 transfer matrix of a noisy gate on the A+B pair, built once per gate.

        ``exp(J_gate + k*t_gate*(V + D))`` with ``J_gate`` the full ideal rotation
        generator, ``V`` the ZZ coupling, ``D`` the two-qubit dissipator, and
        ``k`` the gate's duration multiplier.
        """
        cached = self._gate_cache.get(gate)
        if cached is None:
            if not isinstance(gate, GateSpec):
                raise UnknownGate(f"not a gate instruction: {gate!r}")
            stretch = gate.duration * self.params.t_gate
            ising, dissipator = self.generators
            cached = matexp(_ideal_generator(gate) + stretch * ising + stretch * dissipator)
            self._gate_cache[gate] = cached
        return cached


def build_model(params: NoiseParams) -> TwoQubitModel:
    """Assemble the model: noisy in/out gates applied to the noisy state/effect."""
    dissipator = _dissipator(params.gamma1, params.gamma3, params.gamma_phi)
    model = TwoQubitModel(params=params, basis=pauli_basis(2), spam_in=None, spam_out=None,
                          generators=(ising_generator(params.coupling), dissipator))
    rho0, meas = initial_state(params), measurement_effect(params)
    model.spam_in = np.array([model.gate_ptm(g) @ rho0 for g in IDEAL_GATE_SET])
    model.spam_out = np.array([model.gate_ptm(g).T @ meas for g in IDEAL_GATE_SET])
    return model


def distort_spam(
    model: TwoQubitModel, e_in: np.ndarray, e_out: np.ndarray
) -> TwoQubitModel:
    """Return a copy of the model with extra linear SPAM maps on qubit A.

    ``e_in`` and ``e_out`` are 4x4 transfer matrices applied to every prepared
    state and every measured effect respectively (identity on B).  They need
    not be physical; this is the diagnostic knob used to check that the
    context tests are insensitive to arbitrary invertible SPAM errors.
    """
    lift_in = np.kron(np.asarray(e_in, dtype=float), np.eye(4))
    lift_out = np.kron(np.asarray(e_out, dtype=float), np.eye(4))
    return replace(
        model,
        spam_in=model.spam_in @ lift_in.T,
        spam_out=model.spam_out @ lift_out.T,
        _gate_cache=model._gate_cache,
    )
