"""Operator bases, transfer matrices, generators, and spectral summaries.

Conventions used by every module in this package:

* Operator bases are Hermitian and orthogonal with ``Tr(P_n P_m) = d*delta_nm``
  where ``d`` is the Hilbert-space dimension.  Basis elements are Pauli
  strings in lexicographic order with the identity first: ``I, X, Y, Z`` for
  one qubit, ``II, IX, ..., ZZ`` for two.
* A linear map ``S`` on density operators is represented by the real
  ``d^2 x d^2`` transfer matrix ``S_nm = Tr[P_n S(P_m)] / d``.  Transfer
  matrices compose like the maps themselves, last-applied map leftmost.
* States vectorize as ``Tr(P_m rho) / sqrt(d)`` and measurement effects as
  ``Tr(P_n Pi) / sqrt(d)``, so that ``Tr(Pi S(rho)) = effect @ S @ state``.
* Generators (infinitesimal superoperators) live in the same representation;
  a duration-``t`` evolution is ``matexp(t * G)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

__all__ = [
    "NonRealEntry",
    "NonHermitianInput",
    "NegativeRate",
    "OperatorBasis",
    "pauli_basis",
    "vectorize_state",
    "vectorize_effect",
    "ptm_of_map",
    "hamiltonian_generator",
    "dissipator_generator",
    "matexp",
    "log_abs_det",
    "trace_powers",
    "choi_matrix",
]

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_SINGLE_QUBIT_PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)

# Lowering operator |0><1| (energy decay) and its adjoint (excitation).
LOWERING = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
RAISING = LOWERING.conj().T

IMAG_TOL = 1e-9  # times max(1, largest |real entry|): a larger imaginary part raises NonRealEntry


class NonRealEntry(ValueError):
    """A transfer-matrix entry had a non-negligible imaginary part."""


class NonHermitianInput(ValueError):
    """A Hamiltonian argument was not Hermitian."""


class NegativeRate(ValueError):
    """A decoherence rate was negative."""


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Ordered Hermitian operator basis with ``Tr(P_n P_m) = d*delta_nm``.

    ``elements[0]`` is always the identity.  Instances compare and hash by
    identity, so per-basis results can be cached.
    """

    dim: int
    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.elements) != self.dim**2:
            raise ValueError(
                f"basis for dimension {self.dim} needs {self.dim ** 2} elements, "
                f"got {len(self.elements)}"
            )

    @property
    def size(self) -> int:
        return self.dim**2

    @functools.cached_property
    def vec_columns(self) -> np.ndarray:
        """Change-of-basis matrix whose column ``m`` is the row-major ``vec(P_m)``.

        Built on first use and read-only.
        """
        return _read_only(np.stack([p.ravel() for p in self.elements], axis=1))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=None)
def pauli_basis(num_qubits: int) -> OperatorBasis:
    """Tensor-product Pauli basis for ``num_qubits`` qubits.

    Elements come in lexicographic order over the strings (I, X, Y, Z) with
    the all-identity string first, normalized so ``Tr(P_n P_m) = d*delta_nm``
    with ``d = 2**num_qubits`` (bare Pauli strings already satisfy this).
    Built once per ``num_qubits`` and shared, so its arrays are read-only.
    """
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    elements = []
    for combo in product(range(4), repeat=num_qubits):
        op = np.array([[1.0 + 0.0j]])
        for c in combo:
            op = np.kron(op, _SINGLE_QUBIT_PAULIS[c])
        elements.append(_read_only(op))
    return OperatorBasis(dim=2**num_qubits, elements=tuple(elements))


def vectorize_state(rho: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Expansion coordinates ``Tr(P_m rho) / sqrt(d)`` of a density operator."""
    coords = np.einsum("im,i->m", basis.vec_columns.conj(), np.ravel(rho))  # see _superop_to_ptm
    return coords.real / np.sqrt(basis.dim)


def vectorize_effect(effect: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Expansion coordinates ``Tr(P_n Pi) / sqrt(d)`` of a POVM effect."""
    return vectorize_state(effect, basis)


def ptm_of_map(apply_map: Callable[[np.ndarray], np.ndarray], basis: OperatorBasis) -> np.ndarray:
    """Transfer matrix of a linear map given as a black-box action on operators.

    Entry ``(n, m)`` is ``Tr[P_n apply_map(P_m)] / d``.  For a
    Hermiticity-preserving map these are real; :func:`_real_part` discards
    residual imaginary parts and raises :class:`NonRealEntry` on larger ones.
    """
    out = np.empty((basis.size, basis.size), dtype=complex)
    for m, p_m in enumerate(basis.elements):
        image = apply_map(p_m)
        for n, p_n in enumerate(basis.elements):
            out[n, m] = np.trace(p_n @ image) / basis.dim
    return _real_part(out)


def _real_part(out: np.ndarray) -> np.ndarray:
    """``out.real``; raises :class:`NonRealEntry` where ``|out.imag|`` exceeds ``IMAG_TOL``
    times the largest real entry (or times 1, if that is smaller): roundoff grows with it."""
    imag = np.abs(out.imag)
    n, m = np.unravel_index(np.argmax(imag), imag.shape)
    if imag[n, m] > IMAG_TOL * max(1.0, np.abs(out.real).max()):
        raise NonRealEntry(f"entry ({n}, {m}) has imaginary part {out.imag[n, m]:.3e}; "
                           "the map does not preserve Hermiticity")
    return out.real


def _superop_to_ptm(superop: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Transfer matrix ``V^+ L V / d`` of a superoperator ``L`` acting on ``vec(rho)``.

    Entry ``(n, m)`` is ``Tr[P_n L(P_m)] / d``, checked for realness by :func:`_real_part`.
    """
    # einsum sums in numpy's own loops, where a complex `@` pages in OpenBLAS's
    # complex kernels, which nothing else in a run needs; two two-operand steps
    # in the `@` chain's order (one three-operand einsum is O(d^8))
    v = basis.vec_columns
    vl = np.einsum("in,ij->nj", v.conj(), superop)
    return _real_part(np.einsum("nj,jm->nm", vl, v) / basis.dim)


def hamiltonian_generator(hamiltonian: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Transfer-matrix generator of ``rho -> -i[H, rho]``.

    Closed form ``-i(H (x) I - I (x) H^T)`` on ``vec(rho)``.  The result is
    antisymmetric with an all-zero first row and column.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if np.linalg.norm(h - h.conj().T) > 1e-12:
        raise NonHermitianInput("Hamiltonian must be Hermitian")
    eye = np.eye(basis.dim)
    return _superop_to_ptm(-1j * (np.kron(h, eye) - np.kron(eye, h.T)), basis)


def _embed(op: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    full = np.array([[1.0 + 0.0j]])
    for q in range(num_qubits):
        full = np.kron(full, op if q == qubit else PAULI_I)
    return full


def dissipator_generator(
    gamma1: float,
    gamma3: float,
    gamma_phi: float,
    num_qubits: int,
    basis: OperatorBasis | None = None,
) -> np.ndarray:
    """Local decay/excitation/dephasing dissipator, summed over all qubits.

    Jump operators per qubit: lowering at rate ``gamma1``, raising at rate
    ``gamma3``, and ``sigma_z`` at rate ``gamma_phi / 2``.  The dephasing
    prefactor is fixed so that x and y coherences contract at ``gamma_phi``
    each, which pins the single-qubit generator trace to
    ``-2*(gamma1 + gamma3 + gamma_phi)``.  Closed form per jump operator
    ``A``: ``A (x) A* - (A+A (x) I + I (x) (A+A)^T) / 2`` on ``vec(rho)``.
    """
    for name, rate in (("gamma1", gamma1), ("gamma3", gamma3), ("gamma_phi", gamma_phi)):
        if rate < 0:
            raise NegativeRate(f"{name} = {rate} must be >= 0")
    if basis is None:
        basis = pauli_basis(num_qubits)
    eye = np.eye(basis.dim)
    superop = np.zeros((basis.size, basis.size), dtype=complex)
    for q in range(num_qubits):
        for rate, local in ((gamma1, LOWERING), (gamma3, RAISING), (gamma_phi / 2.0, PAULI_Z)):
            a = _embed(local, q, num_qubits)
            a_dag_a = np.einsum("ki,kj->ij", a.conj(), a)  # see _superop_to_ptm
            anticommutator = np.kron(a_dag_a, eye) + np.kron(eye, a_dag_a.T)
            superop += rate * (np.kron(a, a.conj()) - 0.5 * anticommutator)
    return _superop_to_ptm(superop, basis)


# Degree-13 Pade coefficients b_0..b_13 and the 1-norm below which the
# approximant is accurate to double precision (Higham 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def matexp(generator: np.ndarray) -> np.ndarray:
    """Matrix exponential by degree-13 Pade scaling and squaring.

    N. J. Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26(4), 1179-1193 (2005): scale by
    ``2^-s`` so that ``|A|_1 <= theta_13``, solve ``(V - U) R = V + U`` for
    the Pade approximant ``R`` and square it ``s`` times.
    """
    a = np.asarray(generator, dtype=float)
    norm = np.linalg.norm(a, 1)
    if not np.isfinite(norm):
        raise ValueError("matexp needs a finite matrix")
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**s
    b = _PADE13
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def log_abs_det(matrix: np.ndarray) -> float:
    """``log|det M|`` of one square matrix, via :func:`log_abs_det_many`."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return float(log_abs_det_many(m))


def log_abs_det_many(matrices: np.ndarray) -> np.ndarray:
    """``log|det|`` of every matrix in a ``(..., n, n)`` stack, via ``slogdet``.

    Never forms the determinant itself, so products of many contractive
    factors cannot underflow.  An exactly singular matrix gives ``-inf``
    instead of raising; callers decide how to treat that.
    """
    _, logdet = np.linalg.slogdet(np.asarray(matrices, dtype=float))
    return logdet


def trace_powers(matrix: np.ndarray, r_max: int | None = None) -> np.ndarray:
    """``[Tr(M), Tr(M^2), ..., Tr(M^r_max)]`` by repeated multiplication.

    ``matrix`` may be one ``n x n`` matrix or a ``(..., n, n)`` stack; the
    powers run along a new last axis.  Floating input keeps its dtype, so a
    ``longdouble`` stack is multiplied in extended precision.  Defaults to
    ``r_max = n``: the first n power traces determine the spectrum (Newton's
    identities), so two matrices are cospectral iff all these values agree.
    No eigensolver is involved.
    """
    m = np.asarray(matrix)
    m = m.astype(np.result_type(m, np.float64), copy=False)
    if r_max is None:
        r_max = m.shape[-1]
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    out = np.empty(m.shape[:-2] + (r_max,), dtype=m.dtype)
    acc = m
    out[..., 0] = np.trace(acc, axis1=-2, axis2=-1)
    for r in range(1, r_max):
        acc = acc @ m
        out[..., r] = np.trace(acc, axis1=-2, axis2=-1)
    return out


def choi_matrix(ptm: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Choi operator (trace normalized to S_00) of a transfer matrix.

    ``J = (1/d^2) sum_nm S_nm P_n (x) P_m^T``; the map is completely positive
    iff ``J`` is positive semidefinite.
    """
    # V S V^T holds sum_nm S_nm P_n[a, b] P_m[e, c] at ((a, b), (e, c)); the
    # Kronecker product wants it at ((a, c), (b, e)).
    d = basis.dim
    v = basis.vec_columns
    w = (v @ ptm @ v.T).reshape(d, d, d, d)
    return w.transpose(0, 3, 1, 2).reshape(basis.size, basis.size) / basis.size
