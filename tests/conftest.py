import numpy as np
import pytest

from ctxdep import NoiseParams, Sequence

# Headline simulation parameters: T1 = 60 us, thermal excitation fixed by the
# stationarity condition p = g1/(g1+g3), dephasing at g1/2, 20 ns gates.
GAMMA1 = 1.0 / 60e-6
P_GROUND = 0.92
GAMMA3 = GAMMA1 * (1.0 - P_GROUND) / P_GROUND
GAMMA_PHI = GAMMA1 / 2.0
T_GATE = 20e-9
ETA = 0.95
GAMMA_SUM = GAMMA1 + GAMMA3 + GAMMA_PHI


def make_params(phi=0.0, **overrides) -> NoiseParams:
    kwargs = dict(
        gamma1=GAMMA1,
        gamma3=GAMMA3,
        gamma_phi=GAMMA_PHI,
        coupling=phi / T_GATE,
        t_gate=T_GATE,
        p_ground=P_GROUND,
        eta=ETA,
    )
    kwargs.update(overrides)
    return NoiseParams(**kwargs)


def seq(label, *gates):
    return Sequence(gates=tuple(gates), label=label)


def random_spam_distortion(rng, cond):
    """Random invertible 4x4 with the requested condition number."""
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    svals = np.geomspace(1.0, cond, 4) / np.sqrt(cond)
    return q1 @ np.diag(svals) @ q2


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Ginibre-random density matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_kraus_channel(rng: np.random.Generator, dim: int, n_kraus: int = 3):
    """Random CPTP channel as a normalized Kraus set."""
    ops = [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(n_kraus)
    ]
    norm = sum(op.conj().T @ op for op in ops)
    # norm is positive definite almost surely; whiten so sum K+K = identity.
    evals, evecs = np.linalg.eigh(norm)
    inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
    kraus = [op @ inv_sqrt for op in ops]
    return kraus


def apply_kraus(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


def amplitude_damping_kraus(g: float):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def lindblad_action(rho, jumps):
    """Explicit ``sum_j rate_j (A rho A+ - {A+A, rho}/2)`` over ``(rate, A)`` pairs."""
    out = np.zeros_like(rho, dtype=complex)
    for rate, op in jumps:
        op_dag_op = op.conj().T @ op
        out = out + rate * (op @ rho @ op.conj().T - 0.5 * (op_dag_op @ rho + rho @ op_dag_op))
    return out


def integrate_master_equation(rho0, hamiltonian, jumps, duration=1.0):
    """Brute-force oracle: integrate drho/dt = -i[H,rho] + dissipator directly.

    Independent of every transfer-matrix code path (no operator basis, no
    matrix exponential); plain dense ODE integration of the d x d density
    matrix over [0, duration].  It needs scipy, and skips the test without it.
    """
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    dim = rho0.shape[0]

    def rhs(_t, flat):
        rho = flat.reshape(dim, dim)
        drho = -1j * (hamiltonian @ rho - rho @ hamiltonian) + lindblad_action(rho, jumps)
        return drho.ravel()

    sol = solve_ivp(
        rhs,
        (0.0, duration),
        rho0.astype(complex).ravel(),
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
    )
    return sol.y[:, -1].reshape(dim, dim)


def model_jump_operators(params, num_qubits=2):
    """Jump operators matching the model's dissipator convention."""
    from ctxdep.ptm import LOWERING, PAULI_I, PAULI_Z, RAISING

    def embed(op, q):
        full = np.array([[1.0 + 0.0j]])
        for i in range(num_qubits):
            full = np.kron(full, op if i == q else PAULI_I)
        return full

    jumps = []
    for q in range(num_qubits):
        jumps.append((params.gamma1, embed(LOWERING, q)))
        jumps.append((params.gamma3, embed(RAISING, q)))
        jumps.append((params.gamma_phi / 2.0, embed(PAULI_Z, q)))
    return jumps


@pytest.fixture(scope="session")
def baseline_model():
    from ctxdep import build_model

    return build_model(make_params(phi=0.0))
