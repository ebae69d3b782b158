
import numpy as np
import pytest

import ctxdep.noise
from ctxdep import (
    NegativeRate,
    NonHermitianInput,
    NonRealEntry,
    build_model,
    choi_matrix,
    dissipator_generator,
    hamiltonian_generator,
    log_abs_det,
    matexp,
    pauli_basis,
    ptm_of_map,
    trace_powers,
)
from ctxdep.ptm import PAULI_X, PAULI_Z, log_abs_det_many

from .conftest import (
    amplitude_damping_kraus,
    apply_kraus,
    lindblad_action,
    make_params,
    model_jump_operators,
    random_kraus_channel,
)


def conjugation(u):
    return lambda rho: u @ rho @ u.conj().T


class TestPauliBasis:
    def test_single_qubit_elements(self):
        basis = pauli_basis(1)
        assert basis.dim == 2
        assert len(basis.elements) == 4
        np.testing.assert_allclose(basis.elements[0], np.eye(2))
        np.testing.assert_allclose(basis.elements[1], PAULI_X)
        np.testing.assert_allclose(basis.elements[3], PAULI_Z)

    def test_single_qubit_orthogonality_table(self):
        # brute force over all 16 pairs against the direct trace
        basis = pauli_basis(1)
        for n, pn in enumerate(basis.elements):
            for m, pm in enumerate(basis.elements):
                expected = 2.0 if n == m else 0.0
                assert abs(np.trace(pn @ pm) - expected) < 1e-12

    def test_two_qubit_basis(self):
        basis = pauli_basis(2)
        assert len(basis.elements) == 16
        np.testing.assert_allclose(basis.elements[0], np.eye(4))
        gram = np.array(
            [[np.trace(a @ b).real for b in basis.elements] for a in basis.elements]
        )
        np.testing.assert_allclose(gram, 4.0 * np.eye(16), atol=1e-12)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_orthogonality_invariant(self, num_qubits):
        basis = pauli_basis(num_qubits)
        d = basis.dim
        for n, pn in enumerate(basis.elements):
            assert abs(np.trace(pn @ pn).real - d) < 1e-12
            for pm in basis.elements[n + 1 :]:
                assert abs(np.trace(pn @ pm)) < 1e-12

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            pauli_basis(0)


class TestPtmOfMap:
    def test_identity_map(self):
        basis = pauli_basis(1)
        np.testing.assert_allclose(ptm_of_map(lambda r: r, basis), np.eye(4))

    def test_x_conjugation(self):
        basis = pauli_basis(1)
        got = ptm_of_map(conjugation(PAULI_X), basis)
        np.testing.assert_allclose(got, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-12)

    @pytest.mark.parametrize("g", [0.1, 0.3, 0.7])
    def test_amplitude_damping_determinant(self, g):
        basis = pauli_basis(1)
        kraus = amplitude_damping_kraus(g)
        ptm = ptm_of_map(lambda rho: apply_kraus(kraus, rho), basis)
        assert log_abs_det(ptm) == pytest.approx(2.0 * np.log(1.0 - g), rel=1e-10)

    def test_non_hermiticity_preserving_map_rejected(self):
        # the tolerance grows with the entries, but never to their own size
        from ctxdep.ptm import LOWERING

        basis = pauli_basis(1)
        for scale in (1.0, 1e9):
            with pytest.raises(NonRealEntry, match=r"entry \(\d, \d\)"):
                ptm_of_map(lambda rho: scale * LOWERING @ rho, basis)

    def test_composition_homomorphism(self):
        # representation of (apply S1 then S2) is the matrix product S2 @ S1
        basis = pauli_basis(1)
        rng = np.random.default_rng(11)
        for _ in range(20):
            k1 = random_kraus_channel(rng, 2)
            k2 = random_kraus_channel(rng, 2)
            s1 = ptm_of_map(lambda r: apply_kraus(k1, r), basis)
            s2 = ptm_of_map(lambda r: apply_kraus(k2, r), basis)
            s21 = ptm_of_map(lambda r: apply_kraus(k2, apply_kraus(k1, r)), basis)
            np.testing.assert_allclose(s21, s2 @ s1, atol=1e-10)


class TestHamiltonianGenerator:
    def test_zero_hamiltonian(self):
        basis = pauli_basis(1)
        np.testing.assert_allclose(
            hamiltonian_generator(np.zeros((2, 2)), basis), np.zeros((4, 4))
        )

    def test_exponential_matches_conjugation(self):
        basis = pauli_basis(1)
        gen = hamiltonian_generator((np.pi / 2.0) * PAULI_X, basis)
        np.testing.assert_allclose(
            matexp(gen), ptm_of_map(conjugation(PAULI_X), basis), atol=1e-10
        )

    def test_traceless_and_antisymmetric(self):
        basis = pauli_basis(2)
        rng = np.random.default_rng(5)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        gen = hamiltonian_generator(h, basis)
        assert abs(np.trace(gen)) < 1e-9
        np.testing.assert_allclose(gen, -gen.T, atol=1e-9)
        np.testing.assert_allclose(gen[0], np.zeros(16), atol=1e-12)

    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_matches_black_box_commutator(self, num_qubits):
        basis = pauli_basis(num_qubits)
        rng = np.random.default_rng(40 + num_qubits)
        for _ in range(5):
            shape = (basis.dim, basis.dim)
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            h = a + a.conj().T
            oracle = ptm_of_map(lambda rho: -1j * (h @ rho - rho @ h), basis)
            np.testing.assert_allclose(
                hamiltonian_generator(h, basis), oracle, rtol=0, atol=1e-12
            )

    def test_rejects_non_hermitian(self):
        basis = pauli_basis(1)
        with pytest.raises(NonHermitianInput):
            hamiltonian_generator(np.array([[0.0, 1.0], [0.0, 0.0]]), basis)


def liouvillian_column_stacked(jumps, dim):
    """Independent dissipator assembly: column-stacking rep from jump ops."""
    eye = np.eye(dim)
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for rate, op in jumps:
        op_dag_op = op.conj().T @ op
        out += rate * (
            np.kron(op.conj(), op)
            - 0.5 * np.kron(eye, op_dag_op)
            - 0.5 * np.kron(op_dag_op.T, eye)
        )
    return out


class TestDissipatorGenerator:
    def test_fast_decay_is_real(self):
        # T1 from 1 us to 1 ps at the default p = 0.92 and gamma_phi = gamma1 / 2:
        # roundoff in the imaginary parts grows with the rates and is no error
        for g in np.logspace(6, 12, 61):
            g3 = g * (1 - 0.92) / 0.92
            d = dissipator_generator(g, g3, g / 2, 2)
            # two qubits, each with its 4x4 trace -2 (g1 + g3 + gphi), times 4
            assert np.trace(d) == pytest.approx(-16 * (g + g3 + g / 2), rel=1e-12)

    def test_zero_rates(self):
        np.testing.assert_allclose(
            dissipator_generator(0.0, 0.0, 0.0, 1), np.zeros((4, 4))
        )

    def test_decay_only_trace(self):
        from ctxdep.ptm import LOWERING

        d = dissipator_generator(1.0, 0.0, 0.0, 1)
        assert np.trace(d) == pytest.approx(-2.0, abs=1e-12)
        # trace is representation independent: compare with the
        # column-stacking assembly straight from the jump operator
        oracle = liouvillian_column_stacked([(1.0, LOWERING)], 2)
        assert np.trace(d).real == pytest.approx(np.trace(oracle).real, abs=1e-12)

    def test_full_rate_trace_convention(self):
        g1, g3, gphi = 1.0, 0.2, 0.5
        d = dissipator_generator(g1, g3, gphi, 1)
        assert np.trace(d) == pytest.approx(-2.0 * (g1 + g3 + gphi), abs=1e-12)
        # dephasing contracts x and y coherences at gamma_phi each
        d_phi = dissipator_generator(0.0, 0.0, gphi, 1)
        np.testing.assert_allclose(d_phi, np.diag([0.0, -gphi, -gphi, 0.0]), atol=1e-12)

    def test_two_qubit_trace(self):
        g1, g3, gphi = 1.0, 0.2, 0.5
        d = dissipator_generator(g1, g3, gphi, 2)
        # each qubit contributes -2*(sum of rates) on its own 4x4 block,
        # embedded alongside a 4-dimensional identity
        assert np.trace(d) == pytest.approx(-16.0 * (g1 + g3 + gphi), abs=1e-10)

    @pytest.mark.parametrize("t_scale", [0.1, 1.0, 10.0])
    def test_determinant_slope_identity(self, t_scale):
        g1 = 1.0
        d = dissipator_generator(g1, 0.0, 0.0, 1)
        t = t_scale / g1
        h = 1e-5 * t
        plus = log_abs_det(matexp((t + h) * d))
        minus = log_abs_det(matexp((t - h) * d))
        slope = (plus - minus) / (2.0 * h)
        assert slope == pytest.approx(np.trace(d), rel=1e-8)

    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_matches_black_box_lindblad_action(self, num_qubits):
        basis = pauli_basis(num_qubits)
        rng = np.random.default_rng(50 + num_qubits)
        for _ in range(5):
            g1, g3, gphi = rng.uniform(0.0, 2.0, size=3)
            jumps = model_jump_operators(
                make_params(gamma1=g1, gamma3=g3, gamma_phi=gphi), num_qubits
            )
            oracle = ptm_of_map(lambda rho: lindblad_action(rho, jumps), basis)
            np.testing.assert_allclose(
                dissipator_generator(g1, g3, gphi, num_qubits, basis), oracle, rtol=0, atol=1e-12
            )

    def test_rejects_negative_rate(self):
        with pytest.raises(NegativeRate):
            dissipator_generator(-1.0, 0.0, 0.0, 1)


class TestMatexp:
    def test_zero_matrix(self):
        np.testing.assert_allclose(matexp(np.zeros((4, 4))), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(
            matexp(np.diag([1.0, -2.0])), np.diag([np.e, np.exp(-2.0)]), rtol=1e-12
        )

    def test_inverse_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = rng.normal(size=(16, 16))
            g /= max(1.0, np.linalg.norm(g, 2))
            np.testing.assert_allclose(matexp(g) @ matexp(-g), np.eye(16), atol=1e-10)

    @staticmethod
    def assert_matches_scipy(g):
        expected = pytest.importorskip("scipy.linalg").expm(g)
        assert np.abs(matexp(g) - expected).max() <= 1e-13 * np.abs(expected).max()

    # 1-norms on both sides of theta_13 = 5.37, below which no squaring happens
    @pytest.mark.parametrize("norm", [0.0, 1e-4, 1.0, 5.0, 50.0])
    def test_matches_scipy_on_random_generators(self, norm):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = rng.normal(size=(16, 16))
            g *= norm / np.linalg.norm(g, 1)
            self.assert_matches_scipy(g)

    @pytest.mark.parametrize("phi", [0.0, 0.005, 0.03])
    def test_matches_scipy_on_model_gates(self, phi, monkeypatch):
        generators = []

        def recording(generator):
            generators.append(generator)
            return matexp(generator)

        monkeypatch.setattr(ctxdep.noise, "matexp", recording)
        model = build_model(make_params(phi=phi))
        assert len(generators) == len(model._gate_cache) > 0
        for g in generators:
            self.assert_matches_scipy(g)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matexp(np.full((4, 4), np.nan))


class TestLogAbsDet:
    def test_identity(self):
        assert log_abs_det(np.eye(5)) == 0.0

    def test_diagonal(self):
        m = np.diag([1.0, np.exp(-3.0), np.exp(-4.0), np.exp(-5.0)])
        assert log_abs_det(m) == pytest.approx(-12.0, abs=1e-12)

    def test_amplitude_damping(self):
        basis = pauli_basis(1)
        kraus = amplitude_damping_kraus(0.3)
        ptm = ptm_of_map(lambda rho: apply_kraus(kraus, rho), basis)
        assert log_abs_det(ptm) == pytest.approx(2.0 * np.log(0.7), rel=1e-10)

    def test_singular_sentinel(self):
        assert log_abs_det(np.diag([1.0, 0.0])) == -np.inf

    @pytest.mark.parametrize("size", [4, 16])
    def test_multiplicativity(self, size):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = rng.normal(size=(size, size)) + 2.0 * np.eye(size)
            b = rng.normal(size=(size, size)) + 2.0 * np.eye(size)
            assert log_abs_det(a @ b) == pytest.approx(
                log_abs_det(a) + log_abs_det(b), abs=1e-9
            )

    def test_batched_helper_agrees(self):
        rng = np.random.default_rng(17)
        stack = rng.normal(size=(6, 4, 4))
        stack[3] = np.diag([1.0, 2.0, 0.0, 1.0])  # singular member
        got = log_abs_det_many(stack)
        expected = np.array([log_abs_det(m) for m in stack])
        np.testing.assert_allclose(got, expected)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            log_abs_det(np.zeros((2, 3)))


class TestTracePowers:
    def test_identity(self):
        np.testing.assert_allclose(trace_powers(np.eye(4), 2), [4.0, 4.0])

    def test_diagonal_powers(self):
        m = np.diag([1.0, -1.0, 0.5, 0.5])
        np.testing.assert_allclose(trace_powers(m, 4), [1.0, 2.5, 0.25, 2.125])

    def test_first_power_is_trace(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4))
        assert trace_powers(m, 1)[0] == pytest.approx(np.trace(m))

    def test_cyclic_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4))
            np.testing.assert_allclose(
                trace_powers(a @ b), trace_powers(b @ a), atol=1e-9
            )

    def test_default_order_is_matrix_size(self):
        assert trace_powers(np.eye(4)).shape == (4,)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            trace_powers(np.eye(4), 0)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_stack_matches_per_matrix_loop(self, dtype):
        rng = np.random.default_rng(29)
        stack = rng.normal(size=(2, 3, 4, 4)).astype(dtype)
        got = trace_powers(stack)
        assert got.shape == (2, 3, 4) and got.dtype == dtype
        for idx in np.ndindex(2, 3):
            m = stack[idx]
            acc = m
            expected = [np.trace(acc)]
            for _ in range(3):
                acc = acc @ m
                expected.append(np.trace(acc))
            np.testing.assert_array_equal(got[idx], np.array(expected, dtype=dtype))


class TestDetLindIdentity:
    def test_hamiltonian_part_contributes_nothing(self):
        basis = pauli_basis(1)
        ham = hamiltonian_generator(0.7 * PAULI_X + 0.2 * PAULI_Z, basis)
        diss = dissipator_generator(0.9, 0.1, 0.4, 1)
        gen = ham + diss
        for t in (0.05, 0.3, 1.0):
            h = 1e-5 * max(t, 0.1)
            slope = (
                log_abs_det(matexp((t + h) * gen)) - log_abs_det(matexp((t - h) * gen))
            ) / (2.0 * h)
            assert slope == pytest.approx(np.trace(diss), rel=1e-6)


class TestChoiAndSpectrum:
    def test_identity_channel_choi(self):
        basis = pauli_basis(1)
        choi = choi_matrix(np.eye(4), basis)
        evals = np.linalg.eigvalsh(choi)
        np.testing.assert_allclose(sorted(evals), [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_amplitude_damping_is_cp(self):
        basis = pauli_basis(1)
        kraus = amplitude_damping_kraus(0.4)
        ptm = ptm_of_map(lambda rho: apply_kraus(kraus, rho), basis)
        assert np.linalg.eigvalsh(choi_matrix(ptm, basis)).min() > -1e-10

    def test_transpose_map_is_not_cp(self):
        basis = pauli_basis(1)
        ptm = ptm_of_map(lambda rho: rho.T, basis)
        assert np.linalg.eigvalsh(choi_matrix(ptm, basis)).min() < -0.4

    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_choi_matches_kronecker_sum(self, num_qubits):
        basis = pauli_basis(num_qubits)
        ptm = np.random.default_rng(37).normal(size=(basis.size, basis.size))
        expected = sum(
            ptm[n, m] * np.kron(p_n, p_m.T)
            for n, p_n in enumerate(basis.elements)
            for m, p_m in enumerate(basis.elements)
        ) / basis.size
        np.testing.assert_allclose(choi_matrix(ptm, basis), expected, rtol=0, atol=1e-12)
