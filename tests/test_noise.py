import math

import numpy as np
import pytest

import ctxdep.gates
import ctxdep.noise
from ctxdep import (
    GATE_IDLE,
    GATE_X_MINUS_HALF,
    GATE_X_PI,
    GATE_Y_MINUS_HALF,
    IDEAL_GATE_SET,
    GateSpec,
    UnknownGate,
    build_model,
    choi_matrix,
    dissipator_generator,
    distort_spam,
    gate_unitary,
    initial_state,
    ising_generator,
    log_abs_det,
    matexp,
    measurement_effect,
    noisy_gate,
    pauli_basis,
    ptm_of_map,
    vectorize_state,
)
from ctxdep.noise import rotation_generator

from .conftest import (
    GAMMA_SUM,
    T_GATE,
    integrate_master_equation,
    make_params,
    model_jump_operators,
    random_density_matrix,
)

BASIS2 = pauli_basis(2)
BASIS1 = pauli_basis(1)


class TestNoiseParams:
    def test_phi_accessor(self):
        params = make_params(phi=0.002)
        assert params.phi == pytest.approx(0.002)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"gamma1": -1.0},
            {"p_ground": 1.2},
            {"eta": 0.0},
            {"eta": 1.3},
            {"t_gate": 0.0},
            {"coupling": float("inf")},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            make_params(**overrides)


class TestGateSpec:
    def test_labels(self):
        assert GATE_IDLE.label == "I"
        assert GATE_X_PI.label == "X_pi"
        assert GATE_Y_MINUS_HALF.label == "Y_-pi/2"
        assert GateSpec("X", math.pi / 2, duration=3).label == "X_pi/2@3"

    def test_angle_labels_match_closest_fraction(self):
        # the label names the closest fraction of pi with a denominator up to
        # 16 when it lies within 1e-12 of the angle, else gives radians
        from fractions import Fraction

        def by_fraction(angle):
            frac = Fraction(angle / math.pi).limit_denominator(16)
            if abs(float(frac) * math.pi - angle) < 1e-12 and frac != 0:
                num, den = frac.numerator, frac.denominator
                s = ("-" if num < 0 else "") + ("pi" if abs(num) == 1 else f"{abs(num)}pi")
                return s if den == 1 else f"{s}/{den}"
            return f"{angle:.6g}rad"

        grid = [k * math.pi / d for d in range(1, 40) for k in range(-3 * d, 3 * d + 1)]
        edges = [0.0, 5e-13, math.pi + 5e-13, math.pi + 2e-12, 1e20 * math.pi, 1e300, -1e308]
        spread = np.random.default_rng(7).uniform(-20.0, 20.0, 500).tolist()
        for angle in grid + edges + spread:
            assert ctxdep.gates._angle_label(angle) == by_fraction(angle), angle

    def test_validation(self):
        with pytest.raises(ValueError):
            GateSpec("Z", 1.0)
        with pytest.raises(ValueError):
            GateSpec("X", float("nan"))
        with pytest.raises(ValueError):
            GateSpec("X", 1.0, duration=0)

    def test_ideal_unitaries(self):
        np.testing.assert_allclose(gate_unitary(GATE_IDLE), np.eye(2))
        # X_pi is a bit flip up to global phase
        u = gate_unitary(GATE_X_PI)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(np.abs(u), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


class TestIsingGenerator:
    def test_zero_coupling(self):
        np.testing.assert_allclose(ising_generator(0.0, BASIS2), np.zeros((16, 16)))

    def test_antisymmetry(self):
        gen = ising_generator(3.0e5, BASIS2)
        np.testing.assert_allclose(gen, -gen.T, atol=1e-9)
        np.testing.assert_allclose(gen[0], np.zeros(16), atol=1e-12)

    def test_conditional_precession_oracle(self):
        # |+> on A precesses at frequency J when B sits in |0>; compare the
        # generator exponential against direct unitary conjugation
        j_rate = 2.0e5
        t = 3.7e-6
        gen = ising_generator(j_rate, BASIS2)
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        rho0 = np.kron(np.outer(plus, plus.conj()), np.diag([1.0, 0.0])).astype(complex)
        scipy_linalg = pytest.importorskip("scipy.linalg")
        h = (j_rate / 2.0) * np.kron(
            np.diag([1.0, -1.0]), np.diag([1.0, -1.0])
        ).astype(complex)
        u = scipy_linalg.expm(-1j * t * h)
        expected = vectorize_state(u @ rho0 @ u.conj().T, BASIS2)
        got = matexp(t * gen) @ vectorize_state(rho0, BASIS2)
        np.testing.assert_allclose(got, expected, atol=1e-10)
        # coherence of A rotates x -> cos(J t)
        x_index = 4  # XI in lexicographic order
        assert got[x_index] * 2.0 == pytest.approx(np.cos(j_rate * t), abs=1e-10)


class TestNoisyGate:
    def test_ideal_idle_is_identity(self):
        params = make_params(gamma1=0.0, gamma3=0.0, gamma_phi=0.0, coupling=0.0)
        np.testing.assert_allclose(noisy_gate(GATE_IDLE, params, BASIS2), np.eye(16), atol=1e-12)

    def test_determinant_from_generator_trace(self):
        params = make_params(phi=0.0)
        gate = noisy_gate(GATE_IDLE, params, BASIS2)
        diss = dissipator_generator(
            params.gamma1, params.gamma3, params.gamma_phi, 2, BASIS2
        )
        # det(exp(M)) = exp(tr M); only the dissipator has nonzero trace
        assert log_abs_det(gate) == pytest.approx(
            params.t_gate * np.trace(diss), rel=1e-10
        )
        assert np.trace(diss) == pytest.approx(-16.0 * GAMMA_SUM, rel=1e-12)

    def test_ideal_x_pi_factorizes(self):
        params = make_params(gamma1=0.0, gamma3=0.0, gamma_phi=0.0, coupling=0.0)
        gate = noisy_gate(GATE_X_PI, params, BASIS2)
        from ctxdep.ptm import PAULI_X

        x_ptm = ptm_of_map(lambda r: PAULI_X @ r @ PAULI_X, BASIS1)
        np.testing.assert_allclose(gate, np.kron(x_ptm, np.eye(4)), atol=1e-10)

    def test_ideal_limit_whole_gate_set(self):
        params = make_params(gamma1=0.0, gamma3=0.0, gamma_phi=0.0, coupling=0.0)
        for spec in IDEAL_GATE_SET:
            u = gate_unitary(spec)
            ideal = ptm_of_map(lambda r: u @ r @ u.conj().T, BASIS1)
            np.testing.assert_allclose(
                noisy_gate(spec, params, BASIS2), np.kron(ideal, np.eye(4)), atol=1e-10
            )

    def test_duration_multiplier_scales_decoherence(self):
        params = make_params(phi=0.0)
        double = noisy_gate(GateSpec("I", duration=2), params, BASIS2)
        single = noisy_gate(GATE_IDLE, params, BASIS2)
        np.testing.assert_allclose(double, single @ single, atol=1e-12)

    def test_trace_preservation(self):
        params = make_params(phi=0.005)
        for gate in IDEAL_GATE_SET:
            ptm = noisy_gate(gate, params, BASIS2)
            expected = np.zeros(16)
            expected[0] = 1.0
            np.testing.assert_allclose(ptm[0], expected, atol=1e-12)

    def test_factorizes_without_coupling(self):
        params = make_params(phi=0.0)
        diss1 = dissipator_generator(
            params.gamma1, params.gamma3, params.gamma_phi, 1, BASIS1
        )
        spectator = matexp(params.t_gate * diss1)
        for gate in IDEAL_GATE_SET:
            joint = noisy_gate(gate, params, BASIS2)
            rot = rotation_generator(gate, BASIS2)[np.ix_(range(0, 16, 4), range(0, 16, 4))]
            target = matexp(rot + params.t_gate * diss1)
            np.testing.assert_allclose(joint, np.kron(target, spectator), atol=1e-10)

    def test_complete_positivity_without_coupling(self):
        params = make_params(phi=0.0)
        for gate in IDEAL_GATE_SET:
            choi = choi_matrix(noisy_gate(gate, params, BASIS2), BASIS2)
            assert np.linalg.eigvalsh(choi).min() > -1e-10

    def test_determinant_independent_of_gate_label(self):
        params = make_params(phi=0.003)
        dets = [log_abs_det(noisy_gate(g, params, BASIS2)) for g in IDEAL_GATE_SET]
        assert max(dets) - min(dets) < 1e-9

    def test_rejects_non_gate(self):
        params = make_params()
        with pytest.raises(UnknownGate):
            noisy_gate("X_pi", params, BASIS2)

    def test_oracle_evolution(self):
        # exp-of-generator evolution vs direct master-equation integration
        rng = np.random.default_rng(31)
        params = make_params(phi=0.01)
        gate = GateSpec("Y", -np.pi / 2)
        ptm = noisy_gate(gate, params, BASIS2)
        jumps = [(r * params.t_gate, op) for r, op in model_jump_operators(params)]
        h = (gate.angle / 2.0) * np.kron(
            np.array([[0, -1j], [1j, 0]]), np.eye(2)
        ) + (params.coupling * params.t_gate / 2.0) * np.kron(
            np.diag([1.0, -1.0]), np.diag([1.0, -1.0])
        )
        rho = random_density_matrix(rng, 4)
        evolved = integrate_master_equation(rho, h, jumps)
        np.testing.assert_allclose(
            ptm @ vectorize_state(rho, BASIS2),
            vectorize_state(evolved, BASIS2),
            atol=1e-9,
        )


class TestInitialStateAndMeasurement:
    def test_pure_ground_state(self):
        params = make_params(p_ground=1.0)
        rho00 = np.zeros((4, 4), dtype=complex)
        rho00[0, 0] = 1.0
        np.testing.assert_allclose(
            initial_state(params, BASIS2), vectorize_state(rho00, BASIS2)
        )

    def test_trace_coordinate(self):
        state = initial_state(make_params(), BASIS2)
        assert state[0] == pytest.approx(0.5)  # Tr(rho)/sqrt(4)

    def test_stationary_under_decoherence(self):
        params = make_params()
        # p = gamma1 / (gamma1 + gamma3) by construction of the fixture
        assert params.p_ground == pytest.approx(
            params.gamma1 / (params.gamma1 + params.gamma3)
        )
        diss = dissipator_generator(
            params.gamma1, params.gamma3, params.gamma_phi, 2, BASIS2
        )
        np.testing.assert_allclose(
            diss @ initial_state(params, BASIS2), np.zeros(16), atol=1e-10 * params.gamma1
        )

    def test_effect_scales_with_eta(self):
        full = measurement_effect(make_params(eta=1.0), BASIS2)
        half = measurement_effect(make_params(eta=0.5), BASIS2)
        np.testing.assert_allclose(half, 0.5 * full)


class TestBuildModel:
    def test_ideal_limit_preparations(self):
        params = make_params(
            gamma1=0.0, gamma3=0.0, gamma_phi=0.0, coupling=0.0, p_ground=1.0, eta=1.0
        )
        model = build_model(params)
        ket0 = np.array([1.0, 0.0], dtype=complex)
        rho_b = np.outer(ket0, ket0.conj())
        for i, gate in enumerate(IDEAL_GATE_SET):
            u = gate_unitary(gate)
            psi = u @ ket0
            expected = vectorize_state(
                np.kron(np.outer(psi, psi.conj()), rho_b), BASIS2
            )
            np.testing.assert_allclose(model.spam_in[i], expected, atol=1e-10)

    def test_probabilities_physical(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            g1 = rng.uniform(0.0, 5e4)
            params = make_params(
                gamma1=g1,
                gamma3=rng.uniform(0.0, 5e3),
                gamma_phi=rng.uniform(0.0, 2e4),
                coupling=rng.uniform(-2e6, 2e6),
                p_ground=rng.uniform(0.0, 1.0),
                eta=rng.uniform(0.05, 1.0),
            )
            model = build_model(params)
            probs = model.spam_out @ model.spam_in.T
            assert probs.min() > -1e-12
            assert probs.max() < 1.0 + 1e-12

    def test_eta_scales_every_probability(self):
        base = build_model(make_params(eta=1.0))
        halved = build_model(make_params(eta=0.5))
        np.testing.assert_allclose(
            halved.spam_out @ halved.spam_in.T,
            0.5 * (base.spam_out @ base.spam_in.T),
            atol=1e-14,
        )

    def test_gate_cache_reuses_matrices(self, baseline_model):
        first = baseline_model.gate_ptm(GATE_X_MINUS_HALF)
        assert baseline_model.gate_ptm(GATE_X_MINUS_HALF) is first

    def test_generators_built_once_per_model(self, monkeypatch):
        # the dissipator depends on the rates only: built once per rate set, so
        # models at two phi values with equal rates share one read-only copy
        calls = []

        def counting(*args):
            calls.append(args)
            return dissipator_generator(*args)

        monkeypatch.setattr(ctxdep.noise, "dissipator_generator", counting)
        ctxdep.noise._dissipator.cache_clear()
        params = make_params(phi=0.005)
        model = build_model(params)
        dissipator = model.generators[1]
        assert build_model(make_params(phi=0.03)).generators[1] is dissipator
        assert len(calls) == 1
        assert np.array_equal(dissipator, dissipator_generator(*calls[0]))
        with pytest.raises(ValueError, match="read-only"):
            dissipator[0, 0] = 0.0
        # other rates build another one
        assert build_model(make_params(phi=0.005, gamma1=1e4)).generators[1] is not dissipator
        assert len(calls) == 2
        # a gate outside the in/out set reuses the model's generators too,
        # and matches the standalone construction bit for bit
        gate = GateSpec("X", 0.7, 3)
        assert np.array_equal(model.gate_ptm(gate), noisy_gate(gate, params, model.basis))
        assert len(calls) == 2

    def test_fixed_parts_are_shared_and_read_only(self):
        # the basis, its change-of-basis matrix and the ideal rotation generators
        # depend on neither phi nor the rates: every model shares one copy
        first = build_model(make_params(phi=0.0))
        second = build_model(make_params(phi=0.005, gamma1=1e4))
        assert first.basis is second.basis is pauli_basis(2)
        generator = ctxdep.noise._ideal_generator(GATE_X_PI, first.basis)
        assert ctxdep.noise._ideal_generator(GATE_X_PI, second.basis) is generator
        assert np.array_equal(generator, rotation_generator(GATE_X_PI, BASIS2))
        for array in (*first.basis.elements, first.basis.vec_columns, generator):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0


class TestDistortSpam:
    def test_identity_distortion_is_noop(self, baseline_model):
        same = distort_spam(baseline_model, np.eye(4), np.eye(4))
        np.testing.assert_allclose(same.spam_in, baseline_model.spam_in)
        np.testing.assert_allclose(same.spam_out, baseline_model.spam_out)

    def test_scaling_distortion(self, baseline_model):
        scaled = distort_spam(baseline_model, 2.0 * np.eye(4), np.eye(4))
        np.testing.assert_allclose(scaled.spam_in, 2.0 * baseline_model.spam_in)
