"""End-to-end acceptance suite.

Each test exercises one headline requirement at its stated tolerance and
prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from ctxdep import (
    GATE_IDLE,
    GATE_X_PI,
    GATE_Y_PI,
    Sequence,
    Verdict,
    bootstrap_ci,
    build_model,
    cp_witness,
    cyclic_family,
    cyclic_fidelity_test,
    det_permutation_test,
    distort_spam,
    log_abs_det,
    pauli_basis,
    permutation_family,
    prob_table,
    ptm_of_map,
    repetition_family,
    repetition_test,
    sample_table,
    sequence_ptm,
    unitarity_tilde,
    unitarity_u,
    vectorize_state,
)
from ctxdep.experiment import table_from_ptm
from ctxdep.ptm import PAULI_I, PAULI_Y, PAULI_Z

from .conftest import (
    GAMMA_SUM,
    T_GATE,
    amplitude_damping_kraus,
    apply_kraus,
    integrate_master_equation,
    make_params,
    model_jump_operators,
    random_density_matrix,
    random_kraus_channel,
    random_spam_distortion,
)

SEED = 12345
BASIS1 = pauli_basis(1)
BASIS2 = pauli_basis(2)


def check(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def fig2a_tables(phi):
    model = build_model(make_params(phi=phi))
    family = permutation_family(GATE_IDLE, GATE_X_PI, 250)
    return [prob_table(s, model) for s in family.members]


@pytest.fixture(scope="module")
def fig2a_phi0_report():
    return det_permutation_test(fig2a_tables(0.0))


@pytest.fixture(scope="module")
def phi0_model():
    return build_model(make_params(phi=0.0))


def test_criterion_1_fig2a_null(fig2a_phi0_report):
    start = time.perf_counter()
    tables = fig2a_tables(0.0)
    report = det_permutation_test(tables)
    elapsed = time.perf_counter() - start
    spread = report.summary["spread"]
    ok = spread < 1e-9 and elapsed < 60.0 and report.verdict is Verdict.CONTEXT_INDEPENDENT
    check(1, ok, f"fig2a null spread={spread:.3e} (<1e-9), runtime={elapsed:.1f}s (<60s)")


def test_criterion_2_fig2a_detection(fig2a_phi0_report):
    spread_null = fig2a_phi0_report.summary["spread"]
    tables = fig2a_tables(1e-3)
    spread_coupled = det_permutation_test(tables).summary["spread"]
    ratio = spread_coupled / max(spread_null, 1e-300)
    sampled = [sample_table(t, shots=10**6, seed=SEED) for t in tables]
    report = det_permutation_test(sampled, resamples=500, seed=SEED)
    ok = ratio >= 1e3 and report.verdict is Verdict.CONTEXT_DEPENDENT
    check(
        2,
        ok,
        f"fig2a phi=1e-3 spread={spread_coupled:.3e} ({ratio:.1e}x null), "
        f"N=1e6 verdict={report.verdict.value}",
    )


def test_criterion_3_fig2b_cyclic():
    base = Sequence(gates=(GATE_X_PI,) + (GATE_IDLE,) * 500, label="x_i500")
    family = cyclic_family(base)
    spreads = {}
    for phi in (0.0, 1e-3, 5e-3):
        model = build_model(make_params(phi=phi))
        tables = [prob_table(s, model) for s in family.members]
        p0 = prob_table(Sequence(gates=(), label="ref"), model)
        report = cyclic_fidelity_test(tables, p0, r=2)
        spreads[phi] = report.summary["spread"]
    ok = spreads[0.0] < 1e-9 and spreads[1e-3] > 1e-6 and spreads[5e-3] > 1e-6
    check(
        3,
        ok,
        "fig2b F2 spreads: "
        + ", ".join(f"phi={p:g}: {s:.3e}" for p, s in spreads.items()),
    )


def test_criterion_4_fig3b_slopes(phi0_model):
    m_values = tuple(range(0, 251, 25))
    results = {}
    for name, block in (("X_pi", [GATE_X_PI]), ("X_piY_pi", [GATE_X_PI, GATE_Y_PI])):
        family = repetition_family(block, m_values)
        tables = [prob_table(s, phi0_model) for s in family.members]
        report = repetition_test(tables, m_values)
        results[name] = report
    slope_single = results["X_pi"].summary["slope"]
    slope_double = results["X_piY_pi"].summary["slope"]
    expected = -2.0 * T_GATE * GAMMA_SUM
    err_single = abs(slope_single / expected - 1.0)
    err_double = abs(slope_double / (2.0 * expected) - 1.0)
    max_resid = max(r.summary["residual_norm"] for r in results.values())
    ok = err_single < 1e-3 and err_double < 1e-3 and max_resid < 1e-8
    check(
        4,
        ok,
        f"fig3b slopes: X_pi rel err={err_single:.2e}, X_piY_pi rel err={err_double:.2e} "
        f"(<1e-3), max residual norm={max_resid:.2e} (<1e-8)",
    )


def test_criterion_5_fig3a_cp_witness():
    m_values = tuple(range(0, 501, 50))
    family = repetition_family([GATE_IDLE], m_values)
    flagged = {}
    for phi in (0.0, 0.005, 0.01, 0.02, 0.05):
        model = build_model(make_params(phi=phi))
        l_values = [
            log_abs_det(prob_table(s, model).entries) for s in family.members
        ]
        report = cp_witness(m_values, l_values)
        flagged[phi] = report.summary["n_increases"]
    coupled_hits = [p for p, n in flagged.items() if p > 0 and n > 0]
    ok = flagged[0.0] == 0 and any(p <= 0.02 for p in coupled_hits)
    check(
        5,
        ok,
        f"fig3a rises per phi: {flagged} (phi=0 clean, non-monotone at order 1e-2)",
    )


def test_criterion_6_spam_robustness(phi0_model):
    rng = np.random.default_rng(SEED)
    perm_family = permutation_family(GATE_IDLE, GATE_X_PI, 250)
    cyc_family = cyclic_family(
        Sequence(gates=(GATE_X_PI,) + (GATE_IDLE,) * 500, label="x_i500")
    )
    perm_ptms = [sequence_ptm(s, phi0_model) for s in perm_family.members]
    cyc_ptms = [sequence_ptm(s, phi0_model) for s in cyc_family.members]
    ref = Sequence(gates=(), label="ref")

    def evaluate(model):
        perm_tables = [
            table_from_ptm(p, model, s.label)
            for p, s in zip(perm_ptms, perm_family.members)
        ]
        cyc_tables = [
            table_from_ptm(p, model, s.label)
            for p, s in zip(cyc_ptms, cyc_family.members)
        ]
        perm_report = det_permutation_test(perm_tables)
        cyc_report = cyclic_fidelity_test(cyc_tables, prob_table(ref, model), r=2)
        fids = np.stack(
            [cyc_report.details["fidelity_by_order"][o] for o in "1234"]
        )
        return perm_report, cyc_report, fids

    base_perm, base_cyc, base_fids = evaluate(phi0_model)
    max_spread_shift = 0.0
    max_fid_shift = 0.0
    verdicts_stable = True
    for cond in (10.0, 316.0, 1000.0):
        distorted = distort_spam(
            phi0_model,
            random_spam_distortion(rng, cond),
            random_spam_distortion(rng, cond),
        )
        perm_report, cyc_report, fids = evaluate(distorted)
        max_spread_shift = max(
            max_spread_shift,
            abs(perm_report.summary["spread"] - base_perm.summary["spread"]),
        )
        max_fid_shift = max(max_fid_shift, np.abs(fids - base_fids).max())
        verdicts_stable = verdicts_stable and (
            perm_report.verdict is base_perm.verdict
            and cyc_report.verdict is base_cyc.verdict
        )
    ok = verdicts_stable and max_spread_shift < 1e-9 and max_fid_shift < 1e-9
    check(
        6,
        ok,
        f"SPAM distortions (cond<=1e3): spread shift={max_spread_shift:.2e}, "
        f"fidelity shift={max_fid_shift:.2e} (<1e-9), verdicts stable={verdicts_stable}",
    )


def test_criterion_7_unitarity_suite():
    rng = np.random.default_rng(SEED)
    ptms = []
    worst_margin = np.inf
    for _ in range(1000):
        kraus = random_kraus_channel(rng, 2, n_kraus=int(rng.integers(1, 5)))
        ptm = ptm_of_map(lambda rho: apply_kraus(kraus, rho), BASIS1)
        ptms.append(ptm)
        worst_margin = min(worst_margin, unitarity_u(ptm) - unitarity_tilde(ptm))
    bound_ok = worst_margin >= -1e-9

    tilde_ok = True
    for g1, g2 in zip(ptms[::2], ptms[1::2]):
        composed = unitarity_tilde(g2 @ g1)
        if composed > min(unitarity_tilde(g1), unitarity_tilde(g2)) + 1e-9:
            tilde_ok = False
            break

    # constructed pair: strong damping then partial undoing
    violation = None
    for g in np.linspace(0.2, 0.8, 7):
        damp = ptm_of_map(lambda r: apply_kraus(amplitude_damping_kraus(g), r), BASIS1)
        for h in np.linspace(0.05, g - 0.05, 6):
            undo = np.linalg.inv(
                ptm_of_map(lambda r: apply_kraus(amplitude_damping_kraus(h), r), BASIS1)
            )
            if unitarity_u(undo @ damp) > unitarity_u(damp) + 1e-6:
                violation = (g, h, unitarity_u(undo @ damp) - unitarity_u(damp))
                break
        if violation:
            break

    ok = bound_ok and tilde_ok and violation is not None
    check(
        7,
        ok,
        f"u>=u_tilde margin={worst_margin:.2e} on 1000 channels, "
        f"u_tilde composition-monotone={tilde_ok}, "
        f"u monotonicity violated by damping pair={violation}",
    )


def test_criterion_8_bootstrap_coverage(phi0_model):
    member = permutation_family(GATE_IDLE, GATE_X_PI, 250).members[0]
    exact = prob_table(member, phi0_model)
    exact_l = log_abs_det(exact.entries)
    statistic = lambda t: log_abs_det(t.entries)
    covered = 0
    reps = 200
    for rep in range(reps):
        sampled = sample_table(exact, shots=10**5, seed=5000 + rep)
        lo, hi = bootstrap_ci(statistic, sampled, resamples=500, seed=6000 + rep)
        covered += lo <= exact_l <= hi
    rate = covered / reps
    ok = 0.93 <= rate <= 0.97
    check(8, ok, f"bootstrap 95% CI coverage at N=1e5: {covered}/{reps} = {rate:.1%}")


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    worst = 0.0

    # transfer matrices of black-box channels vs direct Kraus application
    for _ in range(100):
        kraus = random_kraus_channel(rng, 2, n_kraus=int(rng.integers(1, 5)))
        ptm = ptm_of_map(lambda rho: apply_kraus(kraus, rho), BASIS1)
        rho = random_density_matrix(rng, 2)
        diff = ptm @ vectorize_state(rho, BASIS1) - vectorize_state(
            apply_kraus(kraus, rho), BASIS1
        )
        worst = max(worst, np.abs(diff).max())
    ptm_ok = worst < 1e-8

    # dissipator exponential vs direct master-equation integration
    from ctxdep import dissipator_generator, matexp

    worst_diss = 0.0
    for _ in range(100):
        params = make_params(
            gamma1=rng.uniform(0.0, 5e4),
            gamma3=rng.uniform(0.0, 5e3),
            gamma_phi=rng.uniform(0.0, 3e4),
        )
        duration = rng.uniform(1e-7, 3e-5)
        gen = dissipator_generator(params.gamma1, params.gamma3, params.gamma_phi, 1, BASIS1)
        jumps = model_jump_operators(params, num_qubits=1)
        rho = random_density_matrix(rng, 2)
        evolved = integrate_master_equation(rho, np.zeros((2, 2)), jumps, duration)
        diff = matexp(duration * gen) @ vectorize_state(rho, BASIS1) - vectorize_state(
            evolved, BASIS1
        )
        worst_diss = max(worst_diss, np.abs(diff).max())
    diss_ok = worst_diss < 1e-8

    # full noisy gate vs integration of the complete master equation
    from ctxdep import GateSpec, noisy_gate

    worst_gate = 0.0
    axes = ("I", "X", "Y")
    for _ in range(100):
        axis = axes[rng.integers(0, 3)]
        angle = rng.uniform(-np.pi, np.pi) if axis != "I" else 0.0
        gate = GateSpec(axis, angle)
        params = make_params(
            gamma1=rng.uniform(0.0, 5e4),
            gamma3=rng.uniform(0.0, 5e3),
            gamma_phi=rng.uniform(0.0, 3e4),
            coupling=rng.uniform(-2e6, 2e6),
        )
        ptm = noisy_gate(gate, params, BASIS2)
        sigma = {"I": np.zeros((2, 2)), "X": np.array([[0, 1], [1, 0]]), "Y": PAULI_Y}[axis]
        h = (angle / 2.0) * np.kron(sigma, PAULI_I) + (
            params.coupling * params.t_gate / 2.0
        ) * np.kron(PAULI_Z, PAULI_Z)
        jumps = [(r * params.t_gate, op) for r, op in model_jump_operators(params)]
        rho = random_density_matrix(rng, 4)
        evolved = integrate_master_equation(rho, h, jumps)
        diff = ptm @ vectorize_state(rho, BASIS2) - vectorize_state(evolved, BASIS2)
        worst_gate = max(worst_gate, np.abs(diff).max())
    gate_ok = worst_gate < 1e-8

    ok = ptm_ok and diss_ok and gate_ok
    check(
        9,
        ok,
        f"oracle deviations: ptm_of_map={worst:.2e}, dissipator={worst_diss:.2e}, "
        f"noisy_gate={worst_gate:.2e} (<1e-8, 100 draws each)",
    )
