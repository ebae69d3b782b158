import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ctxdep import (
    GATE_IDLE,
    GATE_X_PI,
    GATE_Y_PI,
    IDEAL_GATE_SET,
    NotTracePreserving,
    ProbabilityTable,
    SingularReference,
    Verdict,
    build_model,
    cp_witness,
    cyclic_family,
    cyclic_fidelity_test,
    det_permutation_test,
    distort_spam,
    family_tables,
    gate_unitary,
    log_abs_det,
    pauli_basis,
    permutation_family,
    prob_table,
    ptm_of_map,
    repetition_family,
    repetition_test,
    sample_table,
    trace_powers,
    unitarity_tilde,
    unitarity_u,
    vectorize_state,
)

from ctxdep import analysis
from ctxdep.analysis import TestReport as Report  # aliased: pytest collects Test*
from ctxdep.analysis import _fidelities_observed
from ctxdep.config import SCENARIOS, parse_config
from ctxdep.experiment import resample_cells
from ctxdep.ptm import log_abs_det_many

from .conftest import (
    GAMMA_SUM,
    T_GATE,
    amplitude_damping_kraus,
    apply_kraus,
    make_params,
    random_kraus_channel,
    random_spam_distortion,
    seq,
)

BASIS1 = pauli_basis(1)


def ideal_model():
    return build_model(
        make_params(gamma1=0.0, gamma3=0.0, gamma_phi=0.0, coupling=0.0, p_ground=1.0, eta=1.0)
    )


def kraus_ptm(kraus):
    return ptm_of_map(lambda rho: apply_kraus(kraus, rho), BASIS1)


# 0/1 tables as single-shot sampling gives them: every bootstrap resample
# reproduces them exactly.  log|det| is 0 for EYE and CYCLE and log 2 for TWO;
# Tr(M^2) / 4 is 1 for EYE and 1/4 for the 3-cycle CYCLE.
EYE = np.eye(4)
TWO = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 0, 1]], dtype=float)
CYCLE = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=float)


def one_shot(entries, label):
    return ProbabilityTable(np.array(entries, dtype=float), 1, label)


def exact_fidelities(entries, p0_entries, r_max):
    """``Tr((P P0^-1)^r) / n`` for ``r = 1..r_max`` in exact rational arithmetic.

    Gauss-Jordan elimination of ``[P0^T | P^T]`` leaves ``(P P0^-1)^T``,
    whose power traces are those of ``P P0^-1``.
    """
    n = len(p0_entries)
    rows = [[Fraction(float(v)) for v in (*a, *b)] for a, b in zip(p0_entries.T, entries.T)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    m = [row[n:] for row in rows]
    power, traces = m, []
    for _ in range(r_max):
        traces.append(float(sum(power[i][i] for i in range(n)) / n))
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in power]
    return traces


def ideal_spam_matrices():
    """Nominal effect (B) and preparation (C) coordinates of the ideal single-qubit set.

    Preparations are the ideal gates applied to |0>, effects the ideal gate
    adjoints applied to |1><1|; ``b[:, k]`` and ``c[:, i]`` are their Pauli
    coordinates, so a table with ideal SPAM is ``P = B^T S C``.
    """
    ket0 = np.array([1.0, 0.0], dtype=complex)
    proj1 = np.diag([0.0, 1.0]).astype(complex)
    b, c = [], []
    for gate in IDEAL_GATE_SET:
        u = gate_unitary(gate)
        psi = u @ ket0
        c.append(vectorize_state(np.outer(psi, psi.conj()), BASIS1))
        b.append(vectorize_state(u.conj().T @ proj1 @ u, BASIS1))
    return np.column_stack(b), np.column_stack(c)


def raw_transfer_matrix(table):
    """Uncorrected estimate ``(B^-1)^T P C^-1`` of a table, through linear solves."""
    b, c = ideal_spam_matrices()
    x = np.linalg.solve(b.T, table.entries)
    return np.linalg.solve(c.T, x.T).T


class TestIdealCalibration:
    def test_frozen_matrices(self):
        b, c = ideal_spam_matrices()
        root2 = np.sqrt(2.0)
        expected_c = (
            np.array(
                [
                    [1.0, 1.0, 1.0, 1.0],
                    [0.0, 0.0, -1.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [1.0, -1.0, 0.0, 0.0],
                ]
            )
            / root2
        )
        expected_b = (
            np.array(
                [
                    [1.0, 1.0, 1.0, 1.0],
                    [0.0, 0.0, -1.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [-1.0, 1.0, 0.0, 0.0],
                ]
            )
            / root2
        )
        np.testing.assert_allclose(c, expected_c, atol=1e-12)
        np.testing.assert_allclose(b, expected_b, atol=1e-12)

    def test_log_det_constant(self):
        # the shift into raw-estimate units is this set's log|det B| + log|det C|
        # (-log 4 up to rounding), bit for bit under the SkylakeX, Haswell and Prescott kernels
        b, c = ideal_spam_matrices()
        assert log_abs_det(b) + log_abs_det(c) == analysis.IDEAL_SPAM_LOG_DET


class TestRawEstimate:
    def test_ideal_x_pi(self):
        est = raw_transfer_matrix(prob_table(seq("x", GATE_X_PI), ideal_model()))
        np.testing.assert_allclose(
            est, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-9
        )

    def test_ideal_empty_sequence(self):
        est = raw_transfer_matrix(prob_table(seq("ref"), ideal_model()))
        np.testing.assert_allclose(est, np.eye(4), atol=1e-9)


class TestDetPermutationTest:
    def test_exact_null_case(self, baseline_model):
        tables = family_tables(permutation_family(GATE_IDLE, GATE_X_PI, 10), baseline_model)
        report = det_permutation_test(tables)
        assert report.summary["spread"] < 1e-9
        assert report.verdict is Verdict.CONTEXT_INDEPENDENT
        # raw-unit statistics differ from data-domain ones by a constant
        shifted = report.details["raw_statistics"]
        np.testing.assert_allclose(
            shifted - report.statistics, (shifted - report.statistics)[0] * np.ones(11)
        )

    def test_exact_detection(self):
        model = build_model(make_params(phi=1e-3))
        tables = family_tables(permutation_family(GATE_IDLE, GATE_X_PI, 30), model)
        report = det_permutation_test(tables)
        assert report.summary["spread"] > 1e-6
        assert report.verdict is Verdict.CONTEXT_DEPENDENT

    def test_identical_members_have_zero_spread(self, baseline_model):
        table = prob_table(seq("same", GATE_X_PI, GATE_IDLE), baseline_model)
        copies = [
            ProbabilityTable(table.entries.copy(), None, f"c{i}") for i in range(5)
        ]
        report = det_permutation_test(copies)
        assert report.summary["spread"] == 0.0

    def test_finite_shots_null_not_flagged(self, baseline_model):
        family = permutation_family(GATE_IDLE, GATE_X_PI, 12)
        tables = family_tables(family, baseline_model, shots=10**5, seed=21)
        report = det_permutation_test(tables, resamples=300, seed=21)
        assert report.verdict is Verdict.CONTEXT_INDEPENDENT
        assert report.ci_low is not None
        assert np.all(report.ci_low <= report.statistics)
        assert np.all(report.statistics <= report.ci_high)

    def test_finite_shots_detection(self):
        model = build_model(make_params(phi=0.03))
        family = permutation_family(GATE_IDLE, GATE_X_PI, 25)
        tables = family_tables(family, model, shots=10**5, seed=22)
        report = det_permutation_test(tables, resamples=300, seed=22)
        assert report.verdict is Verdict.CONTEXT_DEPENDENT

    def test_non_finite_null_is_inconclusive(self):
        # at 10 shots some resampled tables are singular, their log-dets are
        # -inf, and the centered bootstrap null turns NaN
        model = build_model(make_params(phi=0.005))
        family = permutation_family(GATE_IDLE, GATE_X_PI, 4)
        tables = family_tables(family, model, shots=10, seed=1)
        with np.errstate(invalid="ignore"):
            report = det_permutation_test(tables, resamples=200, seed=1)
        assert np.isnan(report.threshold)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert "threshold99" in report.details["inconclusive_reason"]
        assert report.details["null"]["method"] == "bootstrap"
        assert report.details["null"]["draws"] == 200
        assert 0 < report.details["null"]["non_finite_frac"] < 1

    def test_singular_draws_give_a_nan_bound_without_a_warning(self, baseline_model):
        # at 2 shots some resamples are singular, so some log-det draws are -inf:
        # the member's lower bound is NaN, and no RuntimeWarning is raised on the way
        sampled = sample_table(prob_table(seq("x", GATE_X_PI), baseline_model), 2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = det_permutation_test([sampled], resamples=100, seed=0)
        assert np.isnan(report.ci_low[0])
        assert np.isfinite(report.ci_high[0])

    @pytest.mark.parametrize("second", [EYE, TWO], ids=["equal", "log2-apart"])
    def test_zero_width_null_is_inconclusive(self, second):
        # the null spread is zero up to roundoff, so no spread, not even
        # log 2, can be told from shot noise
        tables = [one_shot(EYE, "a"), one_shot(second, "b")]
        report = det_permutation_test(tables, resamples=200, seed=4)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.details["inconclusive_reason"].startswith("zero-width bootstrap null")
        assert report.threshold == 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_singular_members_give_no_mean(self):
        tables = [one_shot(np.zeros((4, 4)), "a"), one_shot(np.ones((4, 4)), "b")]
        report = det_permutation_test(tables, resamples=100, seed=2)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert np.isnan(report.summary["mean"]) and np.isnan(report.summary["spread"])
        assert report.details["singular_members"] == ["a", "b"]

    def test_one_finite_member_is_inconclusive(self, baseline_model):
        # the spread of a single finite log-det is 0, whatever the device does
        good = prob_table(seq("ok", GATE_X_PI), baseline_model)
        dead = [ProbabilityTable(np.zeros((4, 4)), None, f"dead{i}") for i in range(2)]
        report = det_permutation_test([good, *dead])
        assert report.summary["spread"] == 0.0
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.details["inconclusive_reason"] == (
            "spread needs 2 or more finite members: 1 of 3 finite"
        )

    def test_one_finite_sampled_member_keeps_its_reason(self, baseline_model):
        good = sample_table(prob_table(seq("ok", GATE_X_PI), baseline_model), 10**4, 3)
        dead = ProbabilityTable(np.zeros((4, 4)), 10**4, "dead")
        with np.errstate(invalid="ignore"):
            report = det_permutation_test([good, dead], resamples=100, seed=3)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.details["inconclusive_reason"] == "non-finite threshold95, threshold99"

    def test_singular_member_flagged(self, baseline_model):
        table = prob_table(seq("ok", GATE_X_PI), baseline_model)
        broken = ProbabilityTable(np.zeros((4, 4)), None, "dead")
        report = det_permutation_test([table, broken])
        assert report.details["singular_members"] == ["dead"]
        assert report.summary["n_singular"] == 1

    def test_ill_conditioned_exact_member_counts_as_singular(self, baseline_model):
        # a 1-norm condition of 1e8 leaves slogdet finite, but an LU log-det is
        # then off by about n cond eps, past the 1e-9 exact floor
        table = prob_table(seq("ok", GATE_X_PI), baseline_model)
        ill = ProbabilityTable(np.diag([0.5, 0.5, 0.5, 0.5e-8]), None, "ill")
        assert np.isfinite(log_abs_det(ill.entries))
        assert np.linalg.cond(ill.entries, 1) == pytest.approx(1e8)
        report = det_permutation_test([table, ill, table])
        assert report.details["singular_members"] == ["ill"]
        assert report.summary["n_singular"] == 1
        assert report.verdict is Verdict.CONTEXT_INDEPENDENT
        # the report says why the member was left out; with none left out it says nothing
        assert report.details["excluded_condition"] == pytest.approx({"ill": 1e8})
        assert "excluded_condition" not in det_permutation_test([table, table]).details

    def test_ill_conditioned_sampled_member_counts_as_singular(self, baseline_model):
        # the same rule for count tables: an exactly singular one can get a finite
        # roundoff log-det from LU, and a large condition says so on every kernel
        entries = prob_table(seq("ok", GATE_X_PI), baseline_model).entries
        table = ProbabilityTable(entries, 10**4, "ok")
        ill = ProbabilityTable(np.diag([0.5, 0.5, 0.5, 0.5e-8]), 10**4, "ill")
        report = det_permutation_test([table, ill, table], resamples=100)
        assert report.details["singular_members"] == ["ill"]
        assert report.details["excluded_condition"] == pytest.approx({"ill": 1e8})
        # the excluded member does not count, so the size stays finite
        assert report.details["noise_amplification"] == pytest.approx(
            TestNoiseAmplification.size(table), rel=1e-12)


def test_condition_from_the_inverse_is_numpys(baseline_model):
    # _log_dets takes kappa_1 from the inverses it also sizes the noise with: it must
    # be np.linalg.cond(., 1) bit for bit, inf for a singular table, on a stack that
    # holds a model's table, an ill-conditioned one and random ones, 62 of them singular
    rng = np.random.default_rng(0)
    entries = np.concatenate([
        [prob_table(seq("x", GATE_X_PI), baseline_model).entries,
         np.diag([0.5, 0.5, 0.5, 0.5e-8])],
        rng.integers(0, 3, size=(200, 4, 4)) / 2])
    regular = np.isfinite(log_abs_det_many(entries))
    assert np.count_nonzero(~regular) == 62
    cond = analysis._cond(entries, analysis._inverses(entries, regular))
    np.testing.assert_array_equal(cond, np.linalg.cond(entries, 1))


class TestCyclicFidelityTest:
    def test_exact_null_case(self, baseline_model):
        base = seq("x_i40", GATE_X_PI, *([GATE_IDLE] * 40))
        tables = family_tables(cyclic_family(base), baseline_model)
        p0 = prob_table(seq("ref"), baseline_model)
        report = cyclic_fidelity_test(tables, p0, r=2)
        assert report.summary["spread"] < 1e-9
        assert report.verdict is Verdict.CONTEXT_INDEPENDENT
        assert "null" not in report.details  # exact reports carry no null diagnostics
        # every order is invariant, not just the requested one
        for order in "1234":
            assert report.details["spread_by_order"][order] < 1e-9

    def test_exact_detection(self):
        model = build_model(make_params(phi=5e-3))
        base = seq("x_i40", GATE_X_PI, *([GATE_IDLE] * 40))
        tables = family_tables(cyclic_family(base), model)
        p0 = prob_table(seq("ref"), model)
        report = cyclic_fidelity_test(tables, p0, r=2)
        assert report.summary["spread"] > 1e-6
        assert report.verdict is Verdict.CONTEXT_DEPENDENT

    def test_first_order_fidelity_of_reference(self, baseline_model):
        p0 = prob_table(seq("ref"), baseline_model)
        report = cyclic_fidelity_test([p0], p0, r=1)
        assert report.statistics[0] == pytest.approx(1.0, abs=1e-12)

    def test_one_member_is_inconclusive(self):
        # one rotation, as a one-gate base sequence has: no spread to judge,
        # even under a coupling the family would detect with more members
        model = build_model(make_params(phi=5e-3))
        table = prob_table(seq("x", GATE_X_PI), model)
        report = cyclic_fidelity_test([table], prob_table(seq("ref"), model), r=2)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.details["inconclusive_reason"] == (
            "spread needs 2 or more finite members: 1 of 1 finite"
        )

    def test_rejects_singular_reference(self, baseline_model):
        table = prob_table(seq("x", GATE_X_PI), baseline_model)
        dead = ProbabilityTable(np.ones((4, 4)), None, "flat")
        with pytest.raises(SingularReference):
            cyclic_fidelity_test([table], dead, r=2)

    def test_sampled_ill_conditioned_reference_is_inconclusive(self, baseline_model):
        table = prob_table(seq("x", GATE_X_PI), baseline_model)
        flat = one_shot(np.ones((4, 4)), "flat")
        report = cyclic_fidelity_test([table, table], flat, r=2, resamples=100)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.details["inconclusive_reason"].startswith(
            "reference table condition number "
        )
        assert np.isnan(report.statistics).all() and np.isnan(report.threshold)
        # no null is drawn, so the member intervals are NaN too
        assert report.details["null"] == {"method": "none", "draws": 0, "non_finite_frac": 0.0}
        assert np.isnan(report.ci_low).all() and np.isnan(report.ci_high).all()

    def test_zero_width_null_is_inconclusive(self):
        # the 1-shot reference's floored cell sd sends it to the bootstrap, whose
        # resamples of 0/1 tables all equal their tables
        tables = [one_shot(EYE, "a"), one_shot(CYCLE, "b")]
        report = cyclic_fidelity_test(tables, one_shot(EYE, "ref"), r=2, resamples=100)
        assert report.summary["spread"] == 0.75
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.details["inconclusive_reason"].startswith("zero-width bootstrap null")

    def test_order_equal_to_the_dimension(self, baseline_model):
        # r = n = 4, the highest order the test accepts
        base = seq("x_i40", GATE_X_PI, *([GATE_IDLE] * 40))
        tables = family_tables(cyclic_family(base), baseline_model)
        p0 = prob_table(seq("ref"), baseline_model)
        report = cyclic_fidelity_test(tables, p0, r=4)
        assert report.summary["order"] == 4
        np.testing.assert_array_equal(report.statistics,
                                      report.details["fidelity_by_order"]["4"])
        assert report.verdict is Verdict.CONTEXT_INDEPENDENT

    def test_rejects_bad_order(self, baseline_model):
        p0 = prob_table(seq("ref"), baseline_model)
        with pytest.raises(ValueError):
            cyclic_fidelity_test([p0], p0, r=5)

    def test_shared_inverse_bootstrap_matches_per_member_solve(self, baseline_model,
                                                               monkeypatch):
        """Bootstrap fidelities from one reference inverse per draw agree with
        one solve per member and draw."""
        # with the bound at 0 every sampled reference takes the bootstrap
        monkeypatch.setattr(analysis, "LINEAR_NULL_LIMIT", 0.0)
        base = seq("x_i20", GATE_X_PI, *([GATE_IDLE] * 20))
        tables = family_tables(cyclic_family(base), baseline_model, shots=10**5, seed=8)
        p0 = sample_table(prob_table(seq("ref"), baseline_model), 10**5, seed=8)
        report = cyclic_fidelity_test(tables, p0, r=2, resamples=150, seed=8)

        p0_draws_t = np.swapaxes(resample_cells(p0, 150, 8), -1, -2)
        boots = np.empty((len(tables), 150))
        for j, t in enumerate(tables):
            # M = P P0^-1  <=>  M^T = solve(P0^T, P^T)
            m = np.linalg.solve(p0_draws_t, np.swapaxes(resample_cells(t, 150, 8), -1, -2))
            boots[j] = np.trace(m @ m, axis1=-2, axis2=-1) / 4
        np.testing.assert_allclose(report.ci_low, np.percentile(boots, 2.5, axis=1), atol=1e-10)
        np.testing.assert_allclose(report.ci_high, np.percentile(boots, 97.5, axis=1), atol=1e-10)
        centered = boots - boots.mean(axis=1, keepdims=True)
        null_spread = centered.max(axis=0) - centered.min(axis=0)
        assert report.threshold == pytest.approx(np.percentile(null_spread, 99.0), abs=1e-10)
        assert report.details["null"] == {"method": "bootstrap", "draws": 150,
                                          "non_finite_frac": 0.0}

    def test_singular_reference_draw_is_inconclusive(self, baseline_model, monkeypatch):
        tables = [prob_table(seq(lbl, GATE_X_PI, *g), baseline_model)
                  for lbl, g in (("x", ()), ("xi", (GATE_IDLE,)))]
        # one-shot draws of 0.5 I: a diagonal cell drawn 0 makes that draw singular
        p0 = ProbabilityTable(np.eye(4) * 0.5, 1, "ref")
        recorded = _capture_null(monkeypatch, "_cyclic_bootstrap")
        report = cyclic_fidelity_test(tables, p0, r=2, resamples=100, seed=3)

        p0_draws = resample_cells(p0, 100, 3)
        singular = ~np.isfinite(log_abs_det_many(p0_draws))
        assert 0 < singular.sum() < 100
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.details["inconclusive_reason"] == "singular reference draws: " + ", ".join(
            str(b) for b in np.flatnonzero(singular)
        )
        assert report.details["null"]["non_finite_frac"] == singular.mean()
        # regular draws keep their values; singular ones give NaN statistics
        (boots,) = [_null_matrix(draws) for draws in recorded]
        assert np.isnan(boots[:, singular]).all()
        for j, t in enumerate(tables):
            m = resample_cells(t, 100, 3)[~singular] @ np.linalg.inv(p0_draws[~singular])
            assert np.array_equal(boots[j, ~singular], trace_powers(m, 2)[:, 1] / 4)

    @pytest.mark.parametrize("shots,method", [(1, "bootstrap"), (4, "bootstrap"), (5, "delta")])
    def test_noisy_reference_takes_the_bootstrap(self, baseline_model, shots, method):
        # 0.75 I: ||P0^-1||_2 ||sd(P0)||_F = (4/3) sqrt(0.75 / N + 12 / (N + 1)^2),
        # with p = 1/(N + 1) in the 12 zero cells, which is 1.089 at 4 shots and
        # 0.927 at 5
        tables = [prob_table(seq(lbl, GATE_X_PI, *g), baseline_model)
                  for lbl, g in (("x", ()), ("xi", (GATE_IDLE,)))]
        p0 = ProbabilityTable(np.eye(4) * 0.75, shots, "ref")
        report = cyclic_fidelity_test(tables, p0, r=2, resamples=100, seed=3)
        assert report.details["null"]["method"] == method

    def test_reference_condition_is_always_reported(self, baseline_model):
        p0 = prob_table(seq("ref"), baseline_model)
        report = cyclic_fidelity_test([p0], p0, r=1)
        # the 1-norm value, which needs no SVD, as the calibration check's
        assert report.details["reference_condition"] == np.linalg.cond(p0.entries, 1)

    def test_svd_free_bounds_decide_as_the_svd(self, monkeypatch):
        # the reference's condition gate (kappa_2 in [kappa_1 / 4, 4 kappa_1]) and
        # the delta-method rule (||P^-1||_2 in [||P^-1||_F / 2, ||P^-1||_F]) must
        # decide as the 2-norm would, and take the SVD only inside the band
        linalg = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
        svd = linalg.svd
        calls = []
        monkeypatch.setattr(linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        margin = analysis.NORM_MARGIN
        inside = []

        def check(low, high, limit, two_norm, value, above):
            calls.clear()
            settled = analysis._two_norm_or_bound(low, high, limit, two_norm)
            assert above(settled, limit) == above(value, limit)
            inside.append(low * (1 - margin) <= limit <= high * (1 + margin))
            assert len(calls) == inside[-1]

        rng = np.random.default_rng(30)
        hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
        wide_one_norm = hadamard @ np.diag([1.0, 1.0, 1.0, 9e5]) @ hadamard
        wide_two_norm = np.diag([1.0, 3e-6, 3e-6, 3e-6])
        wide_two_norm[0, 1:] = 1.0
        tables = [wide_one_norm, wide_two_norm]
        tables += [random_spam_distortion(rng, 10 ** rng.uniform(4.5, 7.5)) for _ in range(200)]
        limit = analysis.CONDITION_LIMIT
        for a in tables:
            cond1, s = np.linalg.cond(a, 1), svd(a, compute_uv=False)
            check(cond1 / 4, 4 * cond1, limit, lambda: np.linalg.cond(a), s[0] / s[-1],
                  lambda v, bound: not v <= bound)
            if a is wide_one_norm:
                assert cond1 > limit >= s[0] / s[-1]
            if a is wide_two_norm:
                assert s[0] / s[-1] > limit >= cond1
        assert any(inside) and not all(inside)

        inside.clear()
        # an orthogonal table has ||P^-1||_F = 2 ||P^-1||_2; one near rank one
        # in its inverse has ||P^-1||_F ~ ||P^-1||_2
        cases = [(hadamard, size) for size in (0.499, 0.51, 0.99, 1.01)]
        cases += [(np.diag([1.0, 1.0, 1.0, 1e-3]), size) for size in (0.9999, 1.0001)]
        cases += [(random_spam_distortion(rng, 10 ** rng.uniform(0, 3)),
                   10 ** rng.uniform(-0.7, 0.7)) for _ in range(200)]
        for p, size in cases:
            inverse = np.linalg.inv(p)
            sd = rng.uniform(size=(4, 4))
            sd *= size / (svd(inverse, compute_uv=False)[0] * np.linalg.norm(sd))
            frobenius = float(analysis._linear_size(inverse, sd))
            check(frobenius / 2, frobenius, 1.0,
                  lambda: np.linalg.norm(inverse, 2) * np.linalg.norm(sd),
                  svd(inverse, compute_uv=False)[0] * np.linalg.norm(sd),
                  lambda v, bound: v >= bound)
        assert any(inside) and not all(inside)

    def test_observed_fidelities_match_exact_arithmetic(self):
        # the refined solve must stay far below the 1e-9 floor even when SPAM
        # errors push the reference table's condition number towards 1e6
        model = build_model(make_params(phi=5e-3))
        family = cyclic_family(seq("x_i20", GATE_X_PI, *([GATE_IDLE] * 20)))
        rng = np.random.default_rng(71)
        conds = []
        for spam_cond in (10.0, 100.0, 316.0, 1000.0, 1000.0):
            distorted = distort_spam(
                model,
                random_spam_distortion(rng, spam_cond),
                random_spam_distortion(rng, spam_cond),
            )
            p0 = prob_table(seq("ref"), distorted).entries
            members = [t.entries for t in family_tables(family, distorted)]
            got = _fidelities_observed(members, p0, 4)
            expected = [exact_fidelities(entries, p0, 4) for entries in members]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
            conds.append(np.linalg.cond(p0))
        assert 1e5 < max(conds) <= 1e6

    def test_batched_observed_fidelities_are_bit_identical(self):
        model = build_model(make_params(phi=5e-3))
        base = seq("x_i40", GATE_X_PI, *([GATE_IDLE] * 40))
        tables = family_tables(cyclic_family(base), model, shots=10**4, seed=4)
        p0 = prob_table(seq("ref"), model)
        batched = _fidelities_observed([t.entries for t in tables], p0.entries, 4)
        per_member = np.concatenate(
            [_fidelities_observed([t.entries], p0.entries, 4) for t in tables]
        )
        assert np.array_equal(batched, per_member)


def _capture(monkeypatch, name):
    """Record the arguments of every call of ``analysis.<name>``."""
    calls = []
    original = getattr(analysis, name)

    def record(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(analysis, name, record)
    return calls


def _capture_null(monkeypatch, name):
    """Record the null draws of every call of the null producer ``analysis.<name>``.

    Each call appends a dict from member index to the draws that its
    ``draw`` gave that member.
    """
    calls = []
    original = getattr(analysis, name)

    def record(*args):
        (order, draw), draws = original(*args), {}
        calls.append(draws)

        def tee(j):
            draws[j] = draw(j)
            return draws[j]

        return order, tee

    monkeypatch.setattr(analysis, name, record)
    return calls


def _null_matrix(draws: dict) -> np.ndarray:
    """The (members x draws) matrix of one :func:`_capture_null` record, in member order."""
    return np.array([draws[j] for j in range(len(draws))])


def _fd_gradient(f, x, h=1e-7):
    """Central difference of the scalar ``f`` at ``x``, one cell moved by ``h`` at a time."""
    grad = np.empty_like(x)
    for cell in np.ndindex(x.shape):
        step = np.zeros_like(x)
        step[cell] = h
        grad[cell] = (f(x + step) - f(x - step)) / (2 * h)
    return grad


class TestNoiseAmplification:
    """Sampled reports carry ``||P^-1||_F ||sd(P)||_F``; exact ones do not."""

    @staticmethod
    def size(table):
        sd = analysis._cell_sd([table])[0]
        return np.linalg.norm(np.linalg.inv(table.entries)) * np.linalg.norm(sd)

    def test_log_det_tests_report_the_largest_member(self, baseline_model):
        family = repetition_family([GATE_X_PI], [0, 2, 4, 6])
        for test, args in ((det_permutation_test, ()), (repetition_test, (family.m_values,))):
            exact = test(family_tables(family, baseline_model), *args)
            assert "noise_amplification" not in exact.details
            tables = family_tables(family, baseline_model, shots=1000, seed=4)
            report = test(tables, *args, resamples=100, seed=4)
            assert report.details["noise_amplification"] == pytest.approx(
                max(map(self.size, tables)), rel=1e-12)

    def test_cyclic_test_reports_the_reference(self, baseline_model):
        family = cyclic_family(seq("x_i3", GATE_X_PI, GATE_IDLE, GATE_IDLE, GATE_IDLE))
        exact = cyclic_fidelity_test(family_tables(family, baseline_model),
                                     prob_table(seq("ref"), baseline_model))
        assert "noise_amplification" not in exact.details
        tables = family_tables(family, baseline_model, shots=1000, seed=4)
        p0 = sample_table(prob_table(seq("ref"), baseline_model), 1000, seed=4)
        report = cyclic_fidelity_test(tables, p0, resamples=100, seed=4)
        assert report.details["noise_amplification"] == pytest.approx(self.size(p0), rel=1e-12)

    def test_cells_at_0_or_n_keep_a_floored_sd(self):
        # a count of 0 or N clips p to 1/(N+1) or N/(N+1); an exact table has no noise
        entries = np.array([[0.0, 0.5], [1.0, 0.5]])
        sd = analysis._cell_sd([ProbabilityTable(entries, 10, "a"),
                                 ProbabilityTable(entries, None, "b")])
        np.testing.assert_allclose(sd[0], np.sqrt([[1 / 121, 0.025], [1 / 121, 0.025]]),
                                   rtol=1e-15)
        assert not sd[1].any()
        # two 1-shot permutation matrices: sd 0.5 in every cell and ||P^-1||_F = 2
        report = det_permutation_test([one_shot(EYE, "a"), one_shot(CYCLE, "b")], resamples=100)
        assert report.details["noise_amplification"] == 4.0

    def test_excluded_members_do_not_count(self, baseline_model):
        # the largest size over the members that enter the statistic: a singular
        # member and one past CONDITION_LIMIT, whose sizes are inf and 5.5e6,
        # are left out of it as they are left out of the spread and the fit
        family = repetition_family([GATE_X_PI], [0, 2, 4, 6])
        tables = family_tables(family, baseline_model, shots=1000, seed=4)
        tables[1] = one_shot(np.ones((4, 4)), "singular")
        tables[3] = ProbabilityTable(np.diag([0.5, 0.5, 0.5, 0.5e-8]), 1000, "ill")
        kept = max(self.size(tables[0]), self.size(tables[2]))
        for test, args in ((det_permutation_test, ()), (repetition_test, (family.m_values,))):
            report = test(tables, *args, resamples=100, seed=4)
            assert set(report.details["excluded_condition"]) == {"singular", "ill"}
            assert report.details["noise_amplification"] == pytest.approx(kept, rel=1e-12)
        report = det_permutation_test([one_shot(EYE, "a"), one_shot(np.ones((4, 4)), "b")],
                                      resamples=100)
        assert report.details["noise_amplification"] == 4.0

    def test_singular_member_gives_inf(self):
        # with no member left to enter the statistic, the size is inf
        report = det_permutation_test([one_shot(np.ones((4, 4)), "a"),
                                       one_shot(np.ones((4, 4)), "b")], resamples=100)
        assert report.details["noise_amplification"] == np.inf
        out = report.to_dict()
        assert out["details"]["noise_amplification"] is None
        assert "details.noise_amplification" in out["details"]["non_finite"]


class TestDeltaNull:
    X_I20 = seq("x_i20", GATE_X_PI, *([GATE_IDLE] * 20))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_cyclic_gradients_match_finite_differences(self, r):
        model = build_model(make_params(phi=5e-3))
        entries = np.stack([t.entries for t in family_tables(cyclic_family(self.X_I20), model)])
        p0 = prob_table(seq("ref"), model).entries
        grad, grad_ref = analysis._cyclic_gradients(entries, np.linalg.inv(p0), r)

        def fid(p, q):
            return np.trace(np.linalg.matrix_power(p @ np.linalg.inv(q), r)) / 4

        for j in (0, 7, 20):
            for analytic, fd in (
                (grad[j], _fd_gradient(lambda p: fid(p, p0), entries[j])),
                (grad_ref[j], _fd_gradient(lambda q: fid(entries[j], q), p0)),
            ):
                # 1e-5 relative to the gradient's scale: cells near 0 carry the
                # difference quotient's roundoff (about 1e-9), not its error
                np.testing.assert_allclose(fd, analytic, rtol=1e-5,
                                           atol=1e-5 * np.abs(analytic).max())

    def test_cyclic_null_matches_resampled_tables(self, monkeypatch, baseline_model):
        # sigma_j against the spread of resampled members with the reference
        # fixed, and the correlation that the shared reference gives two
        # members against that of resampled members and references
        tables = family_tables(cyclic_family(self.X_I20), baseline_model, shots=10**5, seed=8)
        p0 = sample_table(prob_table(seq("ref"), baseline_model), 10**5, seed=8)
        calls = _capture(monkeypatch, "_delta_null")
        cyclic_fidelity_test(tables, p0, r=2, resamples=100, seed=8)
        ((_, _, sigma, shared, _, _),) = calls

        resamples = 4000
        p0_draws = resample_cells(p0, resamples, 9)

        def fidelity(p, q):
            return trace_powers(p @ np.linalg.inv(q), 2)[..., 1] / 4

        j, k = 0, 10
        pj, pk = (resample_cells(tables[i], resamples, 9) for i in (j, k))
        member_only = fidelity(pj, p0.entries)
        assert np.std(member_only, ddof=1) == pytest.approx(sigma[j], rel=0.05)
        fj, fk = fidelity(pj, p0_draws), fidelity(pk, p0_draws)
        total = np.sqrt(sigma**2 + np.sum(shared**2, axis=1))
        assert np.std(fj, ddof=1) == pytest.approx(total[j], rel=0.05)
        expected = shared[j] @ shared[k] / (total[j] * total[k])
        assert expected > 0.2  # the shared reference matters here
        assert np.corrcoef(fj, fk)[0, 1] == pytest.approx(expected, abs=0.06)

    def test_null_draws_are_reproducible_and_order_free(self, monkeypatch, baseline_model):
        tables = family_tables(cyclic_family(self.X_I20), baseline_model, shots=10**4, seed=3)
        p0 = sample_table(prob_table(seq("ref"), baseline_model), 10**4, seed=3)

        def run(members):
            return cyclic_fidelity_test(members, p0, r=2, resamples=200, seed=3)

        calls = _capture_null(monkeypatch, "_delta_null")
        first, again, reversed_ = run(tables), run(tables), run(tables[::-1])
        a, b, c = map(_null_matrix, calls)
        assert a.tobytes() == b.tobytes()
        assert first.to_dict() == again.to_dict()
        assert a.tobytes() == c[::-1].tobytes()
        assert reversed_.threshold == first.threshold
        assert reversed_.details["null"] == first.details["null"]


def _traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates above what is live when it starts.

    ``fn`` runs once untraced first, so that its first-call imports and
    caches do not count.
    """
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


class TestNullMemory:
    """The spread tests reduce their null one block of ``NULL_BLOCK_BYTES`` at a time.

    A (members x R) matrix of draws is 1 MB for 251 members and 2 MB for 501
    at R = 500; holding one, with a sorted copy, took the peaks to 2.1 and
    4.3 MB.  Blocks of 64 members took them to 0.54 and 0.90 MB, and blocks
    of 64 KiB (16 members) to 0.21 and 0.58 MB.
    """

    @staticmethod
    def _members(baseline_model, n):
        entries = prob_table(seq("x", GATE_X_PI), baseline_model).entries
        rng = np.random.default_rng(0)
        return [ProbabilityTable(np.clip(entries + rng.normal(0, 1e-3, entries.shape), 0, 1),
                                 10**5, f"m{j:03d}") for j in range(n)]

    def test_cyclic_peak(self, baseline_model):
        tables = self._members(baseline_model, 501)
        p0 = ProbabilityTable(prob_table(seq("ref"), baseline_model).entries, 10**5, "ref")
        reports = []
        peak = _traced_peak(
            lambda: reports.append(cyclic_fidelity_test(tables, p0, r=2, resamples=500, seed=1))
        )
        assert reports[-1].details["null"]["method"] == "delta"
        assert peak < 1.5e6  # 0.84 MB when written, 0.58 MB with 64 KiB blocks

    def test_cyclic_peak_at_large_r(self, baseline_model):
        # one member's 20,000 draws exceed the byte budget, so a block holds
        # one member: 3.8 MB, mostly the (16 x R) shared reference normals,
        # where blocks of 64 members (a 10 MB block and its sorted copy) took 23.7 MB
        tables = self._members(baseline_model, 501)
        p0 = ProbabilityTable(prob_table(seq("ref"), baseline_model).entries, 10**5, "ref")
        peak = _traced_peak(lambda: cyclic_fidelity_test(tables, p0, r=2, resamples=20_000,
                                                         seed=1))
        assert peak < 8e6

    def test_permutation_peak(self, baseline_model):
        tables = self._members(baseline_model, 251)
        peak = _traced_peak(lambda: det_permutation_test(tables, resamples=500, seed=1))
        assert peak < 1.0e6  # 0.61 MB when written, 0.21 MB with 64 KiB blocks

    @pytest.mark.parametrize("test,method", [("permutation", "bootstrap"), ("cyclic", "delta"),
                                             ("cyclic", "bootstrap")])
    def test_block_size_changes_no_report(self, monkeypatch, baseline_model, test, method):
        # intervals come from each member's own row, and the null spread from an
        # exact running max and min of per-row centred draws, so blocks of one
        # member, of 7 (an uneven split of 21) or of the whole family agree
        tables = family_tables(cyclic_family(TestDeltaNull.X_I20), baseline_model,
                               shots=10**4, seed=6)
        resamples = 200
        if test == "permutation":
            def run():
                return det_permutation_test(tables, resamples=resamples, seed=6)
        else:
            # a 10-shot reference is too noisy for the delta method
            shots = 10 if method == "bootstrap" else 10**4
            p0 = sample_table(prob_table(seq("ref"), baseline_model), shots, seed=6)

            def run():
                return cyclic_fidelity_test(tables, p0, r=2, resamples=resamples, seed=6)
        reference = run()
        assert reference.details["null"]["method"] == method
        for members in (1, 7, len(tables)):
            monkeypatch.setattr(analysis, "NULL_BLOCK_BYTES", members * 8 * resamples)
            assert run().to_dict() == reference.to_dict()


class TestRepetitionTest:
    @pytest.mark.parametrize("block", [[GATE_IDLE], [GATE_X_PI]])
    def test_exact_slope_matches_rates(self, baseline_model, block):
        family = repetition_family(block, range(0, 81, 10))
        tables = family_tables(family, baseline_model)
        report = repetition_test(tables, family.m_values)
        assert report.verdict is Verdict.CONTEXT_INDEPENDENT
        assert report.summary["slope"] == pytest.approx(
            -2.0 * T_GATE * GAMMA_SUM, rel=1e-6
        )
        assert report.summary["residual_norm"] < 1e-8
        # intercept picks up the SPAM-only contribution
        raw0 = raw_transfer_matrix(prob_table(seq("ref"), baseline_model))
        assert report.summary["intercept"] == pytest.approx(
            log_abs_det(raw0), rel=1e-9
        )

    def test_zero_noise_slope_zero(self):
        model = ideal_model()
        family = repetition_family([GATE_X_PI], [0, 2, 4, 6])
        tables = family_tables(family, model)
        report = repetition_test(tables, family.m_values)
        assert abs(report.summary["slope"]) < 1e-12
        assert report.summary["residual_norm"] < 1e-10

    def test_exact_nonlinearity_detected(self):
        model = build_model(make_params(phi=0.02))
        family = repetition_family([GATE_IDLE], range(0, 201, 25))
        tables = family_tables(family, model)
        report = repetition_test(tables, family.m_values)
        assert report.verdict is Verdict.CONTEXT_DEPENDENT
        assert report.summary["residual_norm"] > 1e-3

    def test_finite_shots_null(self, baseline_model):
        family = repetition_family([GATE_X_PI], range(0, 61, 10))
        tables = family_tables(family, baseline_model, shots=10**5, seed=5)
        report = repetition_test(tables, family.m_values, resamples=300, seed=5)
        assert report.verdict is Verdict.CONTEXT_INDEPENDENT
        assert report.summary["p_value"] > 0.05
        # the true slope sits inside a few stderr of the fit
        assert abs(report.summary["slope"] - (-2.0 * T_GATE * GAMMA_SUM)) < (
            4.0 * report.summary["slope_stderr"]
        )

    def test_p_value_never_reads_zero(self):
        # sampled fig3a at phi = 0.02, as `ctxdep run --shots 100000 --seed 3`
        # draws it: chi2 1770 against a 99% threshold of 20, beyond every null
        # draw, so the Monte Carlo p-value is its floor 1/(R + 1), not 0
        cfg = parse_config("scenario = fig3a\nshots = 100000\nseed = 3\n")
        (family,) = cfg.families()
        tables = family_tables(family, build_model(cfg.noise_params(0.02)), shots=cfg.shots,
                               seed=cfg.seed)
        report = repetition_test(tables, family.m_values,
                                 resamples=cfg.bootstrap_resamples, seed=cfg.seed)
        assert report.summary["chi2"] > report.threshold
        assert report.summary["p_value"] == 1 / 501

    def test_requires_enough_points(self, baseline_model):
        family = repetition_family([GATE_X_PI], [0, 1, 2])
        tables = family_tables(family, baseline_model)
        with pytest.raises(ValueError):
            repetition_test(tables, family.m_values)

    def test_non_finite_weight_is_inconclusive(self, baseline_model):
        # at 10 shots some resampled tables are singular; their -inf log-dets
        # turn sigma and the fit weight NaN, which must end in a verdict, not
        # in an unconverged least-squares fit
        family = repetition_family([GATE_IDLE], [0, 200, 400, 600])
        tables = family_tables(family, baseline_model, shots=10, seed=0)
        report = repetition_test(tables, family.m_values, resamples=100, seed=0)
        # the members named are those with a -inf bootstrap log-det
        expected = [
            t.label for t in tables if np.isinf(log_abs_det_many(resample_cells(t, 100, 0))).any()
        ]
        assert expected
        assert report.verdict is Verdict.INCONCLUSIVE
        reason = report.details["inconclusive_reason"]
        assert reason == "non-finite bootstrap weight for " + ", ".join(expected)
        assert np.isnan(report.threshold) and np.isnan(report.summary["slope"])
        assert report.details["null"]["method"] == "bootstrap"
        assert report.details["null"]["non_finite_frac"] > 0

    def test_zero_sigma_weight_is_inconclusive(self):
        # single-shot 0/1 tables resample to themselves: sigma is 0 and the
        # weight infinite, which used to be clamped to 1e24 and fitted
        tables = [one_shot(m, f"m{k}") for k, m in enumerate([EYE, TWO, EYE, TWO])]
        report = repetition_test(tables, [0, 1, 2, 3], resamples=100)
        assert report.verdict is Verdict.INCONCLUSIVE
        reason = report.details["inconclusive_reason"]
        assert reason == "non-finite bootstrap weight for m0, m1, m2, m3"
        assert np.isnan(report.summary["chi2"])

    @pytest.mark.parametrize("finite", [(0, 2), (0,), ()])
    @pytest.mark.parametrize("shots", [None, 1000])
    def test_too_few_finite_members_are_inconclusive(self, baseline_model, shots, finite):
        # a line through two finite members or fewer has no residual, which used
        # to read as ContextIndependent (chi2 1e-31 against 1e-8 for two exact ones)
        family = repetition_family([GATE_X_PI], [0, 1, 2, 3])
        flat = np.full((4, 4), 0.25)  # rank 1: log|det| = -inf
        tables = [ProbabilityTable(t.entries if j in finite else flat, shots, t.label)
                  for j, t in enumerate(family_tables(family, baseline_model))]
        report = repetition_test(tables, family.m_values, resamples=200, seed=1)
        assert report.summary["n_excluded"] == 4 - len(finite)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.details["inconclusive_reason"] == (
            f"line fit has no residual degrees of freedom: {len(finite)} of 4 members finite"
        )
        assert np.isnan(report.summary["chi2"])

    @pytest.mark.parametrize("shots", [None, 1000])
    def test_three_finite_members_are_fitted(self, baseline_model, shots):
        # the fewest finite members whose line leaves a residual: one degree of freedom
        family = repetition_family([GATE_X_PI], [0, 1, 2, 3])
        flat = np.full((4, 4), 0.25)  # rank 1: log|det| = -inf
        tables = [ProbabilityTable(flat if j == 2 else t.entries, shots, t.label)
                  for j, t in enumerate(family_tables(family, baseline_model))]
        report = repetition_test(tables, family.m_values, resamples=200, seed=1)
        assert report.summary["n_excluded"] == 1
        assert "inconclusive_reason" not in report.details
        assert np.isfinite(report.summary["chi2"])
        assert report.verdict is Verdict.CONTEXT_INDEPENDENT

    @pytest.mark.parametrize("scenario", ["fig3a", "fig3b"])
    def test_closed_form_line_fit_matches_lstsq(self, scenario):
        # the closed form against numpy's SVD least squares on the preset m grids,
        # with weights from 1e-6 to 1e6, for one series and for 40 fitted at once
        x = np.asarray(parse_config(f"scenario = {scenario}").families()[0].m_values, dtype=float)
        design = np.column_stack([x, np.ones_like(x)])
        for seed in range(10):
            rng = np.random.default_rng(seed)
            weights = 10.0 ** rng.uniform(-6, 6, x.size)
            sw = np.sqrt(weights)
            series = -0.4 - 3e-3 * x[:, None] + rng.normal(scale=1e-2, size=(x.size, 40))
            for y in (series[:, 0], series):
                coef, *_ = np.linalg.lstsq(design * sw[:, None], (y.T * sw).T, rcond=None)
                expected = (coef[0], coef[1], y - design @ coef)
                slope, intercept, residuals, chi2 = analysis._weighted_line_fit(x, y, weights)
                for got, want in zip((slope, intercept, residuals), expected):
                    np.testing.assert_allclose(got, want, rtol=1e-12,
                                               atol=1e-12 * np.abs(want).max())
                np.testing.assert_allclose(chi2, weights @ expected[2] ** 2, rtol=1e-12)
            # an exactly linear series leaves rounding only
            residuals = analysis._weighted_line_fit(x, -0.4 - 3e-3 * x, weights)[2]
            assert np.abs(residuals).max() <= 1e-12

    def test_batched_null_matches_per_draw_fits(self, baseline_model):
        """The one-call null agrees with one weighted fit per bootstrap draw."""
        family = repetition_family([GATE_X_PI], range(0, 61, 10))
        tables = family_tables(family, baseline_model, shots=10**5, seed=5)
        report = repetition_test(tables, family.m_values, resamples=200, seed=5)

        def line_fit(x, y, w):
            sw = np.sqrt(w)
            design = np.column_stack([x, np.ones_like(x)])
            coef, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
            return coef, np.sum(w * (y - design @ coef) ** 2)

        x = np.asarray(family.m_values, dtype=float)
        y = np.array([log_abs_det(t.entries) for t in tables]) - analysis.IDEAL_SPAM_LOG_DET
        boots = np.stack(
            [log_abs_det_many(resample_cells(t, 200, 5)) for t in tables]
        ) - analysis.IDEAL_SPAM_LOG_DET
        w = 1.0 / boots.std(axis=1, ddof=1) ** 2
        (slope, intercept), chi2 = line_fit(x, y, w)
        centered = boots - boots.mean(axis=1, keepdims=True)
        fits = [line_fit(x, slope * x + intercept + centered[:, b], w) for b in range(200)]
        null_slopes = np.array([coef[0] for coef, _ in fits])
        null_chi2 = np.array([c for _, c in fits])

        assert report.summary["slope"] == pytest.approx(slope, rel=1e-10)
        assert report.summary["chi2"] == pytest.approx(chi2, rel=1e-10)
        assert report.summary["slope_stderr"] == pytest.approx(
            np.std(null_slopes, ddof=1), rel=1e-10
        )
        assert report.threshold == pytest.approx(np.percentile(null_chi2, 99.0), rel=1e-10)
        assert report.summary["p_value"] == (1 + np.sum(null_chi2 >= chi2)) / (len(null_chi2) + 1)
        assert report.details["null"] == {"method": "bootstrap", "draws": 200,
                                          "non_finite_frac": 0.0}

    @pytest.mark.parametrize("phi", [0.0, 0.005])
    def test_summary_thresholds_bracket_verdict(self, phi):
        # sampled fig3a: repeated idles at 1e5 shots
        (family,) = parse_config("scenario = fig3a").families()
        tables = family_tables(family, build_model(make_params(phi=phi)), shots=10**5, seed=1)
        report = repetition_test(tables, family.m_values, resamples=200)
        chi2, thr95, thr99 = (report.summary[k] for k in ("chi2", "threshold95", "threshold99"))
        assert thr95 <= thr99 == report.threshold
        if chi2 > thr99:
            assert report.verdict is Verdict.CONTEXT_DEPENDENT
        elif chi2 > thr95:
            assert report.verdict is Verdict.INCONCLUSIVE
        else:
            assert report.verdict is Verdict.CONTEXT_INDEPENDENT

    @pytest.mark.parametrize("scenario,block", [("fig3a", 0), ("fig3b", 0), ("fig3b", 1),
                                                ("fig3b", 2)])
    def test_volume_and_unitarity_match_generator_trace(self, scenario, block):
        # Jacobi: det e^{tL} = e^{t tr L}, and the rotations are traceless, so
        # at phi = 0 the block's volume ratio is exp(-2 t_gate (g1 + g3 + gphi) d)
        # for a block of summed gate durations d; SPAM maps must not move it
        cfg = parse_config(f"scenario = {scenario}")
        family = cfg.families()[block]
        duration = sum(g.duration for g in SCENARIOS[scenario][1][block][1])
        p = cfg.noise_params(0.0)
        expected = np.exp(-2.0 * p.t_gate * (p.gamma1 + p.gamma3 + p.gamma_phi) * duration)
        model = build_model(p)
        rng = np.random.default_rng(71)
        distorted = distort_spam(model, random_spam_distortion(rng, cond=100.0),
                                 random_spam_distortion(rng, cond=100.0))
        for m in (model, distorted):
            report = repetition_test(family_tables(family, m), family.m_values)
            volume, unitarity = (report.summary[k] for k in ("volume_ratio", "unitarity_tilde"))
            assert volume == pytest.approx(expected, rel=1e-12, abs=0)
            assert unitarity == pytest.approx(volume ** (2 / 3), rel=1e-12, abs=0)

    def test_singular_member_excluded(self, baseline_model):
        family = repetition_family([GATE_X_PI], [0, 1, 2, 3, 4])
        tables = family_tables(family, baseline_model)
        tables[2] = ProbabilityTable(np.zeros((4, 4)), None, tables[2].label)
        report = repetition_test(tables, family.m_values)
        assert report.summary["n_excluded"] == 1
        assert report.summary["residual_norm"] < 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_volume_past_float_range_or_without_fit_is_null(self):
        # log|det| rises by 720 per step, so exp(slope) overflows a float; two
        # finite members fit no line, so the slope is NaN
        rising = [ProbabilityTable(np.diag([np.exp(180.0 * m)] * 4), None, f"m{m}")
                  for m in range(4)]
        dead = [ProbabilityTable(np.zeros((4, 4)), None, f"d{m}") for m in range(2)]
        for tables in (rising, rising[:2] + dead):
            doc = repetition_test(tables, range(4)).to_dict()
            assert doc["summary"]["volume_ratio"] is doc["summary"]["unitarity_tilde"] is None
            assert {"summary.volume_ratio", "summary.unitarity_tilde"} <= set(
                doc["details"]["non_finite"])


class TestUnitarity:
    def test_unitary_ptm(self):
        from ctxdep.ptm import PAULI_X

        ptm = ptm_of_map(lambda r: PAULI_X @ r @ PAULI_X, BASIS1)
        assert unitarity_u(ptm) == pytest.approx(1.0, abs=1e-12)
        assert unitarity_tilde(ptm) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.9, 0.5, 0.2])
    def test_depolarizing(self, lam):
        ptm = np.diag([1.0, lam, lam, lam])
        assert unitarity_u(ptm) == pytest.approx(lam**2, rel=1e-12)
        assert unitarity_tilde(ptm) == pytest.approx(lam**2, rel=1e-12)

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(NotTracePreserving):
            unitarity_u(np.diag([0.9, 1.0, 1.0, 1.0]))

    def test_singular_tilde_is_zero(self):
        assert unitarity_tilde(np.diag([1.0, 0.0, 0.0, 0.0])) == 0.0

    def test_lower_bound_on_random_channels(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            ptm = kraus_ptm(random_kraus_channel(rng, 2, n_kraus=int(rng.integers(1, 5))))
            assert unitarity_u(ptm) >= unitarity_tilde(ptm) - 1e-9

    def test_equality_when_unital_block_is_scaled_orthogonal(self):
        from ctxdep.ptm import PAULI_Y

        rot = ptm_of_map(
            lambda r: apply_kraus(
                [np.cos(0.3) * np.eye(2) - 1j * np.sin(0.3) * PAULI_Y], r
            ),
            BASIS1,
        )
        ptm = rot @ np.diag([1.0, 0.6, 0.6, 0.6])
        assert unitarity_u(ptm) == pytest.approx(unitarity_tilde(ptm), abs=1e-9)

    def test_tilde_monotone_under_composition(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            g1 = kraus_ptm(random_kraus_channel(rng, 2))
            g2 = kraus_ptm(random_kraus_channel(rng, 2))
            composed = unitarity_tilde(g2 @ g1)
            assert composed <= min(unitarity_tilde(g1), unitarity_tilde(g2)) + 1e-9

    def test_u_not_monotone_counterexample(self):
        # Strong damping followed by a partial undoing (the inverse of a
        # weaker damping -- trace preserving though not physical on its own,
        # with a completely positive composite): the average-purity measure
        # rises along the factorization while the determinant measure cannot.
        found = None
        for g in np.linspace(0.2, 0.8, 7):
            damp = kraus_ptm(amplitude_damping_kraus(g))
            for h in np.linspace(0.05, g - 0.05, 6):
                undo = np.linalg.inv(kraus_ptm(amplitude_damping_kraus(h)))
                composite = undo @ damp
                if unitarity_u(composite) > unitarity_u(damp) + 1e-6:
                    found = (g, h, composite)
                    break
            if found:
                break
        assert found is not None
        _, _, composite = found
        # the composite itself is a physical (milder) damping channel
        from ctxdep import choi_matrix

        assert np.linalg.eigvalsh(choi_matrix(composite, BASIS1)).min() > -1e-9
        # and the determinant measure did not rise
        g, h, _ = found
        damp = kraus_ptm(amplitude_damping_kraus(g))
        assert unitarity_tilde(composite) <= unitarity_tilde(damp) / unitarity_tilde(
            np.linalg.inv(np.linalg.inv(kraus_ptm(amplitude_damping_kraus(h))))
        ) + 1e-9


class TestCpWitness:
    def test_decreasing_series_clear(self):
        report = cp_witness([0, 1, 2, 3], [0.0, -1.0, -2.0, -3.0])
        assert report.verdict is Verdict.CONTEXT_INDEPENDENT
        assert report.details["increases"] == []

    def test_constant_series_clear(self):
        report = cp_witness([0, 1, 2], [-1.0, -1.0, -1.0])
        assert report.verdict is Verdict.CONTEXT_INDEPENDENT

    def test_rise_flagged(self):
        report = cp_witness([0, 1, 2, 3], [0.0, -2.0, -1.5, -3.0])
        assert report.verdict is Verdict.CONTEXT_DEPENDENT
        assert report.summary["n_increases"] == 1
        assert report.details["increases"][0]["m_from"] == 1.0

    def test_ci_overlap_suppresses_flag(self):
        # a rise counts only where the later interval lies strictly above the
        # earlier one: intervals that touch (-0.95 = -0.95) overlap
        l_values = [0.0, -1.0, -0.9]
        for low, high in (([-0.5, -1.5, -1.4], [0.5, -0.5, -0.4]),
                          ([-0.5, -1.05, -0.95], [0.5, -0.95, -0.85])):
            report = cp_witness([0, 1, 2], l_values, low, high)
            assert report.verdict is Verdict.CONTEXT_INDEPENDENT, (low, high)

    def test_zero_width_interval_is_inconclusive(self):
        # at 1 shot every resample reproduces its table, so an interval can
        # have no width; it cannot tell this rise from shot noise
        l_values = [0.0, -2.0, -1.5, -3.0]
        low = [-0.5, -2.0, -1.6, -3.5]
        high = [0.5, -2.0, -1.4, -2.5]
        report = cp_witness([0, 1, 2, 3], l_values, low, high)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.details["inconclusive_reason"] == "zero-width interval for m=1"
        assert report.summary["n_increases"] == 1  # the rise is still reported

    @pytest.mark.parametrize(
        "low,high,verdict",
        [
            (None, None, Verdict.CONTEXT_DEPENDENT),
            ([-0.5, -2.5, -1.6, -3.5], [0.5, -1.9, -1.4, -2.5], Verdict.CONTEXT_DEPENDENT),
            ([-0.5, -2.0, -1.6, -3.5], [0.5, -2.0, -1.4, -2.5], Verdict.INCONCLUSIVE),
        ],
        ids=["exact", "sampled", "zero-width"],
    )
    def test_indivisible_follows_verdict(self, low, high, verdict):
        # the rise from m=1 to m=2 is found in all three; only a
        # ContextDependent verdict may call the process indivisible
        report = cp_witness([0, 1, 2, 3], [0.0, -2.0, -1.5, -3.0], low, high)
        assert report.verdict is verdict
        assert report.summary["cp_indivisible"] is (verdict is Verdict.CONTEXT_DEPENDENT)
        assert [f["m_from"] for f in report.details["increases"]] == [1.0]

    @pytest.mark.parametrize(
        "low,high",
        [(None, None), ([np.nan, -1.5, np.nan], [np.nan, -0.5, np.nan])],
        ids=["exact", "sampled"],
    )
    def test_no_finite_pair_is_inconclusive(self, low, high):
        # no two adjacent members to compare, so no rise could have been seen;
        # NaN intervals are not zero-width ones
        report = cp_witness([0, 1, 2], [-np.inf, -1.0, -np.inf], low, high)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.details["inconclusive_reason"] == (
            "no two adjacent members have finite log-dets"
        )
        assert report.summary["cp_indivisible"] is False

    def test_zero_width_reason_comes_first(self):
        report = cp_witness([0, 1], [-np.inf, 0.0], [-np.inf, 0.0], [-np.inf, 0.0])
        assert report.details["inconclusive_reason"] == "zero-width interval for m=0, m=1"
        report = cp_witness([0, 1, 2], [0.0, -1.0, -2.0], [-1.0, np.nan, -2.0], [1.0, 0.0, -2.0])
        assert report.details["inconclusive_reason"] == "zero-width interval for m=2"

    @pytest.mark.parametrize("bound", ["low", "high"])
    def test_non_finite_interval_is_inconclusive(self, bound):
        # -inf bootstrap draws leave a finite member a NaN bound, and a NaN
        # comparison is false: a rise that cannot be judged is no absence of one;
        # the singular member m=0 has no log-det to judge and is not named
        intervals = {"low": [np.nan, -1.5, -2.5, -2.5], "high": [np.nan, -0.5, -1.5, -1.5]}
        intervals[bound][2] = np.nan
        report = cp_witness([0, 1, 2, 3], [-np.inf, -1.0, -2.0, -2.0],
                            intervals["low"], intervals["high"])
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.details["inconclusive_reason"] == "non-finite interval for m=2"

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            cp_witness([0], [1.0])

    @pytest.mark.parametrize(
        "m_values,l_values,low,high",
        [([0, 1, 2], [1.0, 0.5], None, None),
         ([0, 1], [1.0, 0.5, 0.2], None, None),
         ([0, 1, 2], [1.0, 0.5, 0.2], [0.9, 0.4], [1.1, 0.6, 0.3])],
        ids=["short-series", "long-series", "short-interval"],
    )
    def test_series_of_different_lengths_are_refused(self, m_values, l_values, low, high):
        # a short series used to give a report whose to_dict() raised IndexError,
        # and a long one to drop its last member from the report
        with pytest.raises(ValueError, match="per m value"):
            cp_witness(m_values, l_values, low, high)

    @pytest.mark.parametrize("low,high", [([-0.1, -1.1, -0.6], None), (None, [0.1, -0.9, -0.4])],
                             ids=["low-only", "high-only"])
    def test_lone_interval_bound_is_refused(self, low, high):
        # a lone low bound used to raise IndexError, and a lone high one to be
        # ignored in favour of the exact floor
        with pytest.raises(ValueError, match="both interval bounds or neither"):
            cp_witness([0, 1, 2], [0.0, -1.0, -0.5], low, high)


class TestPercentiles:
    """``_percentiles`` must reproduce ``np.percentile`` byte for byte."""

    @staticmethod
    def _stack(rng, n):
        rows = rng.standard_normal((7, n)) * 10.0 ** rng.integers(-6, 6, size=(7, 1))
        rows[1, rng.integers(n)] = -np.inf
        rows[2, rng.integers(n)] = np.inf
        rows[3, rng.integers(n)] = np.nan
        rows[4, :] = rows[4, 0]  # all equal
        rows[5, :] = -np.inf
        rows[6, rng.integers(n, size=2)] = (-np.inf, np.inf)
        return rows

    @pytest.mark.parametrize("q", [[2.5, 97.5], [95.0, 99.0]], ids=["ci", "thresholds"])
    def test_matches_numpy_bytes(self, q):
        rng = np.random.default_rng(15)
        with np.errstate(invalid="ignore"):  # inf rows make inf - inf, as in numpy
            for n in range(1, 701):
                rows = self._stack(rng, n)
                got = analysis._percentiles(rows, q)
                assert got.tobytes() == np.percentile(rows, q, axis=1).tobytes(), n
                row = rows[n % len(rows)]  # every kind of row, about 100 times each
                got = analysis._percentiles(row, q)
                assert got.tobytes() == np.percentile(row, q).tobytes(), (n, row)

    def test_leaves_its_input_alone(self):
        values = np.array([3.0, -1.0, np.nan, 2.0])
        before = values.tobytes()
        assert np.isnan(analysis._percentiles(values, [50.0])).all()
        assert values.tobytes() == before


@pytest.mark.parametrize("resamples", [0, 1, 99])
@pytest.mark.parametrize(
    "test", ["det_permutation_test", "cyclic_fidelity_test", "repetition_test"])
def test_nulls_of_fewer_than_100_draws_are_refused(baseline_model, test, resamples):
    # 0 draws used to end in an IndexError, 1 in a zero-width null or in a
    # RuntimeWarning from a standard deviation of one draw
    family = cyclic_family(seq("x_i3", GATE_X_PI, GATE_IDLE, GATE_IDLE, GATE_IDLE))
    tables = family_tables(family, baseline_model, shots=1000, seed=4)
    p0 = sample_table(prob_table(seq("ref"), baseline_model), 1000, seed=4)
    calls = {
        "det_permutation_test": lambda: det_permutation_test(tables, resamples=resamples),
        "cyclic_fidelity_test": lambda: cyclic_fidelity_test(tables, p0, resamples=resamples),
        "repetition_test": lambda: repetition_test(tables, range(4), resamples=resamples),
    }
    with pytest.raises(ValueError, match="^resamples must be >= 100$"):
        calls[test]()


class TestSpamRobustness:
    """Arbitrary invertible SPAM maps must not move any invariant."""

    def test_permutation_statistics_shift_uniformly(self, baseline_model):
        rng = np.random.default_rng(61)
        family = permutation_family(GATE_IDLE, GATE_X_PI, 8)
        base = det_permutation_test(family_tables(family, baseline_model))
        for _ in range(3):
            distorted = distort_spam(
                baseline_model,
                random_spam_distortion(rng, cond=100.0),
                random_spam_distortion(rng, cond=100.0),
            )
            report = det_permutation_test(family_tables(family, distorted))
            assert abs(report.summary["spread"] - base.summary["spread"]) < 1e-9
            assert report.verdict is base.verdict

    def test_cyclic_trace_powers_unchanged(self, baseline_model):
        rng = np.random.default_rng(67)
        base_seq = seq("x_i20", GATE_X_PI, *([GATE_IDLE] * 20))
        family = cyclic_family(base_seq)
        ref = seq("ref")
        p0 = prob_table(ref, baseline_model)
        base = cyclic_fidelity_test(family_tables(family, baseline_model), p0, r=2)
        distorted_model = distort_spam(
            baseline_model,
            random_spam_distortion(rng, cond=1000.0),
            random_spam_distortion(rng, cond=1000.0),
        )
        report = cyclic_fidelity_test(
            family_tables(family, distorted_model),
            prob_table(ref, distorted_model),
            r=2,
        )
        for order in "1234":
            np.testing.assert_allclose(
                report.details["fidelity_by_order"][order],
                base.details["fidelity_by_order"][order],
                atol=1e-9,
            )

    def test_verdicts_stable_across_reference_choice(self):
        # short reference sequences are interchangeable: the cyclic-test
        # verdict must agree between the empty reference and a short one
        for phi, expected in ((0.0, Verdict.CONTEXT_INDEPENDENT), (5e-3, Verdict.CONTEXT_DEPENDENT)):
            model = build_model(make_params(phi=phi))
            family = cyclic_family(seq("x_i30", GATE_X_PI, *([GATE_IDLE] * 30)))
            tables = family_tables(family, model)
            for ref in (seq("ref"), seq("ref_idle", GATE_IDLE, GATE_IDLE)):
                report = cyclic_fidelity_test(tables, prob_table(ref, model), r=2)
                assert report.verdict is expected


class TestReportSerialization:
    def test_to_dict_round_trips_through_json(self, baseline_model):
        import json

        family = permutation_family(GATE_IDLE, GATE_X_PI, 4)
        tables = family_tables(family, baseline_model, shots=10**4, seed=13)
        report = det_permutation_test(tables, resamples=150, seed=13)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["kind"] == "PermDet"
        assert payload["verdict"] in {v.value for v in Verdict}
        assert len(payload["members"]) == 5
        member = payload["members"][0]
        assert set(member) == {"label", "statistic", "ci_low", "ci_high"}
        assert "non_finite" not in payload["details"]

    def test_non_finite_values_become_null(self):
        import json

        report = Report(
            kind="PermDet",
            member_labels=["a", "b"],
            statistics=np.array([-1.0, -np.inf]),
            verdict=Verdict.INCONCLUSIVE,
            threshold=float("nan"),
            summary={"spread": np.nan, "mean": -1.0},
            details={"fidelity_by_order": {"2": np.array([1.0, np.inf])}},
        )
        text = json.dumps(report.to_dict(), allow_nan=False)
        payload = json.loads(text)
        assert payload["threshold"] is None
        assert payload["summary"] == {"spread": None, "mean": -1.0}
        assert [m["statistic"] for m in payload["members"]] == [-1.0, None]
        assert payload["details"]["non_finite"] == [
            "threshold",
            "summary.spread",
            "members[1].statistic",
            "details.fidelity_by_order.2[1]",
        ]

    def test_booleans_are_json_booleans(self):
        import json

        report = Report(
            kind="CPWitness",
            member_labels=["a"],
            statistics=np.array([0.0]),
            verdict=Verdict.CONTEXT_INDEPENDENT,
            threshold=1e-9,
            summary={"flag": True, "np_flag": np.bool_(False), "count": np.int64(3)},
            details={"flags": np.array([True, False])},
        )
        text = json.dumps(report.to_dict(), allow_nan=False, sort_keys=True)
        assert '"flag": true' in text and '"np_flag": false' in text
        payload = json.loads(text)
        assert payload["summary"] == {"count": 3, "flag": True, "np_flag": False}
        assert payload["summary"]["flag"] is True
        assert payload["details"]["flags"] == [True, False]
