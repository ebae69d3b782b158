"""Context-dependence tests on probability tables.

All tests work on invariants of matrix products -- determinants and power
traces -- evaluated directly on the measured tables, so they are insensitive
to unknown linear state-preparation and measurement errors and never require
reconstructing the gates themselves:

* permutation test: ``log|det P(S)|`` must not depend on the arrangement of a
  fixed gate multiset;
* cyclic test: the power traces of ``P(S) P0^{-1}`` must not depend on
  rotations of the sequence (``P0`` is a short reference experiment);
* repetition test: ``log|det|`` must fall linearly with the repetition count
  of a fixed block, with slope ``log|det G|``.

Statistical significance under finite shots is judged against a null drawn
from the tables' own shot noise.  The cyclic test uses the delta method: each
table cell is a binomial frequency, so to first order a statistic moves by
its gradient times the cells' noise, and a null draw is the observed
statistic plus that Gaussian motion (Davison & Hinkley, *Bootstrap Methods
and their Application*, 1997, ch. 2).  Where the reference table's shot noise
is too large for a first-order expansion, the cyclic test falls back to a
parametric bootstrap null (per-cell binomial resampling), which the
permutation and repetition tests always use.
"""

from __future__ import annotations

import enum
import math
import types
from dataclasses import dataclass, field

import numpy as np

from . import _WARNING, _log, experiment
from .experiment import ProbabilityTable, resample_cells
from .ptm import log_abs_det, log_abs_det_many, trace_powers

__all__ = [
    "NotTracePreserving",
    "SingularReference",
    "Verdict",
    "TestReport",
    "det_permutation_test",
    "cyclic_fidelity_test",
    "repetition_test",
    "unitarity_u",
    "unitarity_tilde",
    "accessible_volume",
    "cp_witness",
    "bootstrap_ci",
]

# Numerical floor distinguishing roundoff from signal in exact-table runs.
EXACT_SPREAD_TOL = 1e-9
# Residual 2-norm below which an exact-table decay series counts as linear.
LINEAR_RESIDUAL_TOL = 1e-8
# Condition number beyond which a table counts as singular and a cyclic
# reference cannot be inverted.  An LU log-det is off by about n cond eps, which
# reaches the 1e-9 exact floor near cond 1e6.
CONDITION_LIMIT = 1e6
# The first-order expansion of (P + dP)^-1 converges while ||P^-1 dP|| < 1.  A
# reference table whose ||P^-1||_2 ||sd(P)||_F reaches this bound has shot noise
# too large for the delta-method null, and the cyclic test resamples instead.
# The rule is read off the Frobenius bound ||P^-1||_F ||sd(P)||_F (_linear_size),
# which lies within a factor sqrt(n) above it; only a bound that straddles the
# limit takes the 2-norm, through the SVD (_two_norm_or_bound).
LINEAR_NULL_LIMIT = 1.0
# log|det B| + log|det C| of the ideal single-qubit preparations (C) and effects
# (B): the shift from log|det P| to raw-estimate units; the tests derive it.
IDEAL_SPAM_LOG_DET = -1.3862943611198912
# Relative slack for rounding when an SVD-free norm bounds a 2-norm quantity.
NORM_MARGIN = 1e-6
# Largest deviation from (1, 0, ..., 0) that unitarity_u accepts in a first row.
TRACE_PRESERVING_TOL = 1e-8
# Bytes of float64 draws per block of a spread test's null: it holds one block
# of whole members (at least one, so R draws), with a sorted copy, at a time,
# never the whole (members x R) matrix.  64 KiB is 16 members at R = 500 and
# keeps a block and its copy below glibc's default 128 KiB mmap threshold.
NULL_BLOCK_BYTES = 64 * 1024


class NotTracePreserving(ValueError):
    """A transfer matrix lacked the (1, 0, ..., 0) first row."""


class SingularReference(ValueError):
    """The reference-experiment table cannot be inverted."""


class Verdict(enum.Enum):
    CONTEXT_INDEPENDENT = "ContextIndependent"
    CONTEXT_DEPENDENT = "ContextDependent"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class TestReport:
    """Result of one context test over a sequence family: every report carries a verdict."""

    kind: str  # PermDet | CyclicFid | RepLinearity | CPWitness
    member_labels: list[str]
    statistics: np.ndarray
    verdict: Verdict
    threshold: float
    summary: dict
    ci_low: np.ndarray | None = None
    ci_high: np.ndarray | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready tree (schema documented in the README).

        Strict JSON has no NaN or infinity, so every non-finite float is
        written as ``None`` and its path (``summary.threshold95``,
        ``members[3].statistic``, ...) is listed under
        ``details["non_finite"]``.
        """
        non_finite: list[str] = []

        def _clean(value, path):
            if isinstance(value, np.ndarray):
                return _clean(value.tolist(), path)
            if isinstance(value, (np.bool_, bool)):
                return bool(value)
            if isinstance(value, (np.floating, float)):
                if math.isfinite(value):
                    return float(value)
                non_finite.append(path)
                return None
            if isinstance(value, (np.integer, int)):
                return int(value)
            if isinstance(value, dict):
                return {str(k): _clean(v, f"{path}.{k}" if path else str(k))
                        for k, v in value.items()}
            if isinstance(value, (list, tuple, types.GeneratorType)):
                return [_clean(v, f"{path}[{i}]") for i, v in enumerate(value)]
            return value

        columns = {"statistic": self.statistics, "ci_low": self.ci_low, "ci_high": self.ci_high}
        # made as the walk reaches them, so a report never holds its members twice
        members = ({"label": label} | {k: None if v is None else v[j] for k, v in columns.items()}
                   for j, label in enumerate(self.member_labels))
        out = _clean({"kind": self.kind, "verdict": self.verdict.value,
                      "threshold": self.threshold, "summary": self.summary,
                      "members": members, "details": self.details}, "")
        if non_finite:
            out["details"]["non_finite"] = non_finite
        return out


def _cond(matrix: np.ndarray, inverse: np.ndarray):
    # 1-norm (inf if singular, also per matrix of a stack): it needs one LU
    # inverse, on the path slogdet and solve use, where the 2-norm needs the SVD;
    # from the given inverse (NaN where singular) it is np.linalg.cond(matrix, 1) bit
    # for bit, which takes ||P||_1 ||P^-1||_1 of its own inverse the same way
    with np.errstate(all="ignore"):  # an overflowed inverse
        cond = (np.linalg.norm(matrix, 1, axis=(-2, -1))
                * np.linalg.norm(inverse, 1, axis=(-2, -1)))
    return np.where(np.isnan(cond), np.inf, cond)


def _two_norm_or_bound(low: float, high: float, limit: float, two_norm) -> float:
    """A 2-norm quantity known to lie in ``[low, high]``, or the bound that settles
    its comparison with ``limit``.

    ``low`` and ``high`` come from SVD-free norms through norm equivalence.
    ``two_norm()`` takes the quantity through LAPACK's SVD and is called only
    when ``limit`` falls within the bounds, widened by ``NORM_MARGIN`` for
    rounding, or a bound is NaN.  So the result compares with ``limit`` as the
    2-norm quantity itself would.
    """
    if high * (1 + NORM_MARGIN) < limit:
        return high
    if low * (1 - NORM_MARGIN) > limit:
        return low
    return float(two_norm())


def _percentiles(values: np.ndarray, q) -> np.ndarray:
    """``np.percentile(values, q, axis=-1)`` with the default linear method, bit for bit.

    Sorts a copy once and interpolates like numpy (Hyndman & Fan type 7, with
    numpy's two-sided lerp); a row holding NaN gives NaN.  Row ``i`` of the
    result is percentile ``q[i]``.  ``np.percentile`` itself imports
    ``numpy.ma`` (its ``np.unique`` asks ``np.ma.is_masked``), which costs a
    sampled run about 1.3 MB of RSS.
    """
    ordered = np.sort(values, axis=-1)
    n = ordered.shape[-1]
    index = (n - 1) * (np.asarray(q, dtype=float) / 100)
    below = np.floor(index).astype(np.intp)
    above = below + 1
    last = index >= n - 1
    below[last] = above[last] = -1
    weight = (index - below).reshape(index.shape + (1,) * (ordered.ndim - 1))
    a = np.moveaxis(ordered[..., below], -1, 0)
    b = np.moveaxis(ordered[..., above], -1, 0)
    diff = b - a
    out = np.add(a, diff * weight)
    np.subtract(b, diff * (1 - weight), out=out, where=weight >= 0.5)
    nan = np.isnan(ordered[..., -1])
    np.copyto(out, ordered[..., -1], where=nan)
    return out


def _check_resamples(resamples: int) -> None:
    """Refuse a null of fewer than 100 draws, too few to resolve its 1% tail."""
    if resamples < 100:
        raise ValueError("resamples must be >= 100")


def _verdict(observed: float, thr95: float, thr99: float, details: dict) -> Verdict:
    """Three-way verdict of a statistic against its null's 95%/99% thresholds.

    A non-finite statistic or threshold (for instance a null with NaN draws
    for a singular table) supports no verdict: the result is
    ``Inconclusive`` and the reason goes into ``details``.  So does a reason
    the caller already stated there.
    """
    values = {"statistic": observed, "threshold95": thr95, "threshold99": thr99}
    bad = [name for name, value in values.items() if not np.isfinite(value)]
    if bad:
        details.setdefault("inconclusive_reason", "non-finite " + ", ".join(bad))
    if "inconclusive_reason" in details:
        return Verdict.INCONCLUSIVE
    if observed > thr99:
        return Verdict.CONTEXT_DEPENDENT
    if observed > thr95:
        return Verdict.INCONCLUSIVE
    return Verdict.CONTEXT_INDEPENDENT


def _null_ci(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """95% percentile interval of each row of null ``draws``, and how many draws are not
    finite; -inf draws give NaN bounds."""
    with np.errstate(invalid="ignore"):
        low, high = _percentiles(draws, [2.5, 97.5])
    return low, high, draws.size - np.count_nonzero(np.isfinite(draws))


def _null_details(method: str, draws: int, non_finite: int, members: int) -> dict:
    """``details["null"]``: method, draws per member and the share of draws not finite
    (0 for a null of no draws)."""
    frac = non_finite / (members * draws) if draws else 0.0
    return {"method": method, "draws": draws, "non_finite_frac": frac}


def _report(kind, tables, stats, observed, thresholds, ci, summary, details) -> TestReport:
    """Verdict of ``observed`` against the 95%/99% ``thresholds``, and its report."""
    thr95, thr99 = float(thresholds[0]), float(thresholds[1])
    summary.update(threshold95=thr95, threshold99=thr99)
    verdict = _verdict(observed, thr95, thr99, details)
    labels = [t.label for t in tables]
    return TestReport(kind, labels, stats, verdict, thr99, summary, *ci, details)


def _log_dets(tables, resamples: int, seed: int, details: dict):
    """``log|det P|`` of the stacked member tables, in one ``slogdet`` call, and the
    null ``(order, draw)`` of their bootstrap log-dets, in table order (``None``
    if all exact).  A member whose condition exceeds ``CONDITION_LIMIT``, exact
    or sampled, gets ``-inf``, as a singular one does, and
    ``details["excluded_condition"]`` maps the label of each such member to its condition.
    Sampled members set ``details["noise_amplification"]``, the largest
    :func:`_linear_size` of the members that enter the statistic, or inf if none does.
    """
    entries = np.stack([t.entries for t in tables])
    observed = log_abs_det_many(entries)
    # one LU inverse per table serves the condition and the noise amplification;
    # LU has a zero pivot, and inv fails, exactly where slogdet gives -inf
    inverse = _inverses(entries, np.isfinite(observed))
    cond = _cond(entries, inverse)
    observed[cond > CONDITION_LIMIT] = -np.inf  # roundoff, not a determinant
    excluded = {t.label: c for t, c, v in zip(tables, cond, observed) if not np.isfinite(v)}
    if excluded:
        details["excluded_condition"] = excluded
    if all(t.is_exact for t in tables):
        return observed, None
    regular = np.isfinite(observed)
    sizes = _linear_size(inverse[regular], _cell_sd(tables)[regular])
    details["noise_amplification"] = float(sizes.max()) if sizes.size else math.inf
    return observed, (range(len(tables)), lambda j: log_abs_det_many(
        resample_cells(tables[j], resamples, seed)))


def _cell_sd(tables) -> np.ndarray:
    """Binomial standard deviation of every cell's frequency; 0 in an exact table.

    A sampled cell's ``p`` is clipped to ``[1/(N+1), N/(N+1)]``: a count of 0 or
    ``N`` says that ``p`` is near the edge, not that the cell has no noise.
    """
    shots = np.array([np.inf if t.is_exact else t.shots for t in tables], dtype=float)
    edge = (1.0 / (shots + 1.0))[:, None, None]  # 0 for an exact table
    p = np.clip(np.stack([t.entries for t in tables]), edge, 1.0 - edge)
    return np.sqrt(p * (1.0 - p) / shots[:, None, None])


def _inverses(entries: np.ndarray, regular) -> np.ndarray:
    """Inverse of each ``regular`` table of a stack, and NaN in place of the others."""
    out = np.full_like(entries, np.nan)
    out[regular] = np.linalg.inv(entries[regular])
    return out


def _linear_size(inverse: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """``||P^-1||_F ||sd(P)||_F`` of a table or a stack of tables, given their inverses
    (NaN for a singular table, whose size is inf) and cell standard deviations.

    It bounds ``||P^-1||_2 ||sd(P)||_F``, which the delta method needs below
    ``LINEAR_NULL_LIMIT``, from above and within a factor ``sqrt(n)``, and needs
    no SVD.  Reports give it as ``details["noise_amplification"]``.
    """
    with np.errstate(invalid="ignore"):  # an overflowed inverse times zero sd
        size = np.linalg.norm(inverse, axis=(-2, -1)) * np.linalg.norm(sd, axis=(-2, -1))
    return np.where(np.isnan(size), np.inf, size)


def _delta_null(tables, stats, sigma, shared, resamples: int, seed: int):
    """Delta-method null ``(order, draw)`` of the cyclic test's ``stats``.

    Draw ``b`` of member ``j`` is ``stats[j] + sigma[j] z[j, b] + shared[j] . e[:, b]``
    with standard normals ``z`` and ``e``: ``sigma[j]`` is the member's own
    shot-noise sd, and ``e`` (one normal per column of ``shared``) moves the
    reference table that every member shares.  All come from one substream
    keyed on ``(seed, "null", "CyclicFid")``: ``e`` first, then one row of
    ``z`` per member in label order, so a member's draws do not depend on its
    place in the list.  ``order`` is label order.
    """
    # looked up on the module, as every other substream is, so that perfbench's
    # traced runs (which wrap ctxdep.experiment.substream) count this one too
    gen = experiment.substream(seed, "null", "CyclicFid")
    common = gen.standard_normal((shared.shape[1], resamples))
    # one row at a time: a block-wide shared[idx] @ common rounds differently
    return (sorted(range(len(tables)), key=lambda j: tables[j].label),
            lambda j: gen.standard_normal(resamples) * sigma[j] + stats[j] + shared[j] @ common)


def _spread_report(kind, tables, stats, null, method: str, resamples: int, summary: dict,
                   details: dict) -> TestReport:
    """Report of an invariant that must agree across a family's members.

    The statistic is the max-min spread of the finite ``stats``, judged
    against the ``EXACT_SPREAD_TOL`` floor for exact tables (``null`` is
    ``None``) and otherwise against the null that ``method`` made, a pair
    ``(order, draw)``: ``draw(j)`` gives member ``j``'s ``resamples`` draws,
    made in ``order`` and held in blocks of ``NULL_BLOCK_BYTES``.  Each block
    gives its members' 95% intervals; its draws, centred per member to remove
    the observed member-to-member signal, update the running max and min over
    members of every draw, whose difference is the null spread.  Method
    ``none`` draws nothing: its thresholds and intervals are NaN.  A null that
    stays at the floor has no width (single-shot 0/1 frequencies have no
    binomial variance) and supports no verdict; nor does one finite member,
    whose spread is 0 whatever the device does.
    """
    ci = (None, None)
    if method == "none":
        thresholds = (math.nan, math.nan)
        nan = np.full(len(tables), math.nan)
        ci = (nan, nan)
        details["null"] = _null_details(method, 0, 0, len(tables))
    elif null is None:
        thresholds = (EXACT_SPREAD_TOL, EXACT_SPREAD_TOL)
    else:
        order, draw = null
        low, high = np.empty(len(tables)), np.empty(len(tables))
        top, bottom, non_finite = -np.inf, np.inf, 0
        per_block = max(1, NULL_BLOCK_BYTES // (8 * resamples))  # whole members
        for start in range(0, len(order), per_block):
            idx = order[start:start + per_block]
            block = np.empty((len(idx), resamples))
            for row, j in zip(block, idx):
                row[:] = draw(j)
            low[idx], high[idx], count = _null_ci(block)
            non_finite += count
            # non-finite draws give NaN thresholds, which _verdict reports
            with np.errstate(invalid="ignore"):
                block -= block.mean(axis=1, keepdims=True)
                top = np.maximum(top, block.max(axis=0))
                bottom = np.minimum(bottom, block.min(axis=0))
        with np.errstate(invalid="ignore"):
            q95, q99 = _percentiles(top - bottom, [95.0, 99.0])
        ci = (low, high)
        details["null"] = _null_details(method, resamples, non_finite, len(tables))
        thresholds = (max(float(q95), EXACT_SPREAD_TOL), max(float(q99), EXACT_SPREAD_TOL))
        if thresholds[1] <= EXACT_SPREAD_TOL:
            reason = f"zero-width {method} null: 99% quantile <= {EXACT_SPREAD_TOL:g}"
            details.setdefault("inconclusive_reason", reason)
    finite = stats[np.isfinite(stats)]
    if finite.size == 1 and np.isfinite(thresholds).all():
        reason = f"spread needs 2 or more finite members: 1 of {len(stats)} finite"
        details.setdefault("inconclusive_reason", reason)
    spread = float(np.ptp(finite)) if finite.size else math.nan
    summary.update(spread=spread, mean=float(finite.mean()) if finite.size else math.nan)
    return _report(kind, tables, stats, spread, thresholds, ci, summary, details)


def det_permutation_test(
    tables: list[ProbabilityTable],
    resamples: int = 500,
    seed: int = 0,
) -> TestReport:
    """Permutation-invariance test of ``L_k = log|det P(S_k)|``.

    The verdict needs no calibration: rearranging a gate multiset cannot
    change the determinant of the table if every instruction always performs
    the same operation.  The statistics are also reported shifted into
    raw-estimate units by the constant ``IDEAL_SPAM_LOG_DET``.  The
    finite-shot null is the parametric bootstrap's.
    """
    _check_resamples(resamples)
    details: dict = {}
    l_values, null = _log_dets(tables, resamples, seed, details)
    singular = [t.label for t, v in zip(tables, l_values) if not np.isfinite(v)]
    if singular:
        _log(__name__, _WARNING, "singular tables flagged: %s", ", ".join(singular))
    summary: dict = {"n_singular": len(singular)}
    details["singular_members"] = singular
    summary["raw_units_offset"] = -IDEAL_SPAM_LOG_DET
    details["raw_statistics"] = l_values - IDEAL_SPAM_LOG_DET
    return _spread_report("PermDet", tables, l_values, null, "bootstrap", resamples, summary,
                          details)


def _fidelities_observed(entries, p0_entries: np.ndarray, r_max: int) -> np.ndarray:
    """Observed-statistic fidelities of a stack (or list) of tables, in extended precision.

    One solve of ``P0^T M_j^T = P_j^T`` covers all members; column block
    ``j`` of the solution is ``M_j^T``.  Large SPAM errors can drive the
    reference table's condition number to ~1e6 while the invariants must
    still be reproduced to 1e-9, so the double-precision solve is refined
    once with a residual taken in ``longdouble`` (Moler, J. ACM 14(2), 1967).
    Where ``longdouble`` is double this gives plain double accuracy.
    """
    p0_t = np.asarray(p0_entries, dtype=float).T
    n = p0_t.shape[0]
    rhs = np.asarray(entries, dtype=float).transpose(2, 0, 1).reshape(n, -1)  # block j: P_j^T
    x = np.linalg.solve(p0_t, rhs).astype(np.longdouble)
    x += np.linalg.solve(p0_t, (rhs - p0_t.astype(np.longdouble) @ x).astype(float))
    m = x.reshape(n, -1, n).transpose(1, 2, 0)
    return trace_powers(m, r_max).astype(float) / n


def _cyclic_gradients(entries: np.ndarray, p0_inv: np.ndarray, r: int):
    """Gradients of ``F_j = Tr(M_j^r) / n``, ``M_j = P_j P0^-1``, for a stack of ``P_j``.

    Returns ``dF_j/dP_j`` and ``dF_j/dP0``, each shaped like a table:
    ``(r/n) (P0^-1 M_j^(r-1))^T`` and ``-(r/n) (P0^-1 M_j^r)^T``.
    """
    n = p0_inv.shape[0]
    m = entries @ p0_inv
    a = p0_inv @ np.linalg.matrix_power(m, r - 1)
    return (r / n) * np.swapaxes(a, -1, -2), -(r / n) * np.swapaxes(a @ m, -1, -2)


def _cyclic_bootstrap(tables, p0, r: int, resamples: int, seed: int, details: dict):
    """Null ``(order, draw)`` of order-``r`` fidelities of resampled members and reference.

    One inverse per reference draw, shared by every member; a singular draw
    has none and leaves NaN statistics, which ``_verdict`` reports.  ``order``
    is table order.
    """
    p0_draws = resample_cells(p0, resamples, seed)
    regular = np.isfinite(log_abs_det_many(p0_draws))
    p0_inv = _inverses(p0_draws, regular)
    if not regular.all():
        details["inconclusive_reason"] = "singular reference draws: " + ", ".join(
            map(str, np.flatnonzero(~regular))
        )
    n = p0.entries.shape[0]
    return range(len(tables)), lambda j: trace_powers(
        resample_cells(tables[j], resamples, seed) @ p0_inv, r)[:, r - 1] / n


def cyclic_fidelity_test(
    tables: list[ProbabilityTable],
    p0: ProbabilityTable,
    r: int = 2,
    resamples: int = 500,
    seed: int = 0,
) -> TestReport:
    """Cyclic-invariance test of the power traces of ``P(S) P0^{-1}``.

    Rotating a sequence cannot change the spectrum of the associated map, so
    the normalized power traces ``F^(r)`` must agree across all rotations.
    All orders ``r = 1..n`` are reported; the verdict is based on the
    requested order.  A reference whose 2-norm condition number exceeds
    ``CONDITION_LIMIT`` cannot be inverted: an exact one raises
    :class:`SingularReference`, and a sampled one makes the result
    Inconclusive, with no null (method ``none``).  ``details`` reports the
    reference's 1-norm condition number, ``kappa_1``, which needs one LU
    inverse; ``kappa_2`` lies in ``[kappa_1 / n, n kappa_1]``, so only a
    ``kappa_1`` within that factor of the limit takes ``kappa_2`` through the SVD.

    The finite-shot null is the delta method's.  With ``M_j = P_j P0^-1``,
    ``dF_j = (r/n) [tr(P0^-1 M_j^(r-1) dP_j) - tr(P0^-1 M_j^r dP0)]``: the
    ``dP_j`` terms are independent across members, and the ``dP0`` term,
    shared by all of them, is drawn once per null draw.  A sampled reference
    whose shot noise reaches ``LINEAR_NULL_LIMIT`` gets the parametric
    bootstrap instead (see :func:`_cyclic_bootstrap`); the Frobenius bound of
    :func:`_linear_size` settles that rule, and is reported as
    ``details["noise_amplification"]``.
    """
    _check_resamples(resamples)
    p0_entries = np.asarray(p0.entries, dtype=float)
    n = p0_entries.shape[0]
    # the one inverse of the reference serves its condition and its noise size
    p0_inv = _inverses(p0_entries, np.isfinite(log_abs_det(p0_entries)))
    cond = float(_cond(p0_entries, p0_inv))
    # kappa_1 / n <= kappa_2 <= n kappa_1
    cond2 = _two_norm_or_bound(cond / n, cond * n, CONDITION_LIMIT,
                               lambda: np.linalg.cond(p0_entries))
    ill = None if cond2 <= CONDITION_LIMIT else (  # also for a NaN condition number
        # the larger of the two: each exceeds the limit where the other may not
        f"reference table condition number {max(cond, cond2):.2e} exceeds {CONDITION_LIMIT:.0e}"
    )
    if ill and p0.is_exact:
        raise SingularReference(ill)
    if not 1 <= r <= n:
        raise ValueError(f"r must lie in 1..{n}")

    details: dict = {"reference_condition": cond}
    sampled = not (p0.is_exact and all(t.is_exact for t in tables))
    if sampled:
        sd0 = _cell_sd([p0])[0]
        size = float(_linear_size(p0_inv, sd0))
        details["noise_amplification"] = size
    null, method = None, "delta"
    if ill:  # a sampled reference gives no statistic, observed or null
        details["inconclusive_reason"] = ill
        fid_all = np.full((len(tables), n), np.nan)
        method = "none"
    else:
        entries = np.stack([t.entries for t in tables])
        fid_all = _fidelities_observed(entries, p0_entries, n)
        # ||P0^-1||_2 <= ||P0^-1||_F <= sqrt(n) ||P0^-1||_2
        if sampled and _two_norm_or_bound(
                size / math.sqrt(n), size, LINEAR_NULL_LIMIT,
                lambda: np.linalg.norm(p0_inv, 2) * np.linalg.norm(sd0)) >= LINEAR_NULL_LIMIT:
            method = "bootstrap"
            null = _cyclic_bootstrap(tables, p0, r, resamples, seed, details)
        elif sampled:
            grad, grad_ref = _cyclic_gradients(entries, p0_inv, r)
            sigma = np.sqrt(np.sum(grad**2 * _cell_sd(tables) ** 2, axis=(-2, -1)))
            shared = (grad_ref * sd0).reshape(len(tables), -1)
            null = _delta_null(tables, fid_all[:, r - 1], sigma, shared, resamples, seed)
    details["fidelity_by_order"] = {str(k + 1): fid_all[:, k] for k in range(n)}
    details["spread_by_order"] = {str(k + 1): float(np.ptp(fid_all[:, k])) for k in range(n)}
    summary = {"order": r, "reference": p0.label}
    return _spread_report("CyclicFid", tables, fid_all[:, r - 1], null, method, resamples,
                          summary, details)


def _weighted_line_fit(x: np.ndarray, y: np.ndarray, weights: np.ndarray):
    """Weighted least-squares line fit; returns slope, intercept, residuals, chi2.

    The closed form about the weighted means of ``x`` and ``y``, which needs no
    SVD; centring ``y`` too keeps the slope exact to rounding when the weights
    span many decades.  A 2-D ``y`` holds one series per column, and every
    column is fitted at once.
    """
    w = weights / weights.sum()
    x_mean, y_mean = w @ x, w @ y
    dx = x - x_mean
    slope = (w * dx) @ (y - y_mean) / (w @ dx**2)
    intercept = y_mean - slope * x_mean
    residuals = y - np.multiply.outer(x, slope) - intercept
    chi2 = weights @ residuals**2
    return slope, intercept, residuals, chi2


def repetition_test(
    tables: list[ProbabilityTable],
    m_values,
    resamples: int = 500,
    seed: int = 0,
) -> TestReport:
    """Linearity test of ``L_m = log|det P(m)| - IDEAL_SPAM_LOG_DET`` against the count ``m``.

    A context-independent repeated block makes ``L_m`` exactly affine in
    ``m``: the slope estimates ``log|det G_block|`` and the intercept the SPAM
    contribution.  Curvature beyond the shot-noise scale is evidence of
    context dependence.
    """
    _check_resamples(resamples)
    m_values = np.asarray(list(m_values), dtype=float)
    if len(tables) != len(m_values):
        raise ValueError("one table per m value required")
    if len(m_values) < 4:
        raise ValueError("need at least 4 repetition counts to judge linearity")

    labels = [t.label for t in tables]
    details: dict = {"m_values": m_values}
    l_values, null = _log_dets(tables, resamples, seed, details)
    boots = None
    if null is not None:
        order, draw = null
        boots = np.array([draw(j) for j in order])
    l_values = l_values - IDEAL_SPAM_LOG_DET
    good = np.isfinite(l_values)
    if not good.all():
        _log(__name__, _WARNING, "excluding singular members from fit: %s",
             ", ".join(details["excluded_condition"]))

    ci_low = ci_high = None
    if boots is None:
        weights = np.ones(good.sum())
    else:
        boots -= IDEAL_SPAM_LOG_DET
        # -inf draws give a NaN sigma.  Draws that all equal the table have
        # zero sigma, which std() can miss by a rounding error in the mean.
        # Either weight is non-finite, handled below.
        with np.errstate(invalid="ignore", divide="ignore"):
            sigma = boots[good].std(axis=1, ddof=1)
            weights = np.where(np.ptp(boots[good], axis=1) == 0, np.inf, 1.0 / sigma**2)
        ci_low, ci_high, non_finite = _null_ci(boots)
        details["null"] = _null_details("bootstrap", resamples, non_finite, len(tables))

    x, y = m_values[good], l_values[good]
    unweighted = [lbl for lbl, w in zip(np.array(labels)[good], weights) if not np.isfinite(w)]
    p_value = None
    if unweighted or len(x) < 3:
        # no weighted fit or null can be formed from a NaN or infinite weight,
        # and a line through 2 points or fewer fits them exactly
        details["inconclusive_reason"] = (
            "non-finite bootstrap weight for " + ", ".join(unweighted) if unweighted
            else f"line fit has no residual degrees of freedom: {len(x)} of {len(tables)} "
            "members finite"
        )
        slope = intercept = residual_norm = chi2 = slope_stderr = math.nan
        statistic_for_threshold = thr95 = thr99 = math.nan
    else:
        slope, intercept, residuals, chi2 = _weighted_line_fit(x, y, weights)
        slope, intercept, chi2 = float(slope), float(intercept), float(chi2)
        residual_norm = float(np.linalg.norm(residuals))
        if boots is None:
            thr95 = thr99 = LINEAR_RESIDUAL_TOL
            slope_stderr = 0.0
            statistic_for_threshold = residual_norm
        else:
            # null series b: the fitted line plus centered draw b, all in one fit
            fitted = (slope * x + intercept)[:, None]
            centered = boots[good] - boots[good].mean(axis=1, keepdims=True)
            null_slopes, _, _, null_chi2 = _weighted_line_fit(x, fitted + centered, weights)
            thr95, thr99 = _percentiles(null_chi2, [95.0, 99.0])
            # Monte Carlo p-value: the observed fit counts as one more draw
            # (Davison & Hinkley 1997, sec. 4.2), so it never reads 0
            p_value = float((1 + np.count_nonzero(null_chi2 >= chi2)) / (null_chi2.size + 1))
            slope_stderr = float(np.std(null_slopes, ddof=1))
            statistic_for_threshold = chi2

    details["observed_statistic"] = statistic_for_threshold
    try:
        volume_ratio = math.exp(slope)
    except OverflowError:  # a fit rising past the float range
        volume_ratio = math.inf
    summary = {
        "slope": slope,
        "intercept": intercept,
        "slope_stderr": slope_stderr,
        "residual_norm": residual_norm,
        "chi2": chi2,
        "p_value": p_value,
        "n_excluded": int((~good).sum()),
        "volume_ratio": volume_ratio,
        "unitarity_tilde": volume_ratio ** (2.0 / (tables[0].entries.shape[0] - 1)),
    }
    return _report("RepLinearity", tables, l_values, statistic_for_threshold, (thr95, thr99),
                   (ci_low, ci_high), summary, details)


def unitarity_u(ptm: np.ndarray) -> float:
    """Average-purity unitarity ``Tr(W^T W) / (d^2 - 1)``.

    ``W`` is the unital block of the transfer matrix (first row and column
    removed); the input must be in trace-preserving form.
    """
    g = np.asarray(ptm, dtype=float)
    first = np.zeros(g.shape[1])
    first[0] = 1.0
    if np.max(np.abs(g[0] - first)) > TRACE_PRESERVING_TOL:
        raise NotTracePreserving("first row must be (1, 0, ..., 0)")
    w = g[1:, 1:]
    return float(np.trace(w.T @ w) / (g.shape[0] - 1))


def unitarity_tilde(ptm: np.ndarray) -> float:
    """Determinant-based unitarity ``|det G|^(2/(d^2-1))``; 0 for singular G.

    Unlike the average-purity measure this one multiplies under composition,
    so it can never grow when more operations are appended.
    """
    g = np.asarray(ptm, dtype=float)
    lad = log_abs_det(g)
    if not np.isfinite(lad):
        return 0.0
    return float(np.exp(2.0 * lad / (g.shape[0] - 1)))


def accessible_volume(p: ProbabilityTable, p0: ProbabilityTable) -> float:
    """State-space volume ratio ``|det P| / |det P0|``.

    Equals ``|det S|`` of the intervening process when the gates are
    context-independent; computed in the log domain.
    """
    l0 = log_abs_det(p0.entries)
    if not np.isfinite(l0):
        raise SingularReference("reference table is singular")
    return float(np.exp(log_abs_det(p.entries) - l0))


def cp_witness(m_values, l_values, ci_low=None, ci_high=None) -> TestReport:
    """Divisibility witness: ``log|det|`` may never rise along a process.

    Any significant increase of the series means the overall evolution cannot
    be divided into completely positive pieces, assuming the SPAM operations
    themselves are not significantly context-dependent (recorded as a caveat).
    A rise between adjacent finite members is significant when it exceeds
    ``EXACT_SPREAD_TOL`` or, given confidence intervals, when they do not
    overlap.  An interval of zero width (every resample reproduced its table,
    as single-shot 0/1 frequencies do) cannot tell a rise from shot noise,
    and a non-finite bound of a finite member (-inf draws) cannot be compared,
    so either makes the result Inconclusive; so does a series with no two
    adjacent finite members, which has nothing to compare.
    ``summary.cp_indivisible`` is true exactly when the verdict is
    ContextDependent; the rises found are listed in ``details.increases``
    whatever the verdict.
    """
    m_values = np.asarray(list(m_values), dtype=float)
    l_values = np.asarray(l_values, dtype=float)
    if len(m_values) < 2:
        raise ValueError("need at least 2 points")
    if (ci_low is None) != (ci_high is None):
        raise ValueError("give both interval bounds or neither")
    if any(len(v) != len(m_values) for v in (l_values, ci_low, ci_high) if v is not None):
        raise ValueError("one log-det and interval bound per m value required")
    finite = np.isfinite(l_values)
    pairs = np.flatnonzero(finite[:-1] & finite[1:])  # j with members j and j + 1 finite
    rise = l_values[pairs + 1] - l_values[pairs]
    if ci_low is None:
        significant = rise > EXACT_SPREAD_TOL
    else:
        ci_low, ci_high = np.asarray(ci_low), np.asarray(ci_high)
        significant = (rise > 0) & (ci_low[pairs + 1] > ci_high[pairs])
    increases = [{"m_from": float(m_values[j]), "m_to": float(m_values[j + 1]), "rise": float(up)}
                 for j, up in zip(pairs[significant], rise[significant])]
    labels = [f"m={int(m)}" for m in m_values]
    details = {"m_values": m_values, "increases": increases}
    if ci_low is not None:
        zero_width = [lbl for lbl, lo, hi in zip(labels, ci_low, ci_high) if lo == hi]
        if zero_width:
            details["inconclusive_reason"] = "zero-width interval for " + ", ".join(zero_width)
        unbounded = finite & ~(np.isfinite(ci_low) & np.isfinite(ci_high))
        if unbounded.any():
            details.setdefault("inconclusive_reason", "non-finite interval for "
                               + ", ".join(np.array(labels)[unbounded]))
    if not pairs.size:
        details.setdefault("inconclusive_reason", "no two adjacent members have finite log-dets")
    # any rise is significant; floats, as np.isfinite of an int pages in ~0.1 MB more
    verdict = _verdict(float(len(increases)), 0.0, 0.0, details)
    summary = {
        "n_increases": len(increases),
        "max_rise": max((f["rise"] for f in increases), default=0.0),
        "cp_indivisible": verdict is Verdict.CONTEXT_DEPENDENT,
        "caveat": "assumes SPAM operations are not significantly context-dependent",
    }
    return TestReport(
        "CPWitness", labels, l_values, verdict, EXACT_SPREAD_TOL, summary, ci_low, ci_high, details
    )


def bootstrap_ci(
    statistic,
    table: ProbabilityTable,
    resamples: int = 500,
    seed: int = 0,
) -> tuple[float, float]:
    """Parametric-bootstrap 95% interval for a statistic of one table.

    Each resample redraws every cell from a binomial at the observed
    frequency; the interval is :func:`_null_ci`'s [2.5%, 97.5%] range, so
    ``-inf`` draws can give a NaN bound.  Exact tables yield a degenerate
    interval at the exact value.
    """
    _check_resamples(resamples)
    if table.is_exact:
        value = float(statistic(table))
        return value, value
    draws = resample_cells(table, resamples, seed, tag="ci")
    values = np.array(
        [
            statistic(ProbabilityTable(entries=draws[b], shots=table.shots, label=table.label))
            for b in range(resamples)
        ]
    )
    lo, hi, _ = _null_ci(values)
    return float(lo), float(hi)
