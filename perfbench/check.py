"""Correctness checks on the artifacts of one ``ctxdep run``, and their self-test.

A run passes when all of these hold:

* the exit status is 2 (every workload has coupled phi values);
* each phi folder holds the expected number of tables;
* under the workload's primary test, phi = 0 is not ``ContextDependent``
  (``Inconclusive`` is allowed) and every coupled phi is; on sampled
  workloads a marginal contrary verdict is tolerated (see ``MARGIN``); the
  divisibility witness is not checked;
* on exact workloads every per-member statistic is within ``EXACT_TOL`` of
  the reference captured in ``reference/<workload>.json``;
* the report JSONs are byte-identical to those of the first run made with
  the same seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import Workload

EXPECTED_EXIT = 2
# The ctxdep exact-run numerical floor (analysis.EXACT_SPREAD_TOL).
EXACT_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# A 1%-level test raises false alarms at phi = 0, and misses the weakest
# coupling, on a few seeds in a hundred.  Over 1,000 seeds of the
# rep-sweep-shots scenario, phi = 0 was ContextDependent 12 times, at most
# 1.32x the 99% threshold, and phi = 0.002 was missed 17 times, at least 0.69x
# the threshold.  Contrary verdicts further than this factor from the
# threshold count as failures.
MARGIN = 2.0


def phi_dir(phi: float) -> str:
    """Folder name ctxdep gives a coupling angle."""
    return f"phi_{phi:g}"


def read_reports(out_dir: Path) -> dict[str, bytes]:
    """Every ``report_*.json`` under a run's output folder, keyed by relative path."""
    return {
        p.relative_to(out_dir).as_posix(): p.read_bytes()
        for p in sorted(out_dir.glob("phi_*/report_*.json"))
    }


def tree_digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every file a run wrote, keyed by relative path."""
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def member_statistics(reports: dict[str, bytes], kind: str) -> dict[str, dict[str, float]]:
    """Per-member statistics of every report of one kind, keyed by report path."""
    out = {}
    for path, raw in reports.items():
        doc = json.loads(raw)
        if doc["kind"] == kind:
            out[path] = {m["label"]: m["statistic"] for m in doc["members"]}
    return out


def load_reference(workload: Workload) -> dict[str, dict[str, float]]:
    return json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())


def check_exit(exit_code: int) -> list[str]:
    if exit_code != EXPECTED_EXIT:
        return [f"exit status {exit_code}, expected {EXPECTED_EXIT}"]
    return []


def check_tables(workload: Workload, out_dir: Path) -> list[str]:
    problems = []
    for phi in workload.phi_values:
        found = len(list((out_dir / phi_dir(phi) / "tables").glob("*.csv")))
        if found != workload.tables_per_phi:
            problems.append(f"{phi_dir(phi)}: {found} tables, expected {workload.tables_per_phi}")
    return problems


def _threshold_ratio(doc: dict) -> float:
    """The report's observed statistic as a multiple of its 99% threshold."""
    observed = doc["details"].get("observed_statistic", doc["summary"].get("spread"))
    return observed / doc["threshold"]


def check_verdicts(workload: Workload, reports: dict[str, bytes]) -> tuple[list[str], list[str]]:
    """Primary verdicts against the prediction; returns problems and tolerated verdicts.

    phi = 0 must not be ``ContextDependent`` and every coupled phi must be.
    On sampled workloads a contrary verdict whose statistic lies within a
    factor ``MARGIN`` of the 99% threshold is tolerated and reported instead.
    """
    problems, tolerated = [], []
    for phi in workload.phi_values:
        folder = phi_dir(phi) + "/"
        docs = [doc for doc in (json.loads(raw) for path, raw in reports.items()
                                if path.startswith(folder))
                if doc["kind"] == workload.primary_kind]
        if len(docs) != 1:
            problems.append(f"phi={phi:g}: {len(docs)} {workload.primary_kind} reports, expected 1")
            continue
        verdict = docs[0]["verdict"]
        if (verdict == "ContextDependent") == (phi != 0.0):
            continue
        ratio = _threshold_ratio(docs[0])
        note = (f"phi={phi:g}: {workload.primary_kind} is {verdict} "
                f"at {ratio:.3g}x its 99% threshold")
        if not workload.exact and 1 / MARGIN <= ratio <= MARGIN:
            tolerated.append(note)
        else:
            problems.append(note)
    return problems, tolerated


def check_reference(observed: dict[str, dict[str, float]],
                    reference: dict[str, dict[str, float]]) -> list[str]:
    if observed.keys() != reference.keys():
        return [f"reports {sorted(observed)} differ from reference {sorted(reference)}"]
    problems = []
    for path, ref_stats in reference.items():
        stats = observed[path]
        if stats.keys() != ref_stats.keys():
            problems.append(f"{path}: member labels differ from reference")
            continue
        worst = max(abs(stats[k] - v) for k, v in ref_stats.items())
        if not worst <= EXACT_TOL:
            problems.append(f"{path}: statistic off reference by {worst:.3e} > {EXACT_TOL:g}")
    return problems


def check_identical(reports: dict[str, bytes], first: dict[str, bytes]) -> list[str]:
    if reports.keys() != first.keys():
        return ["report files differ from the first run's"]
    changed = [path for path in reports if reports[path] != first[path]]
    if changed:
        return [f"{len(changed)} report(s) differ from the first run's: {changed[0]}"]
    return []


def check_run(workload: Workload, exit_code: int, out_dir: Path,
              first: dict[str, bytes] | None, reference
              ) -> tuple[list[str], list[str], dict[str, bytes]]:
    """All checks on one run; returns the problems, tolerated verdicts and reports."""
    reports = read_reports(out_dir)
    problems = check_exit(exit_code) + check_tables(workload, out_dir)
    tolerated: list[str] = []
    try:
        verdict_problems, tolerated = check_verdicts(workload, reports)
        problems += verdict_problems
        if workload.exact:
            problems += check_reference(member_statistics(reports, workload.primary_kind),
                                        reference)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        problems.append(f"unreadable report: {exc!r}")
    if first is not None:
        problems += check_identical(reports, first)
    return problems, tolerated, reports


def self_test(workload: Workload, reports: dict[str, bytes], reference) -> list[str]:
    """Feed the checks three faults built from a passing run; each must be caught.

    Returns a description of every fault that went undetected, so a gate
    that passes vacuously shows up as a failed self-test.
    """
    missed = []

    # A member statistic moved by more than the exact floor.
    ref = reference if workload.exact else member_statistics(reports, workload.primary_kind)
    path = sorted(ref)[0]
    label = sorted(ref[path])[0]
    perturbed = {p: dict(stats) for p, stats in ref.items()}
    perturbed[path][label] += 10 * EXACT_TOL
    if check_reference(ref, ref) or not check_reference(perturbed, ref):
        missed.append("statistic perturbed by 1e-8 not caught")

    # The primary verdict at the largest coupling flipped to independent.
    flip_path = next(p for p, raw in reports.items()
                     if p.startswith(phi_dir(max(workload.phi_values)) + "/")
                     and json.loads(raw)["kind"] == workload.primary_kind)
    flipped = dict(reports)
    doc = json.loads(flipped[flip_path])
    doc["verdict"] = "ContextIndependent"
    flipped[flip_path] = json.dumps(doc).encode()
    if check_verdicts(workload, reports)[0] or not check_verdicts(workload, flipped)[0]:
        missed.append("flipped verdict not caught")

    # A rerun whose report bytes differ.
    rerun = dict(reports)
    rerun[flip_path] = rerun[flip_path] + b" "
    if check_identical(reports, reports) or not check_identical(rerun, reports):
        missed.append("rerun with different bytes not caught")
    return missed
