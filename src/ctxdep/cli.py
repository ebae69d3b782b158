"""Config-driven scenario runner.

Usage:

    ctxdep run --config run.cfg [--scenario fig2a] [--shots N|exact]
               [--seed S] [--out DIR]
    ctxdep validate --config run.cfg

The config is flat ``key = value`` text; see the README for the grammar and
the full key list.  Outputs per coupling angle: raw tables (CSV), one JSON
report per test, and a plot-ready CSV per test.  Exit status is 2 when any
test returns a ContextDependent verdict, 1 on errors, and 0 otherwise, also
when some verdicts are Inconclusive.  ``CTXDEP_LOG=info`` logs each coupling
angle's stage wall times; ``debug`` also names the product path each family
took.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
import threading
import time
from typing import TYPE_CHECKING

from .config import (  # also re-exported: `from ctxdep.cli import parse_config` works
    SCENARIOS,
    ConfigError,
    RunConfig,
    _phi_dir_name,
    load_config,
    parse_config,
    parse_gate_string,
    parse_gate_token,
    set_key,
    validate,
)
from .gates import GATE_IDLE, GATE_X_HALF, GATE_X_MINUS_HALF, GATE_X_PI, GATE_Y_PI

if TYPE_CHECKING:
    from . import analysis, experiment
    from .noise import NoiseParams, TwoQubitModel

__all__ = ["RunConfig", "parse_config", "load_config", "validate", "run_scenario", "main"]

logger = logging.getLogger(__name__)

# Display grids for the repetition scenarios (composite blocks double the
# per-member gate count, hence the shorter grid).
FIG3A_M_VALUES = tuple(range(0, 501, 50))
FIG3B_M_VALUES = tuple(range(0, 251, 25))


def _build_families(cfg: RunConfig) -> list[experiment.SequenceFamily]:
    from . import experiment

    if cfg.scenario == "fig2a":
        return [experiment.permutation_family(GATE_IDLE, GATE_X_PI, 250)]
    if cfg.scenario == "fig2b":
        base = experiment.Sequence(
            gates=(GATE_X_PI,) + (GATE_IDLE,) * 500, label="X_pi_I500"
        )
        return [experiment.cyclic_family(base)]
    if cfg.scenario == "fig3a":
        return [experiment.repetition_family([GATE_IDLE], FIG3A_M_VALUES)]
    if cfg.scenario == "fig3b":
        return [
            experiment.repetition_family(block, FIG3B_M_VALUES) for block in FIG3B_BLOCKS
        ]
    if cfg.family == "permutation":
        return [experiment.permutation_family(cfg.gates[0], cfg.gates[1], cfg.n)]
    if cfg.family == "cyclic":
        label = "".join(g.label for g in cfg.gates)
        return [experiment.cyclic_family(experiment.Sequence(cfg.gates, label))]
    return [experiment.repetition_family(list(cfg.gates), cfg.m_values)]


FIG3B_BLOCKS = ((GATE_X_PI,), (GATE_X_PI, GATE_Y_PI), (GATE_X_MINUS_HALF, GATE_X_HALF))


def _sanitize(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", label)


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:  # there is none when open itself failed
            pass
        raise


def _emit_tables(tables, out_dir: str) -> None:
    from .experiment import _table_csv_text

    os.makedirs(out_dir, exist_ok=True)
    for t in tables:
        path = os.path.join(out_dir, _sanitize(t.label) + ".csv")
        _write_atomic(path, _table_csv_text(t))


def _emit_report(report: analysis.TestReport, path: str) -> None:
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)
    _write_atomic(path, text + "\n")


def _emit_plot_csv(report: analysis.TestReport, phi: float, path: str, x_values=None) -> None:
    lines = ["index,statistic,ci_low,ci_high,phi"]
    xs = x_values if x_values is not None else range(len(report.member_labels))
    for j, x in enumerate(xs):
        lo = report.ci_low[j] if report.ci_low is not None else report.statistics[j]
        hi = report.ci_high[j] if report.ci_high is not None else report.statistics[j]
        lines.append(
            f"{x},{float(report.statistics[j])!r},{float(lo)!r},{float(hi)!r},{phi!r}"
        )
    _write_atomic(path, "\n".join(lines) + "\n")


def _reference_table(cfg: RunConfig, model) -> experiment.ProbabilityTable:
    from . import experiment

    ref_seq = experiment.Sequence(gates=cfg.reference, label="reference")
    table = experiment.prob_table(ref_seq, model)
    if cfg.shots is not None:
        table = experiment.sample_table(table, cfg.shots, cfg.seed)
    return table


def _volume_report(report: analysis.TestReport) -> analysis.TestReport:
    """Accessible-volume series of a repetition family's log-dets.

    Volumes are relative to the first member with a finite log-det, named
    in ``summary.normalized_to``; with none, that is null and every volume
    NaN.  Descriptive output, not a hypothesis test, so it carries no
    verdict or threshold.
    """
    import numpy as np

    from .analysis import TestReport

    ref = next((j for j, value in enumerate(report.statistics) if np.isfinite(value)), None)
    l0 = np.nan if ref is None else report.statistics[ref]
    return TestReport(
        kind="Volume",
        member_labels=report.member_labels,
        statistics=np.exp(report.statistics - l0),
        verdict=None,
        threshold=None,
        summary={"normalized_to": None if ref is None else report.member_labels[ref]},
    )


def _family_reports(cfg: RunConfig, family, tables, p0, cal):
    """Run the family's tests; return ``(artifact name, report, has plot)`` triples."""
    from . import analysis

    if family.kind == "permutation":
        report = analysis.det_permutation_test(
            tables, cal, resamples=cfg.bootstrap_resamples, seed=cfg.seed
        )
        return [("permdet", report, True)]
    if family.kind == "cyclic":
        report = analysis.cyclic_fidelity_test(
            tables,
            p0,
            r=cfg.cyclic_order,
            resamples=cfg.bootstrap_resamples,
            seed=cfg.seed,
        )
        return [("cyclicfid", report, True)]
    suffix = _sanitize(family.description.strip("()^m"))
    report = analysis.repetition_test(
        tables,
        family.m_values,
        cal,
        resamples=cfg.bootstrap_resamples,
        seed=cfg.seed,
    )
    witness = analysis.cp_witness(
        family.m_values, report.statistics, report.ci_low, report.ci_high
    )
    return [
        (f"replinearity_{suffix}", report, True),
        (f"cpwitness_{suffix}", witness, False),
        (f"volume_{suffix}", _volume_report(report), True),
    ]


def _emit_reports(family, outputs, phi, out_dir) -> None:
    """Write one family's reports and plot CSVs under ``out_dir``."""
    for name, report, plotted in outputs:
        _emit_report(report, os.path.join(out_dir, f"report_{name}.json"))
        if plotted:
            path = os.path.join(out_dir, f"plot_{name}.csv")
            _emit_plot_csv(report, phi, path, x_values=family.m_values)


class _Writer:
    """One background thread that writes artifact files in the order they are queued.

    File creation is mostly kernel time, so the files overlap the run's
    computation.  The first failing job stops every later job;
    :meth:`check` re-raises its exception in the calling thread.  The
    writer calls no name that ``perfbench/trace_child.py`` wraps: the
    tracer's span stack belongs to the main thread.
    """

    def __init__(self) -> None:
        import queue  # loaded on the run path only: `validate` starts no writer

        self._jobs = queue.SimpleQueue()
        self._error: BaseException | None = None
        self._emit_s = 0.0  # busy time on the current phi's files; writer thread only
        self._thread = threading.Thread(target=self._drain, name="ctxdep-writer")
        self._thread.start()

    def write(self, fn, *args) -> None:
        """Queue ``fn(*args)``, a job that writes files; its time counts as emit."""
        self._jobs.put((self._write, fn, args))

    def log_stages(self, phi: float, stage_s: dict) -> None:
        """Queue the INFO lines of ``phi``'s stage times, after its last file."""
        self._jobs.put((self._log_stages, phi, stage_s))

    def check(self) -> None:
        """Raise the first job's exception, if one failed."""
        if self._error is not None:
            raise self._error

    def close(self) -> None:
        """Let the queued jobs finish, then join the thread."""
        self._jobs.put(None)
        self._thread.join()

    def _drain(self) -> None:
        while (job := self._jobs.get()) is not None:
            if self._error is None:
                method, *args = job
                try:
                    method(*args)
                except BaseException as exc:  # re-raised in the main thread by check()
                    self._error = exc

    def _write(self, fn, args) -> None:
        t0 = time.perf_counter()
        fn(*args)
        self._emit_s += time.perf_counter() - t0

    def _log_stages(self, phi: float, stage_s: dict) -> None:
        for stage, seconds in {**stage_s, "emit": self._emit_s}.items():
            logger.info("phi=%g %s: %.3f s", phi, stage, seconds)
        self._emit_s = 0.0


def _run_family(cfg: RunConfig, family, model, cal, phi, out_dir, stage_s: dict,
                writer: _Writer) -> list:
    """Tables and tests of one family under one model; ``writer`` writes the artifacts.

    The tables are queued before the tests run, the reports after them.
    Adds each stage's wall time to ``stage_s``; returns the reports that
    carry a verdict (descriptive ones, such as the volume series, do not).
    """
    from . import experiment

    t0 = time.perf_counter()
    tables = experiment.family_tables(family, model, shots=cfg.shots, seed=cfg.seed)
    p0 = _reference_table(cfg, model) if family.kind == "cyclic" else None
    t1 = time.perf_counter()
    writer.write(_emit_tables, tables if p0 is None else [*tables, p0],
                 os.path.join(out_dir, "tables"))
    outputs = _family_reports(cfg, family, tables, p0, cal)
    t2 = time.perf_counter()
    writer.write(_emit_reports, family, outputs, phi, out_dir)
    stage_s["tables"] += t1 - t0
    stage_s["tests"] += t2 - t1
    return [report for _, report, _ in outputs if report.verdict is not None]


def build_model(params: NoiseParams) -> TwoQubitModel:
    """:func:`ctxdep.noise.build_model`, which loads the numerical layers.

    The run loop looks this name up in this module when it calls it, so a
    wrapper set here sees every build (``perfbench/trace_child.py`` sets one).
    """
    from . import noise

    return noise.build_model(params)


def run_scenario(cfg: RunConfig) -> int:
    """Execute every (phi, family) job of the configured scenario.

    Returns the process exit status: 2 if any test flags context
    dependence, else 0 (``Inconclusive`` verdicts included).  Each phi's
    stage wall times are logged at level INFO.  Artifacts are written by a
    :class:`_Writer`, so a verdict may print before its phi's files exist;
    the call returns after the last file is written, and a write error is
    raised at the next phi or at the end.
    """
    from . import analysis

    cal = analysis.ideal_calibration()
    families = _build_families(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    any_dependent = False
    writer = _Writer()
    try:
        for phi in cfg.resolved_phi_values():
            writer.check()
            t0 = time.perf_counter()
            model = build_model(cfg.noise_params(phi))
            stage_s = {"model build": time.perf_counter() - t0, "tables": 0.0, "tests": 0.0}
            phi_dir = os.path.join(cfg.output_dir, _phi_dir_name(phi))
            os.makedirs(phi_dir, exist_ok=True)
            for family in families:
                for report in _run_family(cfg, family, model, cal, phi, phi_dir, stage_s,
                                          writer):
                    tag = f"phi={phi:g} {report.kind} [{family.description}]"
                    print(f"{tag}: {report.verdict.value}")
                    if report.verdict is analysis.Verdict.CONTEXT_DEPENDENT:
                        any_dependent = True
            writer.log_stages(phi, stage_s)
    finally:
        writer.close()
    writer.check()
    return 2 if any_dependent else 0


# (flag, config key): each flag overrides its key through the same table row
OVERRIDES = (("--scenario", "scenario"), ("--shots", "shots"), ("--seed", "seed"),
             ("--out", "output_dir"))


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxdep", description="context-dependence tests for gate sequences"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario and write artifacts")
    run_p.add_argument("--config", help="path to a flat key = value config file")
    for flag, key in OVERRIDES:
        run_p.add_argument(flag, dest=key, help=f"overrides the config key {key}")
    val_p = sub.add_parser("validate", help="parse and validate a config file")
    val_p.add_argument("--config", help="path to a flat key = value config file")
    return parser


def _apply_overrides(cfg: RunConfig, args) -> None:
    for flag, key in OVERRIDES:
        if getattr(args, key) is not None:
            set_key(cfg, key, getattr(args, key), flag)


def main(argv=None) -> int:
    # a level name maps to its number; any other value would make basicConfig raise
    level = logging.getLevelName(os.environ.get("CTXDEP_LOG", "WARNING").upper())
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args = _build_arg_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors exit 1; status 2 means ContextDependent
        return 0 if exc.code == 0 else 1
    try:
        cfg = load_config(args.config)
        if args.command == "run":
            _apply_overrides(cfg, args)
        validate(cfg)
        if args.command == "validate":
            print(f"ok: scenario={cfg.scenario} shots="
                  f"{'exact' if cfg.shots is None else cfg.shots} "
                  f"phi_values={list(cfg.resolved_phi_values())} seed={cfg.seed}")
            return 0
        return run_scenario(cfg)
    except (ConfigError, ValueError, OSError, ImportError) as exc:  # run without numpy
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
