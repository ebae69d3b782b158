"""Config-driven scenario runner.

Usage:

    ctxdep run --config run.cfg [--scenario fig2a] [--shots N|exact]
               [--seed S] [--out DIR]
    ctxdep validate --config run.cfg

The config is flat ``key = value`` text; see the README for the grammar and
the full key list.  Outputs per coupling angle: raw tables (CSV), one JSON
report per test, each with a verdict, and a plot-ready CSV per test but the
divisibility witness.  Exit status is 2 when any test returns a
ContextDependent verdict, 1 on errors, and 0 otherwise, also when some
verdicts are Inconclusive.  ``CTXDEP_LOG=info`` logs each coupling
angle's stage wall times; ``debug`` also names the product path each family
took.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import re
import sys
import threading
import time
from typing import TYPE_CHECKING

from .config import ConfigError, RunConfig, _phi_dir_name, load_config, set_key, validate

if TYPE_CHECKING:
    from . import analysis, experiment
    from .noise import NoiseParams, TwoQubitModel

__all__ = ["run_scenario", "main"]

logger = logging.getLogger(__name__)


def _sanitize(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", label)


@contextlib.contextmanager
def _replacing(path: str):
    """Yield ``<path>.tmp``; rename it to ``path`` if the block succeeds, else remove it."""
    tmp = path + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:  # there is none when the block failed before creating it
            pass
        raise


def _emit_tables(tables, out_dir: str) -> None:
    from .experiment import write_table_csv

    os.makedirs(out_dir, exist_ok=True)
    for t in tables:
        with _replacing(os.path.join(out_dir, _sanitize(t.label) + ".csv")) as tmp:
            write_table_csv(t, tmp)


def _reference_table(cfg: RunConfig, model) -> experiment.ProbabilityTable:
    from . import experiment

    ref_seq = experiment.Sequence(gates=cfg.reference, label="reference")
    table = experiment.prob_table(ref_seq, model)
    if cfg.shots is not None:
        table = experiment.sample_table(table, cfg.shots, cfg.seed)
    return table


def _family_reports(cfg: RunConfig, family, tables, p0, cal) -> list[analysis.TestReport]:
    """Run the family's tests; return their reports."""
    from . import analysis

    boot = {"resamples": cfg.bootstrap_resamples, "seed": cfg.seed}
    if family.kind == "permutation":
        return [analysis.det_permutation_test(tables, cal, **boot)]
    if family.kind == "cyclic":
        return [analysis.cyclic_fidelity_test(tables, p0, r=cfg.cyclic_order, **boot)]
    report = analysis.repetition_test(tables, family.m_values, cal, **boot)
    witness = analysis.cp_witness(family.m_values, report.statistics, report.ci_low, report.ci_high)
    return [report, witness]


def _emit_reports(family, reports, phi: float, out_dir: str) -> None:
    """Write each report's ``report_<kind>.json`` and, but for CPWitness, ``plot_<kind>.csv``.

    ``<kind>`` is the report's kind in lower case, plus ``_<block>`` for a
    repetition family, whose plots are indexed by ``m``.
    """
    repetition = family.m_values is not None
    suffix = "_" + _sanitize(family.description.strip("()^m")) if repetition else ""
    for report in reports:
        name = report.kind.lower() + suffix
        # streamed, so the whole JSON text is never held in memory
        with _replacing(os.path.join(out_dir, f"report_{name}.json")) as tmp, open(tmp, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        if report.kind == "CPWitness":
            continue
        stats = report.statistics
        lo = stats if report.ci_low is None else report.ci_low
        hi = stats if report.ci_high is None else report.ci_high
        xs = family.m_values if repetition else range(len(stats))
        lines = ["index,statistic,ci_low,ci_high,phi"]
        for j, x in enumerate(xs):
            lines.append(f"{x},{float(stats[j])!r},{float(lo[j])!r},{float(hi[j])!r},{phi!r}")
        with _replacing(os.path.join(out_dir, f"plot_{name}.csv")) as tmp, open(tmp, "w") as fh:
            fh.write("\n".join(lines) + "\n")


class _Writer:
    """One background thread that runs queued jobs in order: artifact writes and stage logs.

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
        self.busy_s = 0.0  # time in jobs since _log_stages reset it; writer thread only
        self._thread = threading.Thread(target=self._drain, name="ctxdep-writer")
        self._thread.start()

    def write(self, fn, *args) -> None:
        """Queue ``fn(*args)``; its run time adds to :attr:`busy_s`."""
        self._jobs.put((fn, args))

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
                fn, args = job
                t0 = time.perf_counter()
                try:
                    fn(*args)
                except BaseException as exc:  # re-raised in the main thread by check()
                    self._error = exc
                self.busy_s += time.perf_counter() - t0


def _log_stages(writer: _Writer, phi: float, stage_s: dict) -> None:
    """Log ``phi``'s stage times at INFO; queued after its files, ``emit`` is their write time."""
    for stage, seconds in {**stage_s, "emit": writer.busy_s}.items():
        logger.info("phi=%g %s: %.3f s", phi, stage, seconds)
    writer.busy_s = 0.0


def _run_family(cfg: RunConfig, family, model, cal, phi, out_dir, stage_s: dict,
                writer: _Writer) -> list:
    """Tables and tests of one family under one model; ``writer`` writes the artifacts.

    The tables are queued before the tests run, the reports after them.
    Adds each stage's wall time to ``stage_s``; returns the reports.
    """
    from . import experiment

    t0 = time.perf_counter()
    tables = experiment.family_tables(family, model, shots=cfg.shots, seed=cfg.seed)
    p0 = _reference_table(cfg, model) if family.kind == "cyclic" else None
    t1 = time.perf_counter()
    writer.write(_emit_tables, tables if p0 is None else [*tables, p0],
                 os.path.join(out_dir, "tables"))
    reports = _family_reports(cfg, family, tables, p0, cal)
    t2 = time.perf_counter()
    writer.write(_emit_reports, family, reports, phi, out_dir)
    stage_s["tables"] += t1 - t0
    stage_s["tests"] += t2 - t1
    return reports


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
    families = cfg.families()
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
            writer.write(_log_stages, writer, phi, stage_s)
    finally:
        writer.close()
    writer.check()
    return 2 if any_dependent else 0


# what hashlib imports its hashes from when OpenSSL's _hashlib is missing
_BUILTIN_HASHES = (("_md5", "_sha1", "_sha2", "_blake2", "_sha3") if sys.version_info >= (3, 12)
                   else ("_md5", "_sha1", "_sha256", "_sha512", "_blake2", "_sha3"))


def _import_sampling_modules() -> None:
    """Import ``numpy.random`` and ``hashlib`` without OpenSSL where Python has its own hashes.

    ``numpy.random`` imports ``secrets``, whose ``hmac`` and ``hashlib`` load
    OpenSSL's ``_hashlib`` (about 3.4 MB of RSS), while a run hashes only
    with ``sha256`` in :func:`ctxdep.experiment.substream`, where CPython's
    built-in hash gives the same digests.  ``_hashlib`` is blocked for this
    import only, so a later ``import _hashlib`` works.  Nothing is blocked
    when ``_hashlib`` is loaded already or a built-in hash module is missing
    (some builds have only blake2), where ``hashlib`` would log errors and
    lack ``sha256``.  The ``_sha2`` name of Python >= 3.12 is untested.
    Only :func:`main`, which owns its process, calls this: a library caller
    of :func:`run_scenario` keeps the ``hashlib`` it has.
    """
    import importlib.util

    if "_hashlib" in sys.modules or not all(map(importlib.util.find_spec, _BUILTIN_HASHES)):
        return
    # the numerical layers first: compiled from source after numpy.random,
    # they leave peak RSS about 0.5 MB higher
    from . import analysis  # noqa: F401

    sys.modules["_hashlib"] = None  # makes `import _hashlib` raise ImportError
    try:
        import hashlib  # noqa: F401
        import numpy.random  # noqa: F401
    finally:
        del sys.modules["_hashlib"]


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
        if cfg.shots is not None:  # only sampled runs draw
            _import_sampling_modules()
        return run_scenario(cfg)
    except (ConfigError, ValueError, OSError, ImportError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
