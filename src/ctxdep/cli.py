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
took.  ``logging`` loads only when ``CTXDEP_LOG`` is set, the caller loaded it
already, or a warning is logged (for a singular table).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
import threading
import time
from typing import TYPE_CHECKING

from . import _INFO, _WARNING, _configure_log, _log
from .config import RunConfig, _phi_dir_name, load_config, set_key, validate

if TYPE_CHECKING:
    from . import analysis, experiment
    from .noise import NoiseParams, TwoQubitModel

__all__ = ["run_scenario", "main"]


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


def _simulate(cfg: RunConfig, family, model) -> tuple[list, experiment.ProbabilityTable | None]:
    """Member tables and, for a cyclic family, the reference (else ``None``), at ``cfg.shots``."""
    from . import experiment

    tables = experiment.family_tables(family, model, shots=cfg.shots, seed=cfg.seed)
    if family.kind != "cyclic":
        return tables, None
    p0 = experiment.prob_table(experiment.Sequence(gates=cfg.reference, label="reference"), model)
    if cfg.shots is not None:
        p0 = experiment.sample_table(p0, cfg.shots, cfg.seed)
    return tables, p0


def _family_reports(cfg: RunConfig, family, tables, p0) -> list[analysis.TestReport]:
    """Run the family's tests; return their reports."""
    from . import analysis

    boot = {"resamples": cfg.bootstrap_resamples, "seed": cfg.seed}
    if family.kind == "permutation":
        return [analysis.det_permutation_test(tables, **boot)]
    if family.kind == "cyclic":
        return [analysis.cyclic_fidelity_test(tables, p0, r=cfg.cyclic_order, **boot)]
    report = analysis.repetition_test(tables, family.m_values, **boot)
    witness = analysis.cp_witness(family.m_values, report.statistics, report.ci_low, report.ci_high)
    return [report, witness]


def _report_name(family, report) -> str:
    """``<kind>`` of ``report_<kind>.json``: the report's kind in lower case, plus
    ``_<block>`` for a repetition family, whose plots are indexed by ``m``."""
    if family.m_values is None:
        return report.kind.lower()
    return report.kind.lower() + "_" + _sanitize(family.description.strip("()^m"))


def _emit_reports(family, reports, phi: float, out_dir: str) -> None:
    """Write each report's ``report_<kind>.json`` and, but for CPWitness, ``plot_<kind>.csv``."""
    import json  # loaded on the run path only: `validate` writes no report

    for report in reports:
        name = _report_name(family, report)
        # streamed, so the whole JSON text is never held in memory
        with _replacing(os.path.join(out_dir, f"report_{name}.json")) as tmp, open(tmp, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        if report.kind == "CPWitness":
            continue
        stats = report.statistics
        lo = stats if report.ci_low is None else report.ci_low
        hi = stats if report.ci_high is None else report.ci_high
        xs = range(len(stats)) if family.m_values is None else family.m_values
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
        _log(__name__, _INFO, "phi=%g %s: %.3f s", phi, stage, seconds)
    writer.busy_s = 0.0


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

    families = cfg.families()
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
                # the writer gets the tables before the tests run, the reports after them
                t1 = time.perf_counter()
                tables, p0 = _simulate(cfg, family, model)
                t2 = time.perf_counter()
                writer.write(_emit_tables, tables if p0 is None else [*tables, p0],
                             os.path.join(phi_dir, "tables"))
                reports = _family_reports(cfg, family, tables, p0)
                t3 = time.perf_counter()
                writer.write(_emit_reports, family, reports, phi, phi_dir)
                stage_s["tables"] += t2 - t1
                stage_s["tests"] += t3 - t2
                for report in reports:
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
    """Import numpy's ``Generator`` and ``Philox`` and ``hashlib``, without OpenSSL
    where Python has its own hashes and without the rest of ``numpy.random``.

    ``numpy.random`` imports ``secrets``, whose ``hmac`` and ``hashlib`` load
    OpenSSL's ``_hashlib`` (about 3.4 MB of RSS), while a run hashes only
    with ``sha256`` in :func:`ctxdep.experiment.substream`, where CPython's
    built-in hash gives the same digests.  ``_hashlib`` is blocked for this
    import only, so a later ``import _hashlib`` works.  Nothing is blocked
    when ``_hashlib`` is loaded already or a built-in hash module is missing
    (some builds have only blake2), where ``hashlib`` would log errors and
    lack ``sha256``.  The ``_sha2`` name of Python >= 3.12 is untested.
    The package's ``__init__`` would also load the legacy ``RandomState``
    (``mtrand``, about 0.7 MB with ``_mt19937``, ``_sfc64`` and ``_pickle``),
    so the package is made from its spec without running it, with ``_generator``
    and ``_philox`` imported under it and their two classes bound on it; the
    package's own ``__init__`` runs the first time anything else is asked of
    ``numpy.random``.  Only :func:`main`, which owns its process, calls this:
    a library caller of :func:`run_scenario` keeps the modules it has.
    """
    import importlib.util

    # the numerical layers first: compiled from source after numpy.random,
    # they leave peak RSS about 0.5 MB higher
    from . import analysis  # noqa: F401

    block = "_hashlib" not in sys.modules and all(map(importlib.util.find_spec, _BUILTIN_HASHES))
    if block:
        sys.modules["_hashlib"] = None  # makes `import _hashlib` raise ImportError
    try:
        import hashlib  # noqa: F401

        if "numpy.random" not in sys.modules:  # else keep the package the caller loaded
            import numpy

            spec = importlib.util.find_spec("numpy.random")
            package = importlib.util.module_from_spec(spec)
            # bound on numpy too, whose own __getattr__ would import it again
            sys.modules["numpy.random"] = numpy.random = package
            from numpy.random import _generator, _philox

            package.Generator, package.Philox = _generator.Generator, _philox.Philox

            def __getattr__(name):
                del package.__getattr__
                spec.loader.exec_module(package)
                return getattr(package, name)

            package.__getattr__ = __getattr__
    finally:
        if block:
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
    # every product is 16x16 or smaller, or a stack of such, which OpenBLAS never
    # splits across threads, but it starts nproc - 1 spinning workers when numpy
    # loads; main owns its process and loads numpy after this line
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    level = os.environ.get("CTXDEP_LOG")
    if level is not None:  # else logging loads only for a warning
        import logging

        # a level name maps to its number; any other value would make basicConfig raise
        level = logging.getLevelName(level.upper())
    _configure_log(level=level if isinstance(level, int) else _WARNING,
                   format="%(levelname)s %(name)s: %(message)s")
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
    except (ValueError, OSError, ImportError, MemoryError) as exc:  # ConfigError is a ValueError
        # a refused list allocation raises a MemoryError with no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
