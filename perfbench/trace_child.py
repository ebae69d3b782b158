"""Run ``ctxdep.cli.main`` in-process with a span around every layer boundary.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/trace_child.py SPANS_JSON RUN_ID -- run --config CFG --out DIR

Each public function is wrapped under the name its caller looks it up by, so
the program itself is not edited.  Spans (name, start, end, parent span,
extra counts) are kept in memory and written to ``SPANS_JSON`` after the run,
together with the run id, the exit status, and any wrapped name that was not
restored.  The process exits with ``ctxdep``'s own status.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np


def _gates(args, kwargs, result):
    return {"gates": len(args[0])}


def _sample_draws(args, kwargs, result):
    return {"draws": int(result.entries.size)}


def _resample_draws(args, kwargs, result):
    return {"draws": 0 if args[0].is_exact else int(result.size)}


def _nonfinite(args, kwargs, result):
    return {"values": int(result.size), "nonfinite": int((~np.isfinite(result)).sum())}


def _verdict(args, kwargs, result):
    return {"verdict": result.verdict.value}


# (module, attribute its caller looks up, span name, extra-count hook)
TARGETS = (
    ("ctxdep.cli", "run_scenario", "cli.run_scenario", None),
    ("ctxdep.cli", "build_model", "noise.build_model", None),
    ("ctxdep.experiment", "family_tables", "experiment.family_tables", None),
    ("ctxdep.experiment", "sequence_ptm", "experiment.sequence_ptm", _gates),
    ("ctxdep.experiment", "sample_table", "experiment.sample_table", _sample_draws),
    ("ctxdep.experiment", "substream", "rng.substream", None),
    ("ctxdep.analysis", "resample_cells", "experiment.resample_cells", _resample_draws),
    ("ctxdep.analysis", "log_abs_det", "ptm.log_abs_det", None),
    ("ctxdep.analysis", "log_abs_det_many", "ptm.log_abs_det_many", _nonfinite),
    ("ctxdep.analysis", "det_permutation_test", "analysis.det_permutation_test", _verdict),
    ("ctxdep.analysis", "cyclic_fidelity_test", "analysis.cyclic_fidelity_test", _verdict),
    ("ctxdep.analysis", "repetition_test", "analysis.repetition_test", _verdict),
    ("ctxdep.analysis", "cp_witness", "analysis.cp_witness", _verdict),
    ("ctxdep.noise", "matexp", "ptm.matexp", None),
    ("ctxdep.ptm", "ptm_of_map", "ptm.ptm_of_map", None),
)


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, extra]
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, span_name, hook in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, hook))

    def uninstall(self) -> list[str]:
        """Restore every wrapped name; return those that still are not the original."""
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        return [f"{m.__name__}.{a}" for m, a, original in self._originals
                if getattr(m, a) is not original]


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_JSON RUN_ID -- CLI_ARGS...")
    from ctxdep import cli

    tracer = Tracer()
    tracer.install()
    try:
        status = cli.main(cli_argv)
    finally:
        not_restored = tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump({"run_id": run_id, "exit": status, "not_restored": not_restored,
                   "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
