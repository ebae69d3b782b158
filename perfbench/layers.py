"""Per-layer metrics computed from the spans of one traced run.

``busy_s`` is the summed duration of a function's spans, ``self_s`` that sum
minus the time covered by their child spans, and ``calls`` the span count.
The layers are ctxdep's modules; the metric names and units are listed under
``per_layer`` in BENCHMARK.json, and README.md says which end-to-end number
each should move, and on which workload.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

_VERDICTS = {
    "ContextDependent": "dependent",
    "ContextIndependent": "independent",
    "Inconclusive": "inconclusive",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans: list[list], out_dir: Path) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, for one traced run."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    busy: Counter = Counter()
    own: Counter = Counter()
    extra: Counter = Counter()
    for index, (name, start, end, _, counts) in enumerate(spans):
        calls[name] += 1
        busy[name] += (end - start) * 1e-9
        own[name] += (end - start - child_ns[index]) * 1e-9
        for key, value in (counts or {}).items():
            if key == "verdict":
                extra["analysis.verdicts." + _VERDICTS[value]] += 1
            else:
                extra[f"{name}.{key}"] += value

    out: dict[str, float] = {}
    for name in ("ptm.ptm_of_map", "ptm.matexp", "ptm.log_abs_det", "ptm.log_abs_det_many",
                 "noise.build_model", "experiment.sequence_ptm", "experiment.sample_table",
                 "experiment.resample_cells", "rng.substream"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
    out["ptm.logdet.busy_s"] = busy["ptm.log_abs_det"] + busy["ptm.log_abs_det_many"]
    out["ptm.log_abs_det_many.nonfinite_frac"] = _ratio(
        extra["ptm.log_abs_det_many.nonfinite"], extra["ptm.log_abs_det_many.values"])
    for name in ("noise.build_model", "experiment.family_tables", "cli.run_scenario",
                 "analysis.det_permutation_test", "analysis.cyclic_fidelity_test",
                 "analysis.repetition_test", "analysis.cp_witness"):
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = own[name]
    gates = extra["experiment.sequence_ptm.gates"]
    out["experiment.gates_applied"] = gates
    out["experiment.us_per_gate"] = _ratio(busy["experiment.family_tables"] * 1e6, gates)
    draws = extra["experiment.sample_table.draws"] + extra["experiment.resample_cells.draws"]
    out["rng.draws_per_substream"] = _ratio(draws, calls["rng.substream"])
    for verdict in _VERDICTS.values():
        out[f"analysis.verdicts.{verdict}"] = extra["analysis.verdicts." + verdict]
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    out["cli.files_written"] = len(files)
    out["cli.bytes_written"] = sum(p.stat().st_size for p in files)
    out["trace.spans"] = len(spans)
    return out
