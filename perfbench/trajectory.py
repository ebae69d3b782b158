"""Record one point of the performance trajectory: every metric on every workload.

Usage, from the repository root::

    python3 perfbench/trajectory.py LABEL [--seed 1] [--seconds 30]

Runs each workload once untraced (end-to-end metrics) and once traced
(per-layer metrics) and writes ``perfbench/trajectory/LABEL.json`` with each
metric's median, high percentile and sample count, the checks' outcome and
the environment.  LABEL is usually the short commit id being measured.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import BENCH_DIR, benchmark
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    point = {"label": args.label, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS.values():
        entry = {"why": workload.why}
        for key, trace in (("end_to_end", False), ("per_layer", True)):
            report = benchmark(root, workload, args.seed, args.seconds, trace)
            point["environment"] = report.pop("environment")
            entry["config"] = report.pop("config")
            entry[key] = report
            print(f"{workload.name} {key}: correct={report['correct']}", flush=True)
        point["workloads"][workload.name] = entry
    path = BENCH_DIR / "trajectory" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
