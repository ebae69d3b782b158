"""Capture the per-member statistics of every exact workload as its reference.

Usage, from the repository root::

    python3 perfbench/capture_reference.py

Writes ``perfbench/reference/<workload>.json``.  Exact tables do not depend
on the seed, so one run per workload suffices.  Recapture only when a change
is meant to move exact statistics, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import check
from workloads import WORKLOADS


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work" / "reference"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        if not workload.exact:
            continue
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config = work / "run.cfg"
        config.write_text(workload.config_text(seed=1))
        status = subprocess.run(
            [sys.executable, "-m", "ctxdep.cli", "run", "--config", str(config),
             "--out", str(work / "out")],
            cwd=root, env=env, stdout=subprocess.DEVNULL).returncode
        if status != check.EXPECTED_EXIT:
            print(f"{workload.name}: exit status {status}", file=sys.stderr)
            return 1
        stats = check.member_statistics(check.read_reports(work / "out"), workload.primary_kind)
        path = check.REFERENCE_DIR / f"{workload.name}.json"
        path.write_text(json.dumps(stats, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(root)}")
    shutil.rmtree(work)
    work.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
