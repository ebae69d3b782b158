"""ctxdep benchmark: time-to-verdict of ``ctxdep run`` on one workload.

Usage, from the root of a ctxdep source tree::

    python3 perfbench/run.py --workload perm-exact --seed 1 --seconds 30 --trace 0

The program is measured only from outside.  With ``--trace 0`` the benchmark
times ``ctxdep validate`` (set-up) and ``ctxdep run`` processes on the
workload's config and reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced runs with runs under ``trace_child.py`` and reports the
per-layer metrics plus the tracing overhead.  Every run's artifacts are
checked (see ``check.py``); the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import layers
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
# Timed ``ctxdep validate`` calls per invocation; set-up time is their median.
SETUP_SAMPLES = 7
# Fewest timed runs (or traced/untraced pairs) per invocation, however short --seconds.
MIN_RUNS = 3
MIN_PAIRS = 2
CHILD_TIMEOUT_S = 60.0

NOT_COLLECTED = (
    "hardware counters, cache-miss data and machine-wide tracing are not collected: "
    "the benchmark may act only on its own processes; kernel work is reported as "
    "experiment.gates_applied, one 16x16 matmul per gate"
)


@dataclass
class Child:
    exit_code: int
    wall_s: float
    rss_mb: float
    log_tail: str


@dataclass
class Tally:
    """Runs attempted and the problems found in each failed one."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")


class Bench:
    """One benchmark invocation on one workload, inside a scratch work folder."""

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench_work" / str(os.getpid())
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "run.cfg"
        self.config.write_text(workload.config_text(seed))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.reference = check.load_reference(workload) if workload.exact else None
        self.first_reports: dict[str, bytes] | None = None
        self.tally = Tally()
        self.selftest_missed: list[str] | None = None
        self.tolerated: set[str] = set()
        self.runs = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:  # another invocation's folder is still there
            pass

    def spawn(self, argv: list[str]) -> Child:
        """Run a child to completion; wall time from spawn to exit, peak RSS from wait4."""
        with open(self.work / "child.log", "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = (self.work / "child.log").read_text(errors="replace")[-300:]
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, tail)

    def validate(self) -> Child:
        return self.spawn([sys.executable, "-m", "ctxdep.cli", "validate",
                           "--config", str(self.config)])

    def run(self, traced: bool, same_as: dict[str, str] | None = None
            ) -> tuple[Child, Path, dict | None]:
        """One checked ``ctxdep run``; returns the child, its output folder, its trace.

        ``same_as`` is the file digest of a run on the other side of a
        traced/untraced pair; this run's artifacts must match it byte for byte.
        """
        self.runs += 1
        out = self.work / f"out{self.runs}"
        cli_argv = ["run", "--config", str(self.config), "--out", str(out)]
        if traced:
            spans = self.work / f"spans{self.runs}.json"
            run_id = f"{self.workload.name}:{self.seed}:{self.runs}"
            child = self.spawn([sys.executable, str(BENCH_DIR / "trace_child.py"),
                                str(spans), run_id, "--", *cli_argv])
            trace = json.loads(spans.read_text()) if spans.is_file() else None
        else:
            child = self.spawn([sys.executable, "-m", "ctxdep.cli", *cli_argv])
            trace = None
        problems, tolerated, reports = check.check_run(
            self.workload, child.exit_code, out, self.first_reports, self.reference)
        self.tolerated.update(tolerated)
        if traced:
            if trace is None:
                problems.append("traced run wrote no spans")
            elif trace["not_restored"]:
                problems.append(f"wrapped names not restored: {trace['not_restored']}")
        if same_as is not None and check.tree_digest(out) != same_as:
            problems.append("traced and untraced artifacts differ")
        if child.exit_code != check.EXPECTED_EXIT:
            problems.append(f"output ends {child.log_tail!r}")
        if not problems and self.first_reports is None:
            self.first_reports = reports
            self.selftest_missed = check.self_test(self.workload, reports, self.reference)
        self.tally.record(f"run {self.runs}{' (traced)' if traced else ''}", problems)
        return child, out, trace


def describe(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "p_hi": None, "p_hi_value": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            out["p_hi"] = p
            out["p_hi_value"] = ordered[math.ceil(p / 100 * n) - 1]
            break
    return out


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, dict]:
    bench.validate()  # untimed: byte-compiles the package on a fresh tree
    setup = []
    for _ in range(SETUP_SAMPLES):
        child = bench.validate()
        bench.tally.record("validate", [] if child.exit_code == 0 else
                           [f"validate exit status {child.exit_code}: {child.log_tail!r}"])
        setup.append(child.wall_s)
    run_s, rss = [], []
    deadline = time.perf_counter() + seconds
    while len(run_s) < MIN_RUNS or time.perf_counter() + statistics.median(run_s) <= deadline:
        child, out, _ = bench.run(traced=False)
        shutil.rmtree(out, ignore_errors=True)
        run_s.append(child.wall_s)
        rss.append(child.rss_mb)
    return {
        "run_s": describe(run_s),
        "setup_s": describe(setup),
        "peak_rss_mb": describe(rss),
    }


def measure_layers(bench: Bench, seconds: float) -> dict[str, dict]:
    plain, traced, per_run = [], [], []
    deadline = time.perf_counter() + seconds
    pair = 0
    while (pair < MIN_PAIRS or time.perf_counter() + statistics.median(plain)
           + statistics.median(traced) <= deadline):
        # Alternate which side of the pair runs first.
        digest = None
        for is_traced in ((False, True) if pair % 2 == 0 else (True, False)):
            child, out, trace = bench.run(traced=is_traced, same_as=digest)
            (traced if is_traced else plain).append(child.wall_s)
            if is_traced and trace is not None:
                per_run.append(layers.span_metrics(trace["spans"], out))
            digest = check.tree_digest(out)
            shutil.rmtree(out, ignore_errors=True)
        pair += 1
    result = {name: describe([m[name] for m in per_run]) for name in per_run[0]}
    overhead = statistics.median(traced) - statistics.median(plain)
    result["trace.overhead_s"] = {"median": overhead, "n": len(traced),
                                  "p_hi": None, "p_hi_value": None}
    return result


PROBE = r"""
import ctypes, json, os, platform
import numpy, scipy, ctxdep
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for line in open("/proc/self/maps"):
    path = line.split()[-1]
    if "blas" in path.lower() and ".so" in path:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads,
                  "ctxdep_file": os.path.relpath(ctxdep.__file__)}))
"""


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(root: Path, env: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    probe = subprocess.run([sys.executable, "-c", PROBE], cwd=root, env=env,
                           capture_output=True, text=True, timeout=60, check=True)
    info = json.loads(probe.stdout)
    info.update({
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "not_collected": NOT_COLLECTED,
    })
    return info


def declared_metrics(section: str) -> list[tuple[str, str]]:
    """Names and units of one section of BENCHMARK.json, in report order."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def benchmark(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; return every metric with its spread, and the checks' outcome."""
    units = declared_metrics("per_layer" if trace else "end_to_end")
    bench = Bench(root, workload, seed)
    try:
        env_info = environment(root, bench.env)
        stats = (measure_layers if trace else measure_end_to_end)(bench, seconds)
    finally:
        bench.close()
    tally = bench.tally
    return {
        "workload": workload.name,
        "config": workload.config_text(seed),
        "environment": env_info,
        "metrics": {name: dict(stats[name], unit=unit) for name, unit in units},
        "attempted": tally.attempted,
        "failures": tally.failures,
        "fail_frac": len(tally.failures) / tally.attempted,
        "tables": workload.tables,
        "selftest_missed": bench.selftest_missed,
        "tolerated": sorted(bench.tolerated),
        "correct": not tally.failures and bench.selftest_missed == [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ctxdep" / "cli.py").is_file():
        print("perfbench: no ctxdep source at ./src/ctxdep; run from the repository root",
              file=sys.stderr)
        return 2
    report = benchmark(root, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(f"workload {report['workload']}: {report['config']!r}")
    print(f"environment: {json.dumps(report['environment'], sort_keys=True)}")
    for name, s in report["metrics"].items():
        p_hi = "none (n < 20)" if s["p_hi"] is None else f"p{s['p_hi']:g}={s['p_hi_value']:.6g}"
        print(f"  {name:40s} median={s['median']:.6g} {s['unit']}  {p_hi}  n={s['n']}")
    if "run_s" in report["metrics"]:
        run_s = report["metrics"]["run_s"]
        print(f"  {'tables_per_s':40s} {report['tables'] / run_s['median']:.6g} tables/s"
              f"  ({report['tables']} tables / median run_s)  n={run_s['n']}")
    failures = report["failures"]
    print(f"  {'fail_frac':40s} {report['fail_frac']:.6g} ({len(failures)}/{report['attempted']})")
    for failure in failures:
        print(f"FAILED {failure}")
    for note in report["tolerated"]:
        print(f"TOLERATED marginal verdict: {note}")
    missed = report["selftest_missed"]
    if missed is None:
        print("checker self-test: not run (no passing run)")
    else:
        print("checker self-test: " + ("every fault caught" if not missed else
                                       "; ".join(f"MISSED {m}" for m in missed)))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                    for name, s in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
