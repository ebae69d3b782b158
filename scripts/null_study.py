"""Size and power of ctxdep's tests under their finite-shot null.

The arms are scenarios: fig2a (PermDet), fig2b (CyclicFid), and fig3a and
fig3b (RepLinearity and CPWitness per repeated block).  For each seed and shot
count the study sets ``seed`` and ``shots`` on the scenario's ``RunConfig``
and calls the two steps that ``ctxdep run`` takes per family,
``cli._simulate`` and ``cli._family_reports``.  So its rows are the reports a
run at that seed would write, with the config's draw count and cyclic order
(``bootstrap_resamples`` = 500, ``cyclic_order`` = 2), and it has no code of
its own per test.  It runs in-process, with the ctxdep tree found on
``PYTHONPATH``; that tree must have those two steps and ``cli._report_name``,
which trees before them lack, so they cannot be a baseline.  A tree whose
``_family_reports`` still takes a calibration argument runs its own copy of
this script.

Arms, one per (phi, SPAM, shots):

* ``phi=0`` (size), ``phi=0.001`` and ``phi=0.005`` (power), each at 1e5 and
  1e3 shots by default, or at the positive shot counts ``--shots`` lists;
* ``spam=C`` at each of those phi and shot counts: SPAM distortions of total
  condition number C = 10, 100, 1000.  Preparations and measurements each get
  a map of condition sqrt(C): a random rotation, a contraction of the Bloch
  vector by (1, C^-1/4, C^-1/2), and another random rotation, drawn per seed
  (the same maps at every phi).  Such maps keep states and effects physical,
  so ``sample_table`` accepts every table they give.

Seed ranges stated in advance: 0-59 for development, 8000-8199 for
confirmation.  Usage, from the repository root::

    PYTHONPATH=src python scripts/null_study.py run --seeds 8000-8199 --out new.json
    PYTHONPATH=PARENT/src python scripts/null_study.py run --seeds 8000-8199 --out old.json
    python scripts/null_study.py compare old.json new.json

``run`` writes one row per (test, arm, seed); a test is a report's file name
(``permdet``, ``cyclicfid``, ``replinearity_<block>``, ``cpwitness_<block>``),
and ``--shots`` sets the shot counts.  Each row records the verdict, the
null method the report names, the statistic (``details.observed_statistic``,
else ``summary.spread``, else ``summary.max_rise``), the report's
``threshold`` as ``threshold99`` when the statistic is one of the first two,
which a report judges against its threshold (else ``null``: a witness
judges each rise on its own), and
``linear_size``: the family's ``details.noise_amplification``, the largest
``||P^-1||_F ||sd(P)||_F`` over the reference table of a cyclic family, and
over the members of any other.  It bounds ``||P^-1||_2 ||sd(P)||_F``, the
size that the delta method needs below 1, from above, within a factor 2
(``null`` where no report carries it, as in trees before it was reported).

``compare`` prints each arm's verdict counts for both files and the gate for
each test found in both.  The right verdict is ContextIndependent at phi = 0 and
ContextDependent at a coupled phi; the other definite verdict is wrong.  At
every arm the candidate may give at most one more wrong verdict per 100
seeds than the baseline; at phi = 0 at most one fewer right verdict per 100
seeds, and at a coupled phi no fewer.  So a rise in Inconclusive passes only
where it replaces wrong verdicts.  ``compare`` exits 1 when a gate fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter

import numpy as np

SHOTS = (100_000, 1_000)
PHIS = (0.0, 0.001, 0.005)
SPAM_CONDS = (10, 100, 1000)
TESTS = ("fig2a", "fig2b", "fig3a", "fig3b")  # scenarios; each report is a test
RIGHT = {True: "ContextIndependent", False: "ContextDependent"}  # keyed on phi == 0
WRONG = {True: "ContextDependent", False: "ContextIndependent"}


def _arm(phi: float, cond, shots: int) -> str:
    return f"phi={phi:g}" + ("" if cond is None else f",spam={cond}") + f"/{shots}"


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    out = np.eye(4)
    out[1:, 1:] = q
    return out


def _spam_map(rng, cond: float) -> np.ndarray:
    """A Pauli transfer matrix of condition ``cond`` that maps states to states."""
    shrink = np.diag([1.0, 1.0, cond**-0.5, 1.0 / cond])
    return _rotation(rng) @ shrink @ _rotation(rng)


def _finite(value):
    return value if value is not None and math.isfinite(value) else None


def _statistic(report) -> tuple:
    """``(statistic, threshold99)`` of a row; see the module docstring."""
    for source, key, judged in ((report.details, "observed_statistic", True),
                                (report.summary, "spread", True),
                                (report.summary, "max_rise", False)):
        if key in source:
            return source[key], report.threshold if judged else None
    return None, None


def run(seeds, shots_list, out_path: str) -> int:
    from ctxdep import noise
    from ctxdep.cli import _family_reports, _report_name, _simulate, build_model
    from ctxdep.config import parse_config

    rows = []
    for phi in PHIS:
        for cond in (None, *SPAM_CONDS):
            for scenario in TESTS:
                cfg = parse_config(f"scenario = {scenario}\n")
                families = cfg.families()
                model = build_model(cfg.noise_params(phi))
                arm_rows = []
                for seed in seeds:
                    distorted = model
                    if cond is not None:
                        rng = np.random.default_rng([seed, cond])
                        distorted = noise.distort_spam(model, _spam_map(rng, math.sqrt(cond)),
                                                       _spam_map(rng, math.sqrt(cond)))
                    for shots in shots_list:
                        cfg.seed, cfg.shots = seed, shots
                        for family in families:
                            reports = _family_reports(cfg, family,
                                                      *_simulate(cfg, family, distorted))
                            # a witness report does not carry it, nor do older trees
                            size = next((r.details["noise_amplification"] for r in reports
                                         if "noise_amplification" in r.details), None)
                            for report in reports:
                                statistic, threshold = _statistic(report)
                                arm_rows.append({
                                    "test": _report_name(family, report),
                                    "arm": _arm(phi, cond, shots), "phi": phi, "seed": seed,
                                    "verdict": report.verdict.value,
                                    "null": report.details.get("null", {}).get("method"),
                                    "statistic": _finite(statistic),
                                    "threshold99": _finite(threshold),
                                    "linear_size": _finite(size),
                                })
                for test, arm in dict.fromkeys((r["test"], r["arm"]) for r in arm_rows):
                    group = [r for r in arm_rows if r["test"] == test and r["arm"] == arm]
                    counts = Counter(r["verdict"] for r in group)
                    nulls = Counter(r["null"] for r in group)
                    print(f"{test:26s} {arm:26s} " + ", ".join(
                        f"{v}={counts[v]}" for v in sorted(counts)) + "  null: " + ", ".join(
                        f"{m}={nulls[m]}" for m in sorted(nulls, key=str)), flush=True)
                rows += arm_rows
    with open(out_path, "w") as fh:
        json.dump({"seeds": [seeds[0], seeds[-1]], "rows": rows}, fh, indent=1)
        fh.write("\n")
    return 0


def _load(path):
    with open(path) as fh:
        doc = json.load(fh)
    return {(r["test"], r["arm"], r["seed"]): r for r in doc["rows"]}


def compare(baseline_path: str, candidate_path: str) -> int:
    base, cand = _load(baseline_path), _load(candidate_path)
    keys = [k for k in cand if k in base]
    if not keys:
        print("no common (test, arm, seed) rows", file=sys.stderr)
        return 1
    gates = {}
    for test in dict.fromkeys(k[0] for k in keys):
        arms = dict.fromkeys(k[1] for k in keys if k[0] == test)
        print(f"\n{test}: baseline/candidate")
        print(f"  {'arm':26s} {'seeds':>5s}  {'dep':>9s} {'inc':>9s} {'ind':>9s}"
              "  candidate nulls, max linear_size")
        ok = True
        for arm in arms:
            arm_keys = [k for k in keys if k[0] == test and k[1] == arm]
            count = {name: Counter(index[k]["verdict"] for k in arm_keys)
                     for name, index in (("base", base), ("cand", cand))}
            null = base[arm_keys[0]]["phi"] == 0
            slack = len(arm_keys) // 100
            right, wrong = RIGHT[null], WRONG[null]
            passed = (count["cand"][wrong] <= count["base"][wrong] + slack
                      and count["cand"][right] >= count["base"][right] - (slack if null else 0))
            ok &= passed
            nulls = Counter(cand[k]["null"] for k in arm_keys)
            size = max(math.inf if cand[k]["linear_size"] is None else cand[k]["linear_size"]
                       for k in arm_keys)
            cells = [f"{count['base'][v]:>4d}/{count['cand'][v]:<4d}" for v in
                     ("ContextDependent", "Inconclusive", "ContextIndependent")]
            print(f"  {arm:26s} {len(arm_keys):5d}  {' '.join(cells)}  "
                  + ",".join(f"{m}={nulls[m]}" for m in sorted(nulls, key=str))
                  + f" {size:.3g}{'' if passed else '  FAILS'}")
        gates[test] = ok
    print("\ngate: " + ", ".join(
        f"{test} {'passes' if ok else 'fails'}" for test, ok in gates.items()))
    return 0 if all(gates.values()) else 1


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _shot_counts(text: str) -> list[int]:
    shots = [int(s) for s in text.split(",")]
    if min(shots) < 1:
        raise argparse.ArgumentTypeError(f"shot counts must be positive: {text}")
    return shots


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run")
    run_p.add_argument("--seeds", type=_seed_range, required=True, help="FIRST-LAST")
    run_p.add_argument("--shots", type=_shot_counts, default=",".join(map(str, SHOTS)),
                       help="comma-separated positive shot counts (default %(default)s)")
    run_p.add_argument("--out", required=True)
    cmp_p = sub.add_parser("compare")
    cmp_p.add_argument("baseline")
    cmp_p.add_argument("candidate")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.baseline, args.candidate)
    return run(args.seeds, args.shots, args.out)


if __name__ == "__main__":
    sys.exit(main())
