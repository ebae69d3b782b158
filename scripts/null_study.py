"""Size and power of the spread tests under their finite-shot null.

Runs ``det_permutation_test`` on the fig2a family and ``cyclic_fidelity_test``
on the fig2b family (order 2, 500 null draws) in-process, with the ctxdep tree
found on ``PYTHONPATH``.  A seed's tables are sampled exactly as
``ctxdep run --seed SEED`` samples them, so two trees whose ``sample_table``
agrees see the same observed tables, and their verdicts pair up seed by seed.

Arms, one per (phi, SPAM, shots):

* ``phi=0`` (size), ``phi=0.001`` and ``phi=0.005`` (power), each at 1e5 and
  1e3 shots;
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

``run`` writes one row per (test, arm, seed); ``--shots`` narrows the shot
counts.  Each row records the verdict, the null method the report names, and
``linear_size``: the largest ``||P^-1||_2 ||sd(P)||_F`` over the tables the
test inverts (the members for PermDet, the reference for CyclicFid).

``compare`` prints each arm's verdict counts for both files and the gate for
each test.  The right verdict is ContextIndependent at phi = 0 and
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
RESAMPLES = 500
ORDER = 2
TESTS = {"PermDet": "fig2a", "CyclicFid": "fig2b"}
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


def _linear_size(tables) -> float:
    sizes = []
    for t in tables:
        p = np.clip(t.entries, 0.0, 1.0)
        sd = np.sqrt(p * (1.0 - p) / t.shots)
        try:
            inv = np.linalg.inv(t.entries)
        except np.linalg.LinAlgError:
            return math.inf
        sizes.append(np.linalg.norm(inv, 2) * np.linalg.norm(sd))
    return float(max(sizes))


def _finite(value):
    return value if value is not None and math.isfinite(value) else None


class _Exact:
    """Exact member and reference tables; each (test, phi) builds its noise model once."""

    def __init__(self):
        self._models: dict = {}

    def tables(self, test: str, phi: float, cond, seed: int):
        from ctxdep import experiment, noise
        from ctxdep.cli import _build_families, _reference_table, parse_config

        cfg = parse_config(f"scenario = {TESTS[test]}\n")
        key = (test, phi)
        if key not in self._models:
            self._models[key] = noise.build_model(cfg.noise_params(phi))
        model = self._models[key]
        if cond is not None:
            rng = np.random.default_rng([seed, cond])
            model = noise.distort_spam(model, _spam_map(rng, math.sqrt(cond)),
                                       _spam_map(rng, math.sqrt(cond)))
        (family,) = _build_families(cfg)
        return experiment.family_tables(family, model), _reference_table(cfg, model)


def run(seeds, shots_list, out_path: str) -> int:
    from ctxdep import analysis, experiment

    exact = _Exact()
    rows = []
    for phi in PHIS:
        for cond in (None, *SPAM_CONDS):
            for test in TESTS:
                cached = None if cond is not None else exact.tables(test, phi, None, 0)
                for seed in seeds:
                    tables, p0 = cached or exact.tables(test, phi, cond, seed)
                    for shots in shots_list:
                        sampled = [experiment.sample_table(t, shots, seed) for t in tables]
                        if test == "PermDet":
                            report = analysis.det_permutation_test(
                                sampled, resamples=RESAMPLES, seed=seed)
                            size = _linear_size(sampled)
                        else:
                            ref = experiment.sample_table(p0, shots, seed)
                            report = analysis.cyclic_fidelity_test(
                                sampled, ref, r=ORDER, resamples=RESAMPLES, seed=seed)
                            size = _linear_size([ref])
                        rows.append({
                            "test": test, "arm": _arm(phi, cond, shots), "phi": phi,
                            "seed": seed, "verdict": report.verdict.value,
                            "null": report.details.get("null", {}).get("method"),
                            "spread": _finite(report.summary["spread"]),
                            "threshold99": _finite(report.summary["threshold99"]),
                            "linear_size": _finite(size),
                        })
                for shots in shots_list:
                    arm = _arm(phi, cond, shots)
                    arm_rows = [r for r in rows if r["test"] == test and r["arm"] == arm]
                    counts = Counter(r["verdict"] for r in arm_rows)
                    nulls = Counter(r["null"] for r in arm_rows)
                    print(f"{test:9s} {arm:26s} " + ", ".join(
                        f"{v}={counts[v]}" for v in sorted(counts)) + "  null: " + ", ".join(
                        f"{m}={nulls[m]}" for m in sorted(nulls)), flush=True)
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
    keys = sorted(set(base) & set(cand))
    if not keys:
        print("no common (test, arm, seed) rows", file=sys.stderr)
        return 1
    gates = {}
    for test in TESTS:
        arms = dict.fromkeys(k[1] for k in cand if k[0] == test and k in base)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run")
    run_p.add_argument("--seeds", type=_seed_range, required=True, help="FIRST-LAST")
    run_p.add_argument("--shots", default=",".join(map(str, SHOTS)),
                       help="comma-separated shot counts, from %(default)s")
    run_p.add_argument("--out", required=True)
    cmp_p = sub.add_parser("compare")
    cmp_p.add_argument("baseline")
    cmp_p.add_argument("candidate")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.baseline, args.candidate)
    shots = [int(s) for s in args.shots.split(",")]
    if not set(shots) <= set(SHOTS):
        parser.error(f"--shots must be drawn from {SHOTS}")
    return run(args.seeds, shots, args.out)


if __name__ == "__main__":
    sys.exit(main())
