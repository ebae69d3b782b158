"""The benchmark's workloads: one ctxdep config each, plus what a correct run looks like.

Each workload stresses a different family shape and data path, so an
optimisation of one layer has a workload that exercises it and one that
bypasses it (where the prediction is no change):

* ``perm-exact``: exact products of the permutation family (251 members of
  500 gates) plus CSV emission; no sampling, no bootstrap, no ``rng``.
* ``cyclic-shots``: 501 rotations of a 501-gate sequence at 1e5 shots;
  dominated by binomial sampling, per-cell substreams and the cyclic
  bootstrap, and it writes the most artifacts (~1,500 files).
* ``rep-sweep-shots``: a 16-point coupling sweep of the repetition family at
  1e5 shots; dominated by building 16 noise models and the repetition test's
  500-fit null loop, while sequence products are a small share.

The workload seed given to the benchmark is passed to ctxdep as ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    shots: int | None  # None = exact tables
    phi_values: tuple[float, ...]
    primary_kind: str  # report kind whose verdict decides the scenario
    tables_per_phi: int  # family members plus the reference table, if any
    why: str

    @property
    def exact(self) -> bool:
        return self.shots is None

    @property
    def tables(self) -> int:
        """Probability tables one run produces (members x phi, plus references)."""
        return self.tables_per_phi * len(self.phi_values)

    def config_text(self, seed: int) -> str:
        phis = ", ".join(repr(p) for p in self.phi_values)
        return (
            f"scenario = {self.scenario}\n"
            f"shots = {'exact' if self.exact else self.shots}\n"
            f"phi_values = [{phis}]\n"
            f"seed = {seed}\n"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="perm-exact",
            scenario="fig2a",
            shots=None,
            phi_values=(0.0, 0.001, 0.005),
            primary_kind="PermDet",
            tables_per_phi=251,
            why="fig2a, shots=exact, phi=[0,0.001,0.005], seed=--seed: permutation-shaped "
            "exact products (251 x 500 gates) and CSV emission; no rng or bootstrap",
        ),
        Workload(
            name="cyclic-shots",
            scenario="fig2b",
            shots=100_000,
            phi_values=(0.0, 0.001, 0.005),
            primary_kind="CyclicFid",
            tables_per_phi=502,
            why="fig2b, shots=1e5, phi=[0,0.001,0.005], seed=--seed: cyclic products (501 "
            "x 501 gates), per-cell sampling substreams, cyclic bootstrap; writes "
            "~1500 files",
        ),
        Workload(
            name="rep-sweep-shots",
            scenario="fig3a",
            shots=100_000,
            phi_values=tuple(round(0.002 * k, 3) for k in range(16)),
            primary_kind="RepLinearity",
            tables_per_phi=11,
            why="fig3a, shots=1e5, phi=0..0.03 step 0.002 (16 points), seed=--seed: 16 "
            "model builds and the 500-fit repetition null dominate; sequence products "
            "are small",
        ),
    )
}
