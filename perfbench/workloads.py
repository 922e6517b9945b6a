"""The benchmark's workloads: what one op runs, how it is checked and digested.

Every op draws its inputs from (run seed, op index), so a run seed fixes the
whole op sequence.  The benchmark calls masec through module attributes
(``harness.run_sweep``, ``optimizer.sa_pga``) so that traced runs see these
calls as well.
"""

from __future__ import annotations

import math

import numpy as np

from masec import harness, optimizer

POWER_TOL = 1e-9  # absolute slack on the power budget, as in masec.metrics
METHODS = ("MA", "ULA", "UPA")  # the rows one sweep replication yields, in order
# Rounding slack on one_dim_search's dominance chain; the acceptance suite's
# criterion 7 allows the same (the incremental channel updates of a reset
# workspace may differ from a fresh pass in the last bits).
DOMINANCE_TOL = 1e-15
WARMUP_INDEX = 1 << 31  # op index of the untimed warm-up op, outside any panel


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


class Workload:
    """Base: subclasses define ``cfg``, ``op``, ``check``, ``summary``, ``secrecy``.

    ``panel`` ops always run; the digest and ``secrecy_mean`` cover exactly
    those, so both are fixed by the seed alone.
    """

    name: str
    why: str  # why the benchmark runs this workload, one line
    panel: int
    cfg: harness.ScenarioConfig

    def sizes(self) -> dict:
        return {"panel_ops": self.panel, "config": repr(self.cfg)}

    def first_scenario(self, seed: int):
        """The scenario build that the set-up time includes."""
        return harness.build_scenario(self.cfg, np.random.default_rng([seed, 0, 0]))

    def op(self, seed: int, index: int):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        """Problems found in one op's output; empty when it is correct."""
        raise NotImplementedError

    def summary(self, result) -> tuple:
        """Plain Python values whose repr feeds the output digest."""
        raise NotImplementedError

    def secrecy(self, result) -> float:
        raise NotImplementedError


class OptimizeDefault(Workload):
    """One ``sa_pga`` solve at default physics on a fresh scenario."""

    name = "optimize-default"
    why = (
        "sa_pga at default physics (i_ter=3, caps 1000); most self time is in draw_batch. "
        "ULA movable=all under sa_pga is left out until the ROADMAP item 3 defect is fixed"
    )
    panel = 200
    # A short outer loop with the inner caps of the 1000-iteration default run.
    cfg = harness.ScenarioConfig(i_ter=3, inner_iter_w=1000, inner_iter_t=1000)

    def op(self, seed, index):
        scenario = harness.build_scenario(self.cfg, np.random.default_rng([seed, index, 0]))
        best, trace, _ = optimizer.sa_pga(
            scenario, np.random.default_rng([seed, index, 1]), self.cfg.sa_config()
        )
        return scenario.initial.secrecy, best, trace

    def check(self, result):
        initial, best, trace = result
        problems = []
        if len(trace) != self.cfg.i_ter:
            problems.append(f"trace has {len(trace)} records, expected {self.cfg.i_ter}")
        if not all(rec.feasible for rec in trace):
            problems.append("an iterate is infeasible")
        powers = [rec.power for rec in trace] + [best.W.total_power()]
        if max(powers) > self.cfg.p_max + POWER_TOL:
            problems.append(f"power {max(powers)!r} over budget {self.cfg.p_max!r}")
        values = [(r.objective, r.power, r.temperature) for r in trace]
        if not _finite(values, best.W.w, best.layout.positions, best.secrecy, initial):
            problems.append("non-finite value in the solution or trace")
        if not best.secrecy >= initial:
            problems.append(f"best secrecy {best.secrecy!r} below initial {initial!r}")
        return problems

    def summary(self, result):
        initial, best, trace = result
        return (
            initial,
            best.secrecy,
            best.worst_k,
            best.best_m,
            best.layout.positions.tolist(),
            best.W.w.real.tolist(),
            best.W.w.imag.tolist(),
            [(rec.objective, rec.accepted) for rec in trace],
        )

    def secrecy(self, result):
        return result[1].secrecy


class SweepDesk(Workload):
    """One sweep replication (MA, ULA, UPA on one draw) at the desk schedule."""

    name = "sweep-desk"
    why = (
        "one desk-schedule sweep rep (MA, ULA, UPA on one draw), paths cycling 1-4: "
        "per-rep set-up and small draw batches weigh more"
    )
    panel = 180
    cfg = harness.ScenarioConfig(i_ter=8, m_w=2, m_t=2, inner_iter_w=40, inner_iter_t=60)
    paths = (1, 2, 3, 4)  # L cycles with the op index

    def sizes(self):
        return {**super().sizes(), "sweep_var": "paths", "values": list(self.paths)}

    def op(self, seed, index):
        op_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        value = self.paths[index % len(self.paths)]
        return harness.run_sweep("paths", [value], 1, self.cfg, op_seed)

    def check(self, result):
        problems = []
        if tuple(r.method for r in result) != METHODS:
            problems.append(f"rows {[r.method for r in result]}, expected {list(METHODS)}")
        for row in result:
            values = (row.mean_secrecy, row.mean_bob_capacity, row.mean_eve_capacity)
            if not all(math.isfinite(v) and v >= 0.0 for v in values):
                problems.append(f"{row.method} row not finite and >= 0: {values!r}")
        return problems

    def summary(self, result):
        return [
            (r.method, r.sweep_value, r.mean_secrecy, r.mean_bob_capacity, r.mean_eve_capacity)
            for r in result
        ]

    def secrecy(self, result):
        return next(r.mean_secrecy for r in result if r.method == "MA")


class OneDimSearchN6(Workload):
    """One ``one_dim_search`` on an all-movable 6-antenna ULA."""

    name = "onedsearch-n6"
    why = (
        "one_dim_search on a 6-antenna ULA: no gain draws, gradients or annealing; "
        "secrecy_report dominates, so gain-draw work should not move it"
    )
    panel = 150
    cfg = harness.ScenarioConfig(array_kind="ULA", num_antennas=6, movable="all")

    def op(self, seed, index):
        return harness.one_dim_search(self.cfg, np.random.default_rng([seed, index]))

    def check(self, result):
        problems = []
        if not _finite(result.baseline, result.move_all, result.move_parts):
            problems.append("non-finite rate")
        if not np.all(result.move_parts >= result.move_all - DOMINANCE_TOL):
            problems.append("move_parts < move_all")
        if not np.all(result.move_all >= result.baseline - DOMINANCE_TOL):
            problems.append("move_all < baseline")
        return problems

    def summary(self, result):
        return (result.baseline, result.move_all.tolist(), result.move_parts.tolist())

    def secrecy(self, result):
        return float(result.move_parts[-1])


WORKLOADS = {w.name: w for w in (OptimizeDefault(), SweepDesk(), OneDimSearchN6())}
