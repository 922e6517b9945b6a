"""Acceptance suite: one test per exit criterion, with its stated tolerance.

Each test prints a PASS/FAIL line so a plain `pytest -s tests/test_acceptance.py`
reads as a checklist.  The expensive full-scale optimizer run and the
Monte-Carlo sweeps are shared via module-scoped fixtures.  Desk-scale sweep
profile: 200 replications with a shortened annealing schedule (i_ter=8,
m_w=m_t=2, inner caps 40/60); all physics parameters stay at their defaults.
"""

import dataclasses
import subprocess
import sys
import time

import numpy as np
import pytest

from channel_oracles import bob_channel_pathsum, eve_channel_pathsum, sample_path_angles
from masec.audit import run_fd_audit
from masec.channel import ChannelWorkspace, PathSet
from masec.harness import ScenarioConfig, build_scenario, one_dim_search, run_sweep
from masec.optimizer import metropolis_accept, sa_pga

pytestmark = pytest.mark.acceptance

SEED = 2026
DESK = dict(i_ter=8, m_w=2, m_t=2, inner_iter_w=40, inner_iter_t=60)


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def full_run():
    """One complete 1000-iteration annealed run at default parameters."""
    cfg = ScenarioConfig()
    scenario = build_scenario(cfg, np.random.default_rng(0))
    start = time.time()
    best, trace, state = sa_pga(scenario, np.random.default_rng(1), cfg)
    return cfg, scenario, best, trace, time.time() - start


@pytest.fixture(scope="module")
def desk_cfg():
    return ScenarioConfig(**DESK)


def test_criterion_1_gradient_audit():
    start = time.time()
    audit = run_fd_audit(instances=100, seed=SEED)
    elapsed = time.time() - start
    ok = audit["max_err_w"] < 1e-4 and audit["max_err_t"] < 1e-3 and elapsed < 60
    report(
        1,
        ok,
        f"grad_w err {audit['max_err_w']:.2e} (<1e-4), "
        f"grad_t err {audit['max_err_t']:.2e} (<1e-3), {elapsed:.1f}s (<60s)",
    )


def test_criterion_2_dual_form_channels():
    # The workspace's channel rows against the per-antenna path-sum oracles.
    # Wavelength-scale instances: phases stay O(10) rad, where float64 lets
    # two independent factorizations agree to 1e-12.  A supplementary check
    # covers the production geometry (Eve ~50 m away, phases ~3e4 rad), where
    # the attainable agreement degrades to |phase|*eps ~ 1e-9.
    rng = np.random.default_rng(SEED)
    lam = 0.0107
    start = time.time()
    worst = 0.0
    worst_far = 0.0
    for _ in range(1000):
        L = int(rng.integers(1, 5))
        n = int(rng.integers(2, 10))
        positions = rng.uniform(-5 * lam, 5 * lam, size=(n, 3))
        r_m = rng.uniform(-10 * lam, 10 * lam, size=3)
        r_far = np.array([50.0, 0.0, 0.0]) + rng.uniform(-2.0, 2.0, size=3)
        paths = {}
        for side in ("bob", "eve"):
            theta, phi = sample_path_angles(L, rng, side)
            sigma = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            paths[side] = PathSet.from_angles(theta, phi, sigma)
        users = PathSet(paths["bob"].p[None], paths["bob"].sigma[None])  # one user, stacked (1, L)
        ws = ChannelWorkspace(positions, users, paths["eve"], np.stack([r_m, r_far]), lam)
        diff_bob = np.abs(ws.h_bob[0] - bob_channel_pathsum(positions, paths["bob"], lam))
        diff_eve = np.abs(ws.h_eve[0] - eve_channel_pathsum(positions, r_m, paths["eve"], lam))
        far = np.abs(ws.h_eve[1] - eve_channel_pathsum(positions, r_far, paths["eve"], lam))
        worst = max(worst, float(diff_bob.max()), float(diff_eve.max()))
        worst_far = max(worst_far, float(far.max()))
    elapsed = time.time() - start
    ok = worst < 1e-12 and worst_far < 1e-9 and elapsed < 5
    report(
        2,
        ok,
        f"max |workspace - pathsum| {worst:.2e} (<1e-12) over 1000 instances "
        f"({worst_far:.2e} at 50 m receive range, <1e-9), {elapsed:.1f}s (<5s)",
    )


def test_criterion_3_feasibility_invariant(full_run):
    cfg, scenario, best, trace, elapsed = full_run
    assert len(trace) == 1000
    all_feasible = all(rec.feasible for rec in trace)
    power_ok = all(rec.power <= cfg.p_max + 1e-9 for rec in trace)
    proj_ok = all(rec.proj_power_err <= 1e-9 for rec in trace if rec.proj_fired)
    fired = sum(rec.proj_fired for rec in trace)
    final_ok = best.layout.feasible() and best.W.total_power() <= cfg.p_max + 1e-9
    ok = all_feasible and power_ok and proj_ok and final_ok and fired > 0
    report(
        3,
        ok,
        f"1000 iterations in {elapsed:.0f}s: every iterate feasible (box, spacing, power); "
        f"projection fired on {fired} iterations, power pinned to P_max within 1e-9",
    )


def test_criterion_4_convergence_shape(full_run):
    cfg, scenario, best, trace, _ = full_run
    current = scenario.initial.secrecy
    best_so_far = []
    accepted_r = []
    running_best = current
    for rec in trace:
        if rec.accepted:
            current = rec.objective
            running_best = max(running_best, current)
        accepted_r.append(current)
        best_so_far.append(running_best)
    monotone = all(b >= a - 1e-15 for a, b in zip(best_so_far, best_so_far[1:]))
    fifth = len(trace) // 5
    early = float(np.std(accepted_r[:fifth]))
    late = float(np.std(accepted_r[-fifth:]))
    ok = monotone and early > 0 and late < 0.1 * early
    report(
        4,
        ok,
        f"best-so-far nondecreasing={monotone}; accepted-R std early {early:.4f} "
        f"vs late {late:.5f} (ratio {late / early:.3f} < 0.1)",
    )


def test_criterion_5_comparative_claim(desk_cfg):
    grids = {"paths": [1, 2, 3, 4], "noise": [0.00025, 0.0005, 0.001, 0.002]}
    ordered = True
    details = []
    default_margin = None
    for var, grid in grids.items():
        rows = run_sweep(var, grid, 200, desk_cfg, seed=SEED)
        cells = {}
        for r in rows:
            cells.setdefault(r.sweep_value, {})[r.method] = r.mean_secrecy
        for value, d in sorted(cells.items()):
            point_ok = d["MA"] >= d["ULA"] and d["MA"] >= d["UPA"]
            ordered = ordered and point_ok
            details.append(f"{var}={value:g}: MA {d['MA']:.3f} vs {max(d['ULA'], d['UPA']):.3f}")
            if (var == "paths" and value == 3.0) :
                default_margin = d["MA"] / max(d["ULA"], d["UPA"]) - 1.0
    margin_ok = default_margin is not None and default_margin >= 0.05
    ok = ordered and margin_ok
    report(
        5,
        ok,
        "MA mean >= ULA/UPA means at every paths and noise grid point (200 reps, common "
        f"random numbers); default-point margin {default_margin:+.1%} (>=5%) [" +
        "; ".join(details) + "]",
    )


def test_criterion_6_alpha_sweep_shape(desk_cfg):
    grid = [round(2.0 + 0.1 * i, 1) for i in range(16)]
    rows = run_sweep("alpha", grid, 200, desk_cfg, seed=SEED, methods=("MA",))
    means = {r.sweep_value: r.mean_secrecy for r in rows}
    values = [means[v] for v in grid]
    peak = int(np.argmax(values))
    interior = 0 < peak < len(grid) - 1
    rise_fall = max(values[: len(values) // 2]) > values[0] and max(values) > values[-1]
    ok = interior and rise_fall
    report(
        6,
        ok,
        f"MA mean secrecy over alpha peaks at {grid[peak]} (strictly inside [2.0, 3.5]); "
        f"endpoints {values[0]:.3f}/{values[-1]:.3f} vs max {max(values):.3f} (200 reps)",
    )


def test_criterion_7_one_dim_search_dominance():
    cfg = ScenarioConfig(array_kind="ULA", num_antennas=6, movable="all")
    ok = True
    strict_wins = 0
    for seed in range(50):
        res = one_dim_search(cfg, np.random.default_rng(seed))
        ok = ok and bool(np.all(res.move_parts >= res.move_all))
        ok = ok and bool(np.all(res.move_parts >= res.baseline))
        ok = ok and bool(np.all(res.move_all >= res.baseline))
        if np.any(res.move_parts > res.move_all + 1e-12):
            strict_wins += 1
    report(
        7,
        ok,
        f"over 50 seeds: move-parts >= move-all >= baseline at every antenna count "
        f"(by construction); moving only a part strictly won on {strict_wins} seeds",
    )


def test_criterion_8_metropolis_calibration():
    rng = np.random.default_rng(SEED)
    temp = 0.37
    draws = 100_000
    hits = sum(
        metropolis_accept(1.0 - temp * np.log(2.0), 1.0, temp, rng) for _ in range(draws)
    )
    rate = hits / draws
    ok = abs(rate - 0.5) <= 0.01
    report(8, ok, f"acceptance rate at dR=-T*ln2: {rate:.4f} (0.5 +- 0.01 over 1e5 draws)")


def test_criterion_9_byte_identical_outputs(tmp_path):
    lite = [
        "--set", "i_ter=3", "--set", "m_w=2", "--set", "m_t=2",
        "--set", "inner_iter_w=8", "--set", "inner_iter_t=8",
    ]
    runs = {
        "optimize": ["optimize", "--seed", "5"] + lite,
        "sweep": ["sweep", "--var", "paths", "--grid", "1,2", "--reps", "2", "--seed", "5"] + lite,
    }
    ok = True
    for name, args in runs.items():
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            proc = subprocess.run(
                [sys.executable, "-m", "masec"] + args + ["--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blob = b"".join(p.read_bytes() for p in sorted(out.iterdir()))
            outputs.append(blob)
        ok = ok and outputs[0] == outputs[1]
    report(9, ok, "optimize and sweep outputs byte-identical across repeated invocations")
