"""Benchmark runner: closed-loop ops, end-to-end metrics, traced per-layer metrics.

One process runs one workload.  Ops run one after another (closed loop, no
worker threads or pools).  The first ``panel`` ops always run; further ops
run until the time budget is spent.  Every op's output is checked, and a
failed check or an exception counts into ``failed``.

Untraced runs report the end-to-end metrics.  Traced runs time the same op
sequence twice, untraced and then with the tracer installed, and report
per-layer metrics from the traced pass plus the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import masec
import workloads
from run import BLAS_VARS
from tracer import ROOT, Target, Tracer, self_times

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 7  # fresh-process set-ups per untraced run; the median is reported
TRACE_MIN_OPS = 8  # ops per pass of a traced run, at least
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# On a shared host the speed of a core can change by up to 2x, in spells of
# seconds to minutes.  Untraced runs time a fixed kernel that uses no masec
# code after every op (and after each set-up), and scale each timing to the
# speed at which that kernel takes REF_CAL_MS, using the median of the
# CAL_WINDOW kernel runs nearest to it.
REF_CAL_MS = 6.0
CAL_WINDOW = 9

RUN_SECONDS = 30  # the time one run measures, as BENCHMARK.json states it

# (name, unit, better, bound): the order and units the result line uses, and the
# share of the parent's median by which a metric may worsen.  error_ratio is
# printed too but is not listed: it is 0 at a correct commit.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_tail", "ms", "lower", 0.25),
    ("secrecy_mean", "bits/s/Hz", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Spans whose self times add up to channel.batch_channels.
BATCH_CHANNELS = (
    "channel.h_bob_batch",
    "channel.h_eve_batch",
    "channel.jac_bob_batch",
    "channel.jac_eve_batch",
)


def _count(counters, key, amount):
    counters[key] = counters.get(key, 0) + amount


def _gains_drawn(counters, args, kwargs, result):
    _count(counters, "gains_drawn", sum(a.size for a in result if isinstance(a, np.ndarray)))


def _gains_read(counters, args, kwargs, result):
    arrays = list(args) + list(kwargs.values())
    _count(counters, "gains_read", sum(a.size for a in arrays if isinstance(a, np.ndarray)))


def _project_rejected(counters, args, kwargs, result):
    previous = args[1] if len(args) > 1 else kwargs.get("previous")
    _count(counters, "project_rejected", int(result is previous))


def _accepted(counters, args, kwargs, result):
    _count(counters, "accepted", int(bool(result)))


TARGETS = [
    Target("channel.draw_batch", "masec.channel", "GainSampler.draw_batch", _gains_drawn),
    Target("channel.move_antenna", "masec.channel", "ChannelWorkspace.move_antenna"),
    Target("channel.h_bob_batch", "masec.channel", "ChannelWorkspace.h_bob_batch", _gains_read),
    Target("channel.h_eve_batch", "masec.channel", "ChannelWorkspace.h_eve_batch", _gains_read),
    Target("channel.jac_bob_batch", "masec.channel", "ChannelWorkspace.jac_bob_batch"),
    Target("channel.jac_eve_batch", "masec.channel", "ChannelWorkspace.jac_eve_batch"),
    Target("channel.build_realization", "masec.channel", "build_realization"),
    Target("gradients.grad_w_batch", "masec.gradients", "grad_w_batch"),
    Target("gradients.grad_t_batch", "masec.gradients", "grad_t_batch"),
    Target("metrics.secrecy_report", "masec.metrics", "secrecy_report"),
    Target("geometry.project_move", "masec.geometry", "project_move", _project_rejected),
    Target("optimizer.pga_w", "masec.optimizer", "pga_w"),
    Target("optimizer.pga_t", "masec.optimizer", "pga_t"),
    Target("optimizer.sa_pga", "masec.optimizer", "sa_pga"),
    Target("optimizer.metropolis_accept", "masec.optimizer", "metropolis_accept", _accepted),
    Target("harness.draw_common_channel", "masec.harness", "draw_common_channel"),
    Target("harness.scenario_from_draw", "masec.harness", "scenario_from_draw"),
    Target("harness.run_sweep", "masec.harness", "run_sweep"),
    Target("harness.one_dim_search", "masec.harness", "one_dim_search"),
]

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("channel.draw_batch.calls_per_op", "count", "lower"),
    ("channel.draw_batch.self_ms_per_op", "ms", "lower"),
    ("channel.draw_batch.used_ratio", "ratio", "higher"),
    ("channel.move_antenna.calls_per_op", "count", "lower"),
    ("channel.move_antenna.self_ms_per_op", "ms", "lower"),
    ("channel.batch_channels.self_ms_per_op", "ms", "lower"),
    ("channel.build_realization.calls_per_op", "count", "lower"),
    ("channel.build_realization.self_ms_per_op", "ms", "lower"),
    ("gradients.grad_w_batch.calls_per_op", "count", "lower"),
    ("gradients.grad_w_batch.self_ms_per_op", "ms", "lower"),
    ("gradients.grad_t_batch.calls_per_op", "count", "lower"),
    ("gradients.grad_t_batch.self_ms_per_op", "ms", "lower"),
    ("metrics.secrecy_report.calls_per_op", "count", "lower"),
    ("metrics.secrecy_report.self_ms_per_op", "ms", "lower"),
    ("geometry.project_move.calls_per_op", "count", "lower"),
    ("geometry.project_move.self_ms_per_op", "ms", "lower"),
    ("geometry.project_move.reject_ratio", "ratio", "lower"),
    ("optimizer.pga_w.self_ms_per_op", "ms", "lower"),
    ("optimizer.pga_w.steps_per_call", "count", "lower"),
    ("optimizer.pga_t.self_ms_per_op", "ms", "lower"),
    ("optimizer.pga_t.steps_per_call", "count", "lower"),
    ("optimizer.sa_pga.self_ms_per_op", "ms", "lower"),
    ("optimizer.accept_ratio", "ratio", "higher"),
    ("harness.draw_common_channel.self_ms_per_op", "ms", "lower"),
    ("harness.scenario_from_draw.self_ms_per_op", "ms", "lower"),
    ("harness.run_sweep.self_ms_per_op", "ms", "lower"),
    ("harness.one_dim_search.self_ms_per_op", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


# How the ratio-like per-layer metrics are computed, printed beside them.
NOTES = {
    "channel.draw_batch.used_ratio": "gain elements passed to h_bob_batch/h_eve_batch "
    "over elements draw_batch returned",
    "geometry.project_move.reject_ratio": "calls returning `previous` over calls",
    "optimizer.pga_w.steps_per_call": "draw_batch calls nested in pga_w over pga_w calls",
    "optimizer.pga_t.steps_per_call": "draw_batch calls nested in pga_t over pga_t calls",
    "optimizer.accept_ratio": "metropolis_accept calls returning True over calls",
    "trace.overhead_ratio": "traced wall time over untraced wall time, same ops",
}


def calibration_kernel() -> float:
    """Fixed work in the mix masec's ops spend their time on, using no masec code.

    Small complex matrix products, normal draws, element-wise maths and
    interpreter loops; a run's median was 3.8 to 6.7 ms on one core of a
    2.1 GHz Xeon VM, as the load of its shared host varied.
    """
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((9, 16)) + 1j * rng.standard_normal((9, 16))
    acc = 0.0
    for _ in range(400):
        b = (rng.standard_normal((3, 16)) * a[:3]) @ a.conj().T
        acc += float(np.abs(b).sum()) + sum(x * 0.5 for x in range(20))
    return acc


class Recorder:
    """Runs ops one at a time and keeps their timings, checks and outputs.

    Each op's wall time and the process's CPU time during it are kept; so is
    the (wall, CPU) time of each calibration kernel run.
    """

    def __init__(self, workload, seed: int, run_op=None):
        self.workload = workload
        self.seed = seed
        self.run_op = run_op or (lambda index, fn, *args: fn(*args))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.cpu_times: list[float] = []
        self.calibrations: list[tuple[float, float]] = []
        self.summaries: list = []
        self.secrecies: list[float | None] = []

    def attempt(self, index: int, timed: bool = True):
        """Run, time and check op ``index``; an exception or failed check fails the op."""
        self.attempted += 1
        start, cpu_start = time.perf_counter(), time.process_time()
        problems = None
        try:
            result = self.run_op(index, self.workload.op, self.seed, index)
        except Exception:  # a raising op is a failed op; the run goes on
            result, problems = None, [traceback.format_exc(limit=3).strip()]
        elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        if problems is None:
            problems = self.workload.check(result)
        if problems:
            self.failed += 1
            for p in problems:
                self.failures.append(f"op {index}: {p}")
                print(f"check failed: {self.failures[-1]}", file=sys.stderr)
        if timed:
            self.latencies.append(elapsed)
            self.cpu_times.append(cpu)
            self.summaries.append(None if result is None else self.workload.summary(result))
            self.secrecies.append(None if problems else self.workload.secrecy(result))

    def loop(self, min_ops: int, seconds: float, calibrate: bool = False) -> float:
        """Ops 0, 1, ... until at least ``min_ops`` ran and ``seconds`` passed; returns wall time.

        With ``calibrate``, the calibration kernel is timed after every op.
        """
        start = time.perf_counter()
        index = 0
        while index < min_ops or time.perf_counter() - start < seconds:
            self.attempt(index)
            index += 1
            if calibrate:
                t0, c0 = time.perf_counter(), time.process_time()
                calibration_kernel()
                self.calibrations.append((time.perf_counter() - t0, time.process_time() - c0))
        return time.perf_counter() - start

    def replay(self, count: int) -> float:
        """Ops 0 .. count-1; returns wall time."""
        start = time.perf_counter()
        for index in range(count):
            self.attempt(index)
        return time.perf_counter() - start


def digest(summaries) -> str:
    h = hashlib.sha256()
    for s in summaries:
        h.update(repr(s).encode())
        h.update(b"\n")
    return h.hexdigest()


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest well-sampled percentile."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0  # too few samples: the maximum
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def scaled(times, kernel_times) -> np.ndarray:
    """Each time scaled to reference speed by the kernel runs nearest to it.

    ``kernel_times[i]`` is the kernel run that followed ``times[i]``; both in
    seconds, on the same clock.
    """
    k = np.asarray(kernel_times)
    half = CAL_WINDOW // 2
    local = np.array([np.median(k[max(0, i - half) : i + half + 1]) for i in range(len(k))])
    return np.asarray(times) * (REF_CAL_MS / 1e3) / local


def setup_time(workload, seed: int, reps: int) -> list[tuple[float, float]]:
    """(set-up, kernel) wall seconds, in fresh processes.

    Set-up is importing masec and building the first scenario.  The kernel is
    timed once it is warm, right after.
    """
    code = (
        "import time; t0 = time.perf_counter(); import workloads; "
        f"workloads.WORKLOADS[{workload.name!r}].first_scenario({seed}); "
        "t = time.perf_counter() - t0; import bench; bench.calibration_kernel(); "
        "t0 = time.perf_counter(); bench.calibration_kernel(); "
        "print(repr(t), repr(time.perf_counter() - t0))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(BENCH_DIR)])
    times = []
    for _ in range(reps):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=REPO_ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        setup, kernel = done.stdout.strip().splitlines()[-1].split()
        times.append((float(setup), float(kernel)))
    return times


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(workload, seed, seconds, trace) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "masec": getattr(masec, "__version__", "unknown"),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": workload.name,
        "seed": seed,
        "op_inputs": "numpy default_rng / SeedSequence seeded by [seed, op index, ...]",
        "sizes": workload.sizes(),
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, one op at a time, single process",
    }


def per_layer(spans: dict, counters: dict, n_ops: int, overhead: float) -> tuple[dict, list]:
    """Per-layer metrics from spans and counters; also each span's self share."""
    names = spans["names"][spans["name_id"]]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    calls = {str(n): int(np.sum(names == n)) for n in spans["names"]}
    self_s = {str(n): float(own[names == n].sum()) for n in spans["names"]}
    parent_names = np.where(spans["parent"] >= 0, names[np.maximum(spans["parent"], 0)], "")

    def ratio(num, den):
        return num / den if den else 0.0

    def nested(child, parent):
        return int(np.sum((names == child) & (parent_names == parent)))

    m = {}
    for name, _, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls_per_op":
            m[name] = calls.get(layer, 0) / n_ops
        elif stat == "self_ms_per_op":
            parts = BATCH_CHANNELS if layer == "channel.batch_channels" else (layer,)
            m[name] = 1e3 * sum(self_s.get(p, 0.0) for p in parts) / n_ops
    m["channel.draw_batch.used_ratio"] = ratio(
        counters.get("gains_read", 0), counters.get("gains_drawn", 0)
    )
    m["geometry.project_move.reject_ratio"] = ratio(
        counters.get("project_rejected", 0), calls.get("geometry.project_move", 0)
    )
    for stage in ("optimizer.pga_w", "optimizer.pga_t"):
        m[f"{stage}.steps_per_call"] = ratio(
            nested("channel.draw_batch", stage), calls.get(stage, 0)
        )
    m["optimizer.accept_ratio"] = ratio(
        counters.get("accepted", 0), calls.get("optimizer.metropolis_accept", 0)
    )
    m["trace.overhead_ratio"] = overhead

    total = float((spans["end"] - spans["start"])[names == ROOT].sum())
    shares = sorted(((s / total if total else 0.0, n) for n, s in self_s.items()), reverse=True)
    return m, shares


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        min_ops: int | None = None, setup_reps: int = SETUP_REPS) -> dict:
    """One benchmark run; returns the full record (``result`` is the last line printed)."""
    wl = workloads.WORKLOADS[workload_name]
    record = {"manifest": manifest(wl, seed, seconds, trace)}
    rec = Recorder(wl, seed)
    if not trace:
        setups = setup_time(wl, seed, setup_reps)
        rec.attempt(workloads.WARMUP_INDEX, timed=False)
        calibration_kernel()
        panel = min_ops if min_ops is not None else wl.panel
        wall = rec.loop(panel, seconds, calibrate=True)
        cal_wall, cal_cpu = zip(*rec.calibrations)
        raw_setup, setup_kernel = zip(*setups)
        cpu_ms = 1e3 * scaled(rec.cpu_times, cal_cpu)
        wall_ms = 1e3 * scaled(rec.latencies, cal_wall)
        tail_ms, tail_pct, beyond = tail(cpu_ms)
        good = [s for s in rec.secrecies[:panel] if s is not None]
        values = {
            "setup_s": float(np.median(scaled(raw_setup, setup_kernel))),
            "ops_per_s": 1e3 * len(wall_ms) / wall_ms.sum(),
            "op_ms_p50": float(np.median(cpu_ms)),
            "op_ms_tail": tail_ms,
            "secrecy_mean": float(np.mean(good)) if good else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw_cpu_ms = [1e3 * t for t in rec.cpu_times]
        raw_wall_ms = [1e3 * t for t in rec.latencies]
        record["details"] = {
            "as_measured": {
                "setup_s": statistics.median(raw_setup),
                "ops_per_s": len(rec.latencies) / sum(rec.latencies),
                "op_ms_p50": statistics.median(raw_cpu_ms),
                "op_ms_tail": tail(raw_cpu_ms)[0],
                "op_wall_ms_p50": statistics.median(raw_wall_ms),
                "op_wall_ms_tail": tail(raw_wall_ms)[0],
            },
            "calibration_ms": {
                "cpu_median": 1e3 * statistics.median(cal_cpu),
                "wall_median": 1e3 * statistics.median(cal_wall),
                "wall_min": 1e3 * min(cal_wall),
                "wall_max": 1e3 * max(cal_wall),
                "setup_wall_median": 1e3 * statistics.median(setup_kernel),
            },
            "wall_s": wall,
            "setup_s_samples": setups,
            "tail_percentile": tail_pct,
            "tail_samples_beyond": beyond,
            "ops_timed": len(cpu_ms),
            "panel_ops": panel,
            "digest": digest(rec.summaries[:panel]),
        }
        layers = END_TO_END
    else:
        rec.attempt(workloads.WARMUP_INDEX, timed=False)
        n_min = min_ops if min_ops is not None else TRACE_MIN_OPS
        plain_wall = rec.loop(n_min, seconds / 2.0)
        n_ops = len(rec.latencies)
        plain = rec.summaries
        tracer = Tracer()
        traced = Recorder(wl, seed, run_op=tracer.run_op)
        tracer.install(TARGETS)
        try:
            traced_wall = traced.replay(n_ops)
        finally:
            tracer.uninstall()
        for index, (a, b) in enumerate(zip(plain, traced.summaries)):
            if a != b:
                traced.failed += 1
                traced.failures.append(f"op {index}: traced output differs from untraced")
        rec.attempted += traced.attempted
        rec.failed += traced.failed
        rec.failures += traced.failures
        spans = tracer.spans()
        values, shares = per_layer(spans, tracer.counters, n_ops, traced_wall / plain_wall)
        record["details"] = {
            "ops_per_pass": n_ops,
            "untraced_wall_s": plain_wall,
            "traced_wall_s": traced_wall,
            "absent": tracer.absent,
            "counters": tracer.counters,
            "self_share": [[n, s] for s, n in shares],
            "span_count": int(len(spans["start"])),
            "digest": digest(plain[:n_min]),
            "panel_ops": n_min,
        }
        record["spans"] = spans
        layers = PER_LAYER
    failed = rec.failed
    record["details"]["failures"] = rec.failures
    record["details"]["error_ratio"] = failed / rec.attempted
    record["result"] = {
        "correct": failed == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, *_ in layers},
    }
    return record


def spec() -> dict:
    """The contents of BENCHMARK.json, from the definitions above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_record(record: dict, workload: str, seed: int, trace: bool) -> Path:
    """Write the record (and spans, if traced) under ``perfbench/out``."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    spans = record.pop("spans", None)
    if spans is not None:
        np.savez_compressed(stem.with_suffix(".spans.npz"), **spans)
    path = stem.with_suffix(".json")
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return path


def report(record: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, then the details."""
    res, det, man = record["result"], record["details"], record["manifest"]
    lines = [f"workload {man['workload']} seed {man['seed']} trace {int(man['trace'])}"]
    measured = det.get("as_measured", {})
    for name, m in res["metrics"].items():
        notes = []
        if name == "op_ms_tail":
            notes.append(f"p{det['tail_percentile']:.1f}, {det['tail_samples_beyond']} of "
                         f"{det['ops_timed']} samples beyond")
        elif name == "secrecy_mean":
            notes.append(f"mean over the {det['panel_ops']}-op panel")
        elif name == "setup_s":
            notes.append(f"median of {len(det['setup_s_samples'])} fresh-process set-ups")
        elif name in NOTES:
            notes.append(NOTES[name])
        if name in measured:
            notes.append(f"{measured[name]:.6g} as measured")
        note = f"  ({'; '.join(notes)})" if notes else ""
        lines.append(f"{name} {m['value']:.6g} {m['unit']}{note}")
    if measured:
        cal = det["calibration_ms"]
        lines.append(f"op wall time as measured: p50 {measured['op_wall_ms_p50']:.6g} ms, "
                     f"tail {measured['op_wall_ms_tail']:.6g} ms")
        lines.append(f"calibration kernel: median {cal['cpu_median']:.4g} ms CPU, "
                     f"{cal['wall_median']:.4g} ms wall ({cal['wall_min']:.4g} to "
                     f"{cal['wall_max']:.4g}); timings scaled to its {REF_CAL_MS} ms reference")
    lines.append(f"error_ratio {det['error_ratio']:.6g} ratio  "
                 f"({res['failed']} failed of {res['attempted']} attempted)")
    lines.append(f"digest sha256:{det['digest']}  (first {det['panel_ops']} ops)")
    if "self_share" in det:
        lines.append("absent targets (their metrics read 0): " + (", ".join(det["absent"]) or "none"))
        lines.append("self share: " + ", ".join(f"{n} {s:.1%}" for n, s in det["self_share"][:6]))
    return lines
