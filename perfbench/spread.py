"""Run the benchmark over several seeds and report each metric's median and spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads optimize-default,sweep-desk --seeds 1-10 \
        [--seconds 30] [--out summary.json]

Runs are untraced and sequential, one process at a time.  The spread of a metric is the
distance between the first and third quartiles of its per-seed values
(``statistics.quantiles(values, n=4)``) as a share of their median; it is
compared with the metric's bound in ``BENCHMARK.json``.  Per-seed digests
are listed so two sets of runs can be checked for identical outputs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: str) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        values, digests = {}, {}
        for seed in parse_seeds(args.seeds):
            result, digest = run_once(workload, seed, seconds)
            ok = ok and result["correct"]
            digests[seed] = digest
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, result["correct"], result["failed"], digest[:19],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound} ({spread / bound:.0%} of it)"
            print(f"  {workload} {name}: median {med:.6g} spread {spread:.4f}{flag}", flush=True)
        summary[workload] = {"metrics": rows, "digests": digests}
    if args.out:
        args.out.write_text(json.dumps({"seconds": seconds, "workloads": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
