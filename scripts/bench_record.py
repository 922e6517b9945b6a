"""Record the benchmark of one checkout in ``BENCH_<N>.json`` at the repo root.

Usage, from the repository root:

    python3 scripts/bench_record.py --number N --label change --seed 523 --tier1-seconds 674
    python3 scripts/bench_record.py --number N --label parent --checkout ../masec-parent \
        --seed 523 --tier1-seconds 884

``N`` names the output file ``BENCH_N.json``; ``../masec-parent`` stands for a
clone of the parent commit.

For every workload that the checkout's ``BENCHMARK.json`` lists, this runs the
checkout's ``perfbench/run.py`` once untraced (end-to-end metrics) and once
traced (per-layer metrics), each for the ``run_seconds`` that ``BENCHMARK.json``
sets, so a parent and its change are recorded at the same run length, then reads the records that run writes under the
checkout's ``perfbench/out/``.  It stores them under ``--label`` with the
run manifest, the output digests, the failure counts and the Tier-1 wall time
given on the command line (the full test suite is not run here).  Entries
under other labels stay, so one file holds a parent and its change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("cpu_model", "nproc", "affinity_cpus", "platform", "python", "numpy", "blas_threads")


def _git(checkout: Path, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(checkout: Path) -> str:
    """sha256 over the paths and bytes of the checkout's ``src/**/*.py``."""
    h = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return "sha256:" + h.hexdigest()


def run_workload(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload with the checkout's benchmark and return its record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    print(f"[{checkout.name}] {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
    subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    path = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def _values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def record_checkout(checkout: Path, seed: int, seconds: float) -> dict:
    """End-to-end and per-layer figures of every workload of one checkout."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads, machine = {}, None
    for wl in spec["workloads"]:
        name = wl["name"]
        plain = run_workload(checkout, name, seed, seconds, 0)
        traced = run_workload(checkout, name, seed, seconds, 1)
        machine = machine or {k: plain["manifest"].get(k) for k in MACHINE_KEYS}
        workloads[name] = {
            "sizes": plain["manifest"]["sizes"],
            "end_to_end": _values(plain["result"]),
            "attempted": plain["result"]["attempted"],
            "failed": plain["result"]["failed"],
            "error_ratio": plain["details"]["error_ratio"],
            "tail_percentile": plain["details"]["tail_percentile"],
            "digest": plain["details"]["digest"],
            "per_layer": _values(traced["result"]),
            "traced_attempted": traced["result"]["attempted"],
            "traced_failed": traced["result"]["failed"],
        }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {"machine": machine, "units": units, "workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--number", type=int, required=True, help="N in the file name BENCH_<N>.json")
    ap.add_argument("--label", required=True, help="entry to write, e.g. 'change' or 'parent'")
    ap.add_argument("--checkout", type=Path, default=REPO_ROOT,
                    help="checkout whose benchmark runs (default: this repository)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tier1-seconds", type=float, required=True,
                    help="measured wall time of the checkout's full test suite")
    ap.add_argument("--note", default=None, help="one line of context stored with the entry")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "perfbench" / "run.py").is_file():
        ap.error(f"no perfbench/run.py under {checkout}")
    seconds = json.loads((checkout / "BENCHMARK.json").read_text())["run_seconds"]
    entry = {
        "commit": _git(checkout, "rev-parse", "HEAD"),
        # Only the code the benchmark runs: the BENCH file this script writes is tracked too.
        "uncommitted_changes": bool(
            _git(checkout, "status", "--porcelain", "--untracked-files=no", "--", "src", "perfbench")
        ),
        "source": source_digest(checkout),
        "seed": args.seed,
        "seconds": seconds,
        "tier1_wall_s": args.tier1_seconds,
        **({"note": args.note} if args.note else {}),
        **record_checkout(checkout, args.seed, seconds),
    }
    out = REPO_ROOT / f"BENCH_{args.number}.json"
    data = json.loads(out.read_text()) if out.is_file() else {}
    data.setdefault("benchmark", "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1")
    data.setdefault("entries", {})[args.label] = entry
    out.write_text(json.dumps(data, indent=1, sort_keys=False) + "\n")
    print(f"wrote {args.label} to {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
