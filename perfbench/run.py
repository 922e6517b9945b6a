"""Run one workload of the masec benchmark and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload optimize-default --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (run manifest,
tail percentile, digest, failures, and for traced runs the spans) goes under
``perfbench/out/``.  Timings are scaled to a reference speed (see README.md).
The package is imported from ``src/`` of this checkout; without it the run
exits with code 2 and prints no result.

    python3 perfbench/run.py --write-spec

writes ``BENCHMARK.json`` from the workloads and metrics defined here.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from the benchmark's definitions and exit")
    args = ap.parse_args(argv)
    if not args.write_spec and None in (args.workload, args.seed, args.seconds):
        ap.error("--workload, --seed and --seconds are required")
    if not args.write_spec and (args.seed < 0 or args.seconds < 0):
        ap.error("--seed and --seconds must be >= 0")
    if not (SRC / "masec" / "__init__.py").is_file():
        print(f"error: no masec package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # one BLAS thread, before numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench
    import masec

    if Path(masec.__file__).resolve().parent != (SRC / "masec").resolve():
        print(f"error: imported masec from {masec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.write_spec:
        path = BENCH_DIR.parent / "BENCHMARK.json"
        path.write_text(json.dumps(bench.spec(), indent=2) + "\n")
        print(f"wrote {path.name}")
        return 0
    if args.workload not in bench.workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(bench.workloads.WORKLOADS)}")
    record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = bench.write_record(record, args.workload, args.seed, bool(args.trace))
    for line in bench.report(record):
        print(line)
    print(f"record {path.relative_to(BENCH_DIR.parent)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
