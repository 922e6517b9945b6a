"""Command-line front end.

Subcommands: ``optimize`` (one annealed joint optimization, writes the
iteration trace), ``check-grad`` (finite-difference audit of both analytic
gradients), ``sweep`` (Monte-Carlo method comparison over a parameter grid),
and ``onedsearch`` (per-antenna line search on the movable line array).

Configuration is a flat ``key = value`` file mirroring ScenarioConfig field
names; ``--set key=value`` overrides win over file values.  All randomness
derives from ``--seed`` (default: the config's seed, itself defaulting to 0),
so every subcommand is reproducible byte-for-byte.

Exit codes: 0 success, 1 usage error (also an output path that cannot be
written; the output directory is made before any computation), 2 infeasible
scenario, 3 audit failure, 4 optimizer broke an invariant (a ``ValueError``,
an infeasibility among them, raised by a stage of ``sa_pga`` after the
scenario was built; ``optimize`` and ``sweep``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .geometry import InfeasibleRegionError
from .gradients import run_fd_audit
from .harness import (
    SWEEP_VARIABLES,
    ScenarioConfig,
    build_scenario,
    one_dim_search,
    run_sweep,
    sweep_cells,
)
from .optimizer import OptimizerInvariantError, sa_pga

__all__ = ["main", "load_config", "parse_grid"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_AUDIT = 3
EXIT_OPTIMIZER = 4

DEFAULT_GRADW_TOL = 1e-4
DEFAULT_GRADT_TOL = 1e-3

SWEEP_CSV_HEADER = (
    "sweep_var,sweep_value,method,rep_count,mean_secrecy,"
    "mean_bob_capacity,mean_eve_capacity,seed_base"
)
TRACE_CSV_HEADER = "iter,objective,accepted,temperature"
ONEDSEARCH_CSV_HEADER = "mode,antennas_moved,secrecy,baseline"
# Mean secrecy per method from the sweep.csv beside it; gnuplot runs from that directory.
GNUPLOT_STUB = """set datafile separator ','
set ylabel 'mean secrecy rate (bits/s/Hz)'
set key top left
plot for [meth in 'MA ULA UPA'] 'sweep.csv' using 2:(strcol(3) eq meth ? $5 : 1/0) with linespoints title meth
"""


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


_CFG_FIELDS = {f.name: f for f in dataclasses.fields(ScenarioConfig)}


def _parse_value(name: str, raw: str):
    if name not in _CFG_FIELDS:
        raise UsageError(f"unknown config key {name!r}")
    raw = raw.strip()
    ftype = _CFG_FIELDS[name].type
    # An empty value is None; so is "none", except in a str field, which keeps it as text.
    if raw == "" or (raw.lower() == "none" and not ftype.startswith("str")):
        if "None" in ftype:
            return None
        raise UsageError(f"config key {name!r} cannot be none")
    try:
        if ftype.startswith("bool"):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if ftype.startswith("int"):
            return int(raw)
        if ftype.startswith("float"):
            return float(raw)
        return raw  # str fields
    except ValueError as exc:
        raise UsageError(f"bad value for config key {name!r}: {raw!r}") from exc


def _read_config(path: str | None, overrides: list[str]) -> dict:
    """The keys the config file and --set overrides give, with parsed values.

    Strict about unknown keys; overrides win over file values.
    """
    values = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise UsageError(f"config file not found: {path}")
        for lineno, line in enumerate(p.read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = _parse_value(key, raw)
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        values[key] = _parse_value(key, raw)
    return values


def load_config(path: str | None, overrides: list[str], **defaults) -> ScenarioConfig:
    """Config file plus --set overrides over the command's ``defaults``, strict about unknown keys."""
    return ScenarioConfig(**{**defaults, **_read_config(path, overrides)})


def dump_config(cfg: ScenarioConfig, path: Path):
    """Reloadable flat dump of the effective configuration.

    None is written as ``none``, or, in a str field, where ``none`` is text,
    as an empty value.
    """
    lines = []
    for f in dataclasses.fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        if value is None:
            text = "" if f.type.startswith("str") else "none"
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    path.write_text("\n".join(lines) + "\n")


def _write_csv(path: Path, header: str, rows):
    """Header names, then rows, through csv.writer: each line ends in \\r\\n, a float is its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header.split(","))
        writer.writerows(rows)


def parse_grid(spec: str) -> list[float]:
    """Grid syntax: comma list '1,2,3' or range 'start:stop:step', which never passes stop; finite, nonempty."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"range grid must be start:stop:step, got {spec!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise UsageError(f"bad grid range {spec!r}") from exc
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise UsageError(f"bad grid range {spec!r}")
        # The slack keeps stop on an exact division; min keeps rounding from passing stop.
        count = math.floor((stop - start) / step * (1 + 1e-9)) + 1
        return [min(start + i * step, stop) for i in range(count)]
    try:
        grid = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad grid list {spec!r}") from exc
    if not grid or not all(map(math.isfinite, grid)):
        raise UsageError(f"grid list must be nonempty and finite, got {spec!r}")
    return grid


def _add_common(sub: argparse.ArgumentParser, out: bool = True):
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--seed", type=int, default=None, help="master seed (default: config seed)")
    if out:  # check-grad writes no file
        sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="masec", description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("optimize", help="run the annealed joint optimization"))

    p_grad = subs.add_parser("check-grad", help="finite-difference gradient audit")
    _add_common(p_grad, out=False)
    p_grad.add_argument("--instances", type=int, default=100)
    p_grad.add_argument(
        "--tolerance", type=float, default=None,
        help=f"max relative L2 error for both audits (defaults {DEFAULT_GRADW_TOL}/{DEFAULT_GRADT_TOL})",
    )

    p_sweep = subs.add_parser("sweep", help="Monte-Carlo comparison over a parameter grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--var", required=True, choices=SWEEP_VARIABLES)
    p_sweep.add_argument("--grid", required=True, help="'1,2,3' or 'start:stop:step'")
    p_sweep.add_argument("--reps", type=int, default=200)
    p_sweep.add_argument("--gnuplot", action="store_true", help="also write a gnuplot stub")

    p_oned = subs.add_parser("onedsearch", help="one-dimensional line-array search")
    _add_common(p_oned)
    return parser


def _effective_seed(args, cfg: ScenarioConfig) -> int:
    seed = args.seed if args.seed is not None else cfg.seed
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    return seed


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_optimize(args) -> int:
    cfg = load_config(args.config, args.overrides)
    seed = _effective_seed(args, cfg)
    out = _outdir(args)
    scenario = build_scenario(cfg, np.random.default_rng(seed))
    best, trace, temperature = sa_pga(scenario, np.random.default_rng([seed, 1]), cfg)
    rows = ((rec.iteration, float(rec.objective), int(rec.accepted), float(rec.temperature)) for rec in trace)
    _write_csv(out / "trace.csv", TRACE_CSV_HEADER, rows)
    dump_config(dataclasses.replace(cfg, seed=seed), out / "config_used.txt")
    accepted = sum(rec.accepted for rec in trace)
    lines = [
        f"seed = {seed}",
        f"iterations = {len(trace)}",
        f"accepted = {accepted}",
        f"initial_secrecy = {repr(scenario.initial.secrecy)}",
        f"best_secrecy = {repr(best.secrecy)}",
        f"best_worst_user = {best.worst_k}",
        f"best_eve_position = {best.best_m}",
        f"final_power = {repr(best.W.total_power())}",
        f"final_temperature = {repr(temperature)}",
        "final_positions =",
    ]
    for n, pos in enumerate(best.layout.positions):
        lines.append(f"  antenna {n}: {float(pos[0])!r} {float(pos[1])!r} {float(pos[2])!r}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print(f"best worst-user secrecy rate: {best.secrecy:.6f} bits/s/Hz "
          f"({accepted}/{len(trace)} iterations accepted)")
    print(f"outputs in {out}")
    return EXIT_OK


def cmd_check_grad(args) -> int:
    cfg = load_config(args.config, args.overrides)
    seed = _effective_seed(args, cfg)
    if args.instances < 1:
        raise UsageError(f"--instances must be >= 1, got {args.instances}")
    if args.tolerance is not None and not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise UsageError(f"--tolerance must be a positive finite number, got {args.tolerance}")
    report = run_fd_audit(instances=args.instances, seed=seed, noise=cfg.noise)
    tol_w = args.tolerance if args.tolerance is not None else DEFAULT_GRADW_TOL
    tol_t = args.tolerance if args.tolerance is not None else DEFAULT_GRADT_TOL
    ok_w = report["max_err_w"] < tol_w
    ok_t = report["max_err_t"] < tol_t
    print(f"instances: {report['instances']}  seed: {report['seed']}")
    print(f"beam gradient:     max relative L2 error {report['max_err_w']:.3e} "
          f"(tolerance {tol_w:g}) {'PASS' if ok_w else 'FAIL'}")
    print(f"position gradient: max relative L2 error {report['max_err_t']:.3e} "
          f"(tolerance {tol_t:g}) {'PASS' if ok_t else 'FAIL'}")
    return EXIT_OK if (ok_w and ok_t) else EXIT_AUDIT


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.overrides)
    seed = _effective_seed(args, cfg)
    grid = parse_grid(args.grid)
    if args.reps < 1:
        raise UsageError(f"--reps must be >= 1, got {args.reps}")
    for name in ("array_kind", "movable"):  # each method sets these itself, so another value would not run
        if getattr(cfg, name) != _CFG_FIELDS[name].default:
            raise UsageError(f"sweep sets {name} per method; it cannot take {name}={getattr(cfg, name)}")
    try:  # every grid point, with each method's config and layout, is checked before any rep runs
        sweep_cells(cfg, args.var, grid)
    except InfeasibleRegionError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = _outdir(args)
    results = run_sweep(args.var, grid, args.reps, cfg, seed)
    csv_path = out / "sweep.csv"
    _write_csv(csv_path, SWEEP_CSV_HEADER, map(dataclasses.astuple, results))
    dump_config(dataclasses.replace(cfg, seed=seed), out / "config_used.txt")
    if args.gnuplot:
        (out / "sweep.gp").write_text(GNUPLOT_STUB)
    print(f"{len(results)} rows ({len(grid)} grid points x {len(results) // len(grid)} methods) "
          f"-> {csv_path}")
    return EXIT_OK


def cmd_onedsearch(args) -> int:
    cfg = load_config(args.config, args.overrides, num_antennas=6)  # unless the file or an override says otherwise
    seed = _effective_seed(args, cfg)
    out = _outdir(args)
    result = one_dim_search(cfg, np.random.default_rng(seed))
    path = out / "onedsearch.csv"
    rows = (
        (mode, c, float(rate), float(result.baseline))
        for mode, curve in (("move_all", result.move_all), ("move_parts", result.move_parts))
        for c, rate in enumerate(curve, start=1)
    )
    _write_csv(path, ONEDSEARCH_CSV_HEADER, rows)
    dump_config(dataclasses.replace(result.cfg, seed=seed), out / "config_used.txt")  # the ULA the search ran
    print(f"baseline {result.baseline:.6f}, best move-parts {result.move_parts.max():.6f} "
          f"-> {path}")
    return EXIT_OK


_COMMANDS = {
    "optimize": cmd_optimize,
    "check-grad": cmd_check_grad,
    "sweep": cmd_sweep,
    "onedsearch": cmd_onedsearch,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleRegionError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OptimizerInvariantError as exc:  # the scenario built fine, so the optimizer is at fault
        print(f"optimizer broke an invariant: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER


if __name__ == "__main__":
    sys.exit(main())
