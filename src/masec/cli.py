"""Command-line front end.

Subcommands: ``optimize`` (one annealed joint optimization, writes the
iteration trace), ``check-grad`` (finite-difference audit of both analytic
gradients), ``sweep`` (Monte-Carlo method comparison over a parameter grid),
and ``onedsearch`` (per-antenna line search on the movable line array).

Configuration is a flat ``key = value`` file mirroring ScenarioConfig field
names; ``--set key=value`` overrides win over file values.  All randomness
derives from ``--seed`` (default: the config's seed, itself defaulting to 0),
so every subcommand is reproducible byte-for-byte.

Exit codes: 0 success, 1 usage error, 2 infeasible scenario, 3 audit failure,
4 optimizer broke an invariant (an infeasibility raised inside ``sa_pga``,
after the scenario was built; ``optimize`` and ``sweep``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .geometry import InfeasibleRegionError
from .gradients import run_fd_audit
from .harness import (
    SWEEP_VARIABLES,
    OptimizerInvariantError,
    ScenarioConfig,
    build_scenario,
    one_dim_search,
    run_sweep,
    write_gnuplot_stub,
    write_results,
    write_trace,
)
from .optimizer import sa_pga

__all__ = ["main", "load_config", "parse_grid"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_AUDIT = 3
EXIT_OPTIMIZER = 4

DEFAULT_GRADW_TOL = 1e-4
DEFAULT_GRADT_TOL = 1e-3


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
    if raw.lower() in ("none", ""):
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


def _make_config(values: dict) -> ScenarioConfig:
    try:
        return ScenarioConfig(**values)
    except TypeError as exc:
        raise UsageError(str(exc)) from exc


def load_config(path: str | None, overrides: list[str]) -> ScenarioConfig:
    """Config file plus --set overrides, strict about unknown keys."""
    return _make_config(_read_config(path, overrides))


def dump_config(cfg: ScenarioConfig, path: Path):
    """Reloadable flat dump of the effective configuration."""
    lines = []
    for f in dataclasses.fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        if value is None:
            text = "none"
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    path.write_text("\n".join(lines) + "\n")


def parse_grid(spec: str) -> list[float]:
    """Grid syntax: comma list '1,2,3' or inclusive range 'start:stop:step'."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"range grid must be start:stop:step, got {spec!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise UsageError(f"bad grid range {spec!r}") from exc
        if step <= 0 or stop < start:
            raise UsageError(f"bad grid range {spec!r}")
        count = int(round((stop - start) / step)) + 1
        return [start + i * step for i in range(count)]
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad grid list {spec!r}") from exc


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--seed", type=int, default=None, help="master seed (default: config seed)")
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
    _add_common(p_grad)
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
    return args.seed if args.seed is not None else cfg.seed


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_optimize(args) -> int:
    cfg = load_config(args.config, args.overrides)
    seed = _effective_seed(args, cfg)
    scenario = build_scenario(cfg, np.random.default_rng(seed))
    try:
        best, trace, state = sa_pga(scenario, np.random.default_rng([seed, 1]), cfg)
    except InfeasibleRegionError as exc:  # the scenario built fine, so the optimizer is at fault
        print(f"optimizer broke an invariant: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    out = _outdir(args)
    write_trace(trace, out / "trace.csv")
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
        f"final_temperature = {repr(state.temperature)}",
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
    try:
        results = run_sweep(args.var, grid, args.reps, cfg, seed)
    except OptimizerInvariantError as exc:
        print(f"optimizer broke an invariant: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    out = _outdir(args)
    csv_path = out / "sweep.csv"
    write_results(results, csv_path)
    dump_config(dataclasses.replace(cfg, seed=seed), out / "config_used.txt")
    if args.gnuplot:
        write_gnuplot_stub(csv_path, out / "sweep.gp")
    print(f"{len(results)} rows ({len(grid)} grid points x {len(results) // len(grid)} methods) "
          f"-> {csv_path}")
    return EXIT_OK


def cmd_onedsearch(args) -> int:
    # six antennas unless the file or an override says otherwise
    cfg = _make_config({"num_antennas": 6, **_read_config(args.config, args.overrides)})
    cfg = dataclasses.replace(cfg, array_kind="ULA", movable="all")
    seed = _effective_seed(args, cfg)
    result = one_dim_search(cfg, np.random.default_rng(seed))
    out = _outdir(args)
    path = out / "onedsearch.csv"
    with open(path, "w", newline="") as fh:
        fh.write("mode,antennas_moved,secrecy,baseline\n")
        for mode, curve in (("move_all", result.move_all), ("move_parts", result.move_parts)):
            for c, rate in enumerate(curve, start=1):
                fh.write(f"{mode},{c},{float(rate)!r},{float(result.baseline)!r}\n")
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleRegionError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
