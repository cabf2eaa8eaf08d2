"""Command-line interface.

Subcommands: track (per-slot tracking CSV), sweep-angle (optimal
elevation across weights and altitudes), tradeoff (rate vs sensing
Pareto frontier), solve-sp1 (one geometry solve, printed), validate
(runtime check suite).

Every file-producing subcommand also writes <out>.manifest.json with
the resolved parameters, seed, argv, output digest, and tool version,
sufficient to reproduce the output byte for byte.  Numeric CSV cells
use 17 significant digits so round-tripping through text is lossless.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 infeasible model (rate target unreachable at any offset), 4 any other
refusal by the package (a UavIsacError such as a singular matrix or a
failed bracket), printed as one line on stderr.  A refused command
writes no output file and no manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import platform
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, InfeasibleQosError, UavIsacError
from .optimize import solve_sp1, sweep_angle, tradeoff_frontier
from .params import PARAM_FIELD_NAMES, SystemParams
from .simulate import ScenarioConfig, SlotRecord, run_scenario
from .validate import run_all

_INT_FIELDS = frozenset(("n_t", "n_r"))
# sweep-angle and tradeoff hold their rows in memory (about 5 kB per height
# while sweep-angle solves an alpha), so more rows are refused before any is built
MAX_GRID_ROWS = 100_000

TRACK_COLUMNS = (
    "n", "t_s", "x_true_m", "v_true_mps", "x_hat_m", "v_hat_mps",
    "x_breve_m", "v_breve_mps", "x_uav_m", "v_uav_mps",
    "pcrb_x_pred", "pcrb_v_pred", "pcrb_x_actual", "pcrb_v_actual",
    "weighted_actual", "rate_bpshz", "tr_mp", "tr_mm",
)
# the values of TRACK_COLUMNS: the SlotRecord fields before flagged, in order
_track_row = operator.attrgetter(*(f.name for f in fields(SlotRecord)[:-1]))


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def _build_params(overrides: dict) -> SystemParams:
    try:
        return SystemParams(**overrides)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _param_value(key: str, value: str) -> int | float:
    """The value of SystemParams field key, read from text, or ConfigError."""
    if key not in PARAM_FIELD_NAMES:
        raise ConfigError(f"unknown parameter {key!r}")
    try:
        return int(value) if key in _INT_FIELDS else float(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def _load_params(path: str | None) -> SystemParams:
    """Read a flat 'key = value' file whose keys are SystemParams field
    names.  Blank lines and #-comments are ignored."""
    overrides: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key = key.strip()
            try:
                overrides[key] = _param_value(key, value.strip())
            except ConfigError as exc:
                raise ConfigError(f"{path}:{ln}: {exc}") from exc
    return _build_params(overrides)


def _resolve_seed(cli_seed: int) -> int:
    env = os.environ.get("ISAC_SEED")
    if env is None:
        return cli_seed
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigError(f"ISAC_SEED must be an integer, got {env!r}") from exc


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}") from exc
    if not values:
        raise ConfigError(f"empty number list {text!r}")
    return values


def _write_output(path: str, lines: list[str]) -> str:
    data = ("\n".join(lines) + "\n").encode()
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _write_manifest(out_path: str, subcommand: str, argv: list[str],
                    params: SystemParams, seed, sha256: str) -> None:
    manifest = {
        "subcommand": subcommand,
        "argv": argv,
        "params": {name: getattr(params, name) for name in PARAM_FIELD_NAMES},
        "seed": seed,
        "output": {"path": str(out_path), "sha256": sha256},
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_track(args) -> int:
    params = _load_params(args.config)
    seed = _resolve_seed(args.seed)
    if args.every is not None and args.every < 1:
        raise ConfigError(f"--every must be >= 1, got {args.every}")
    cfg = ScenarioConfig(n_slots=args.slots, seed=seed,
                         scheme=args.scheme.replace("-", "_"))
    records = run_scenario(cfg, params)
    lines = [",".join(TRACK_COLUMNS)]
    lines += [",".join(_fmt(value) for value in _track_row(r)) for r in records]
    sha = _write_output(args.out, lines)
    _write_manifest(args.out, "track", args.argv, params, seed, sha)
    if args.every is not None:
        # decimated preview on stdout; the stored file keeps every slot
        print(lines[0])
        for r, line in zip(records, lines[1:]):
            if r.slot % args.every == 0:
                print(line)
    return 0


def cmd_sweep_angle(args) -> int:
    params = SystemParams()
    alphas = _parse_float_list(args.alphas)
    for a in alphas:
        _build_params({"alpha": a})  # refuses an alpha outside [0, 1]
    if not (0 < args.h_min <= args.h_max < math.inf and 0 < args.h_step < math.inf):
        raise ConfigError("need finite h_min > 0, h_step > 0 and h_max >= h_min")
    span = (args.h_max - args.h_min) / args.h_step
    if not len(alphas) * (span + 1.0) <= MAX_GRID_ROWS:
        raise ConfigError(f"{len(alphas)} alphas x {span + 1.0:.6g} heights is more than "
                          f"{MAX_GRID_ROWS} rows")
    count = int(math.floor(span + 1e-9)) + 1
    h_values = [args.h_min + i * args.h_step for i in range(count)]
    lines = ["alpha,H_m,x_star_m,phi_star_deg,branch"]
    for a, h, x_star, phi_deg, branch in sweep_angle(params, alphas, h_values):
        lines.append(f"{_fmt(a)},{_fmt(h)},{_fmt(x_star)},{_fmt(phi_deg)},{branch}")
    sha = _write_output(args.out, lines)
    _write_manifest(args.out, "sweep-angle", args.argv, params, None, sha)
    return 0


def cmd_tradeoff(args) -> int:
    alphas = _parse_float_list(args.alphas)
    if args.x_grid < 2:
        raise ConfigError(f"--x-grid must be >= 2, got {args.x_grid}")
    if len(alphas) * args.x_grid > MAX_GRID_ROWS:
        raise ConfigError(f"{len(alphas)} alphas x --x-grid {args.x_grid} is more than "
                          f"{MAX_GRID_ROWS} rows")
    base = _build_params({"a1": args.a1})
    lines = ["alpha,x_m,rate_bpshz,sensing_perf"]
    for a in alphas:
        for row in tradeoff_frontier(_build_params({"a1": args.a1, "alpha": a}), args.x_grid):
            lines.append(",".join(_fmt(v) for v in row))
    sha = _write_output(args.out, lines)
    _write_manifest(args.out, "tradeoff", args.argv, base, None, sha)
    return 0


def cmd_solve_sp1(args) -> int:
    overrides: dict = {}
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.h is not None:
        overrides["h_alt"] = args.h
    for item in args.set or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects FIELD=VALUE, got {item!r}")
        key = key.strip()
        overrides[key] = _param_value(key, value.strip())
    params = _build_params(overrides)
    res = solve_sp1(params)
    print(f"x_star_m = {_fmt(res.x_star)}")
    print(f"phi_star_deg = {_fmt(math.degrees(res.phi_star))}")
    print(f"v_star_mps = {_fmt(res.v_star)}")
    print(f"g_star = {_fmt(res.g_star)}")
    print(f"bracket_m = [{_fmt(res.x_l)}, {_fmt(res.x_u)}]")
    print(f"branch = {res.branch}")
    return 0


def cmd_validate(args) -> int:
    results = run_all()
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uav-isac",
        description="Tracking-platform simulation, optimization and validation tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run one tracking scenario to CSV")
    p_track.add_argument("config", nargs="?", default=None,
                         help="flat key = value parameter file")
    p_track.add_argument("--scheme", choices=("proposed", "right-above"),
                         default="proposed")
    p_track.add_argument("--seed", type=int, default=0)
    p_track.add_argument("--slots", type=int, default=100)
    p_track.add_argument("--out", default="track.csv")
    p_track.add_argument("--every", type=int, default=None,
                         help="print every Nth slot to stdout (file is never decimated)")
    p_track.set_defaults(func=cmd_track)

    p_sweep = sub.add_parser("sweep-angle",
                             help="optimal elevation angle across (alpha, H)")
    p_sweep.add_argument("--alphas", default="0,0.5,1",
                         help="comma-separated weights")
    p_sweep.add_argument("--h-min", type=float, default=10.0)
    p_sweep.add_argument("--h-max", type=float, default=100.0)
    p_sweep.add_argument("--h-step", type=float, default=5.0)
    p_sweep.add_argument("--out", default="sweep_angle.csv")
    p_sweep.set_defaults(func=cmd_sweep_angle)

    p_trade = sub.add_parser("tradeoff",
                             help="rate vs sensing Pareto frontier per weight")
    p_trade.add_argument("--alphas", default="0,0.25,0.5,0.75,1")
    p_trade.add_argument("--a1", type=float, default=0.15,
                         help="angle-accuracy constant override")
    p_trade.add_argument("--x-grid", type=int, default=2001,
                         help="grid points across [0, x_c]")
    p_trade.add_argument("--out", default="tradeoff.csv")
    p_trade.set_defaults(func=cmd_tradeoff)

    p_sp1 = sub.add_parser("solve-sp1", help="solve the geometry problem once")
    p_sp1.add_argument("--alpha", type=float, default=None)
    p_sp1.add_argument("--H", dest="h", type=float, default=None)
    p_sp1.add_argument("--set", action="append", metavar="FIELD=VALUE",
                       help="override any system parameter")
    p_sp1.set_defaults(func=cmd_solve_sp1)

    p_val = sub.add_parser("validate", help="run the runtime check suite")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args_list = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(args_list)
    args.argv = args_list
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleQosError as exc:
        print(f"infeasible model: {exc}", file=sys.stderr)
        return 3
    except UavIsacError as exc:
        print(f"refused: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
