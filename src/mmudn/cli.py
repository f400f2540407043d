"""Batch command-line front end.

Commands:
  blockage  — per-region blockage parameters and LOS distances from a
              building-statistics CSV (defaults to the Table I regions)
  se        — closed-form SE bounds/asymptote over a density-ratio grid
  sweep     — Monte Carlo SE estimates over a density-ratio grid (one
              point is a one-entry grid)
  allocate  — optimal UL allocation sweep with decoupling gain

Configuration is plain ``key = value`` text (units embedded in key names),
overridable with repeated ``--set key=value`` flags; ``--set`` is the only
way to set a key on the command line.  Every output carries a
``# key = value`` header echoing the resolved configuration.  Exit codes:
0 success, 2 configuration error, 3 numeric failure.

Each command imports the modules it runs on demand, and numpy is the only
library beyond the standard one that any of them loads.  ``allocate``,
``blockage`` and ``se`` load numpy only to expand a ``start:stop:count``
grid; only ``sweep`` loads the simulator and its point-process stack.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import analytic_se as ase
from .errors import AssumptionError, DomainError, NumericError, ParameterError

__all__ = ["main", "run", "read_output_csv"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    """Raised for unknown keys, unparseable files or inconsistent settings."""


# Every recognized configuration key with its parser and default.
def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_ratio(s: str) -> float:
    """A density ratio, which must be positive and finite."""
    v = float(s)
    if not 0 < v < math.inf:
        raise ValueError(f"density ratio must be positive and finite, got {s.strip()!r}")
    return v


def _parse_grid(s: str) -> list[float]:
    """Either a comma list '10,100,1000' or a log-spaced 'start:stop:count'
    of positive density ratios."""
    s = s.strip()
    if ":" in s:
        start, stop, count = s.split(":")
        start, stop, count = _parse_ratio(start), _parse_ratio(stop), int(count)
        if stop <= start or count < 2:
            raise ValueError(f"bad log grid spec: {s!r}")
        import numpy as np

        return [float(x) for x in np.logspace(math.log10(start), math.log10(stop), count)]
    grid = [_parse_ratio(tok) for tok in s.split(",") if tok.strip()]
    if not grid:
        raise ValueError("lambda_hat grid must be nonempty")
    return grid


_KEYS = {
    # densities (per m^2) and propagation
    "lambda_u_per_m2": (float, 1e-4),
    "lambda_mu_per_m2": (float, 2e-4),
    "alpha_m": (float, 2.5),
    "alpha_mu": (float, 4.0),
    "theta_rad": (float, math.pi / 12),
    "r_los_m": (float, 50.0),
    # spectrum / allocation
    "w_m_hz": (float, 500e6),
    "w_mu_hz": (float, 20e6),
    "w_m_ul_hz": (float, 100e6),
    "zeta": (float, 0.25),
    # density-ratio grid
    "lambda_hat_grid": (_parse_grid, [10.0, 100.0, 1000.0]),
    # simulation
    "tier": (str, "muw"),
    "direction": (str, "dl"),
    "decoupled": (_parse_bool, False),
    "replications": (int, 200),
    "fading_draws": (int, 20),
    "window_side_m": (float, 0.0),  # 0 = auto-size for 1000 expected users, else > 0
    "seed": (int, 0),
    "threads": (int, 1),
    # blockage
    "input": (str, ""),  # building-stats CSV; empty = REFERENCE_REGIONS
    # allocation
    "strict_assumptions": (_parse_bool, False),
}


def _load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = {k: default for k, (_, default) in _KEYS.items()}

    def apply(key: str, raw: str, origin: str):
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key {key!r} ({origin})")
        parser, _ = _KEYS[key]
        try:
            cfg[key] = parser(raw.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r} ({origin}): {exc}") from exc

    if path:
        try:
            with open(path) as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{lineno}: expected key = value")
                    key, raw = line.split("=", 1)
                    apply(key, raw, f"{path}:{lineno}")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        apply(key, raw, "--set")
    return cfg


def _config_echo(cfg: dict) -> list[str]:
    lines = []
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, list):
            val = ",".join(f"{v:.10g}" for v in val)
        lines.append(f"{key} = {val}")
    return lines


def _network_params(cfg: dict) -> ase.NetworkParams:
    return ase.NetworkParams(
        # bounds_for, sweep_allocation and sweep_se set lambda_m from each grid point.
        lambda_m=0.0,
        lambda_mu=cfg["lambda_mu_per_m2"],
        lambda_u=cfg["lambda_u_per_m2"],
        alpha_m=cfg["alpha_m"],
        alpha_mu=cfg["alpha_mu"],
        theta=cfg["theta_rad"],
        r_los=cfg["r_los_m"],
    )


def _spectrum_params(cfg: dict):
    from .allocation import SpectrumParams

    return SpectrumParams(
        w_m=cfg["w_m_hz"],
        w_mu_band=cfg["w_mu_hz"],
        w_m_ul=cfg["w_m_ul_hz"],
        zeta=cfg["zeta"],
    )


def _sim_config(cfg: dict):
    from .pointprocess import Window
    from .simulator import SimConfig

    side = cfg["window_side_m"]
    return SimConfig(
        params=_network_params(cfg),
        window=None if side == 0 else Window(side),
        replications=cfg["replications"],
        fading_draws=cfg["fading_draws"],
        master_seed=cfg["seed"],
        tier=cfg["tier"],
        direction=cfg["direction"],
        decoupled=cfg["decoupled"],
        workers=cfg["threads"],
    )


def _emit(rows: list[dict], header: list[str], cfg: dict, out, fmt: str) -> None:
    echo = _config_echo(cfg)
    if fmt == "json":
        # Strict JSON has no NaN or Infinity: a non-finite number prints as null.
        rows = [{k: _json_value(v) for k, v in row.items()} for row in rows]
        json.dump({"config": echo, "rows": rows}, out, indent=2, allow_nan=False)
        out.write("\n")
        return
    for line in echo:
        out.write(f"# {line}\n")
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(row[k]) for k in header])


def _json_value(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _fmt_cell(v):
    if isinstance(v, float):
        return f"{v:.10g}"
    return v


def read_output_csv(path: str) -> tuple[list[str], list[dict]]:
    """Re-parse any CSV this tool emitted: returns (config echo lines, rows)."""
    header_lines: list[str] = []
    with open(path, newline="") as fh:
        rows_raw = []
        for line in fh:
            if line.startswith("#"):
                header_lines.append(line[1:].strip())
            else:
                rows_raw.append(line)
    reader = csv.DictReader(rows_raw)
    rows = []
    for row in reader:
        parsed = {}
        for key, val in row.items():
            try:
                parsed[key] = float(val)
            except (TypeError, ValueError):
                parsed[key] = val
        rows.append(parsed)
    return header_lines, rows


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_blockage(cfg: dict, out, fmt: str) -> None:
    from . import blockage as blk

    if cfg["input"]:
        stats = blk.read_building_stats_csv(cfg["input"])
    else:
        stats = {name: rec["stats"] for name, rec in blk.REFERENCE_REGIONS.items()}
    rows = []
    for region, st in stats.items():
        p = blk.blockage_params(st)
        rows.append(
            dict(
                region=region,
                beta=p.beta,
                eta=p.eta,
                r_los_2d_m=p.r_los_2d,
                r_los_3d_m=p.r_los_3d,
            )
        )
    _emit(rows, ["region", "beta", "eta", "r_los_2d_m", "r_los_3d_m"], cfg, out, fmt)


def _cmd_se(cfg: dict, out, fmt: str) -> None:
    params = _network_params(cfg)
    rows = []
    for lhat in cfg["lambda_hat_grid"]:
        bounds = ase.bounds_for(cfg["tier"], params, lhat)
        rows.append(
            dict(
                lambda_hat=lhat,
                tier=cfg["tier"],
                lower_bound=bounds.lower,
                upper_bound=bounds.upper,
                asymptotic=bounds.asymptotic,
            )
        )
    _emit(
        rows,
        ["lambda_hat", "tier", "lower_bound", "upper_bound", "asymptotic"],
        cfg,
        out,
        fmt,
    )


def _cmd_sweep(cfg: dict, out, fmt: str) -> None:
    from . import simulator as sim

    rows = sim.sweep_se(cfg["lambda_hat_grid"], _sim_config(cfg))
    _emit(rows, sim.SE_CSV_HEADER, cfg, out, fmt)


def _cmd_allocate(cfg: dict, out, fmt: str) -> None:
    from . import allocation as alc

    rows = alc.sweep_allocation(
        cfg["lambda_hat_grid"],
        _network_params(cfg),
        _spectrum_params(cfg),
        strict=cfg["strict_assumptions"],
    )
    for r in rows:
        r["r_d_bits"] = r["r_d"] / ase.NATS_PER_BIT
        r["r_u_bits"] = r["r_u"] / ase.NATS_PER_BIT
        r["r_d_decoupled_bits"] = r["r_d_decoupled"] / ase.NATS_PER_BIT
    _emit(rows, alc.SWEEP_CSV_HEADER, cfg, out, fmt)


_COMMANDS = {
    "blockage": _cmd_blockage,
    "se": _cmd_se,
    "sweep": _cmd_sweep,
    "allocate": _cmd_allocate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmudn",
        description="mmW overlaid ultra-dense network verification lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value configuration file")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            dest="overrides",
            help="override a configuration key (repeatable)",
        )
    return parser


def run(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.overrides)
        buf = io.StringIO()
        _COMMANDS[args.command](cfg, buf, args.format)
    except (ConfigError, ParameterError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, AssumptionError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if args.output:
        try:
            with open(args.output, "w", newline="") as fh:
                fh.write(buf.getvalue())
        except OSError as exc:
            print(f"configuration error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
