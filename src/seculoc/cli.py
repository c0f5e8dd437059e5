"""Command-line front end for Monte Carlo campaigns.

Each subcommand presets a campaign style; an INI config file can supply
defaults and explicit flags override everything. Exit codes: 0 success,
2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
from decimal import Decimal

from .campaign import CampaignConfig, emit_csv, run_campaign

# Subcommand -> (description, the campaign values it changes from the defaults).
_SUBCOMMANDS = {
    "rmse": ("localization error of the secure pipeline and its benchmarks",
             {"methods": ("proposed", "no_detection", "perfect_detection")}),
    "detection": ("attacker detection and false-alarm rates of the secure pipeline", {}),
    "bounds": ("empirical detection probability against the analytic bounds (single sample)",
               {"k_samples": 1}),
    "two-attackers": ("six-anchor campaign with every anchor pair corrupted in turn",
                      {"methods": ("proposed", "wls_glrt"), "n_anchors": 6, "attackers_per_trial": 2}),
    "compare": ("secure pipeline head to head with the WLS+GLRT baseline",
                {"methods": ("proposed", "wls_glrt")}),
}

# A longer '...' progression is refused before it is expanded.
_MAX_GRID = 10_000


def _parse_delta_grid(text: str) -> tuple[float, ...]:
    """Comma list of intensities; '...' continues the progression, e.g. 0,1,...,15.

    The k-th continued value is the float of the exact decimal last + k * step,
    with last and step read from the two values before '...' as written, so
    0,0.1,...,1 gives the floats of the grid written out. The values below
    the end are kept, then the end itself, even off the progression.
    """
    values: list[float] = []
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    for pos, tok in enumerate(tokens):
        if tok == "...":
            if len(values) < 2 or pos != len(tokens) - 2:
                raise ValueError(f"bad delta grid {text!r}: '...' needs two values before and one after")
            try:
                stop = float(tokens[pos + 1])
            except ValueError:
                raise ValueError(f"bad delta grid {text!r}: {tokens[pos + 1]!r} is not a number") from None
            if not -math.inf < values[-2] < values[-1] < stop < math.inf:
                raise ValueError(f"bad delta grid {text!r}: progression must increase")
            first, last, end = (Decimal(t) for t in (tokens[pos - 2], tokens[pos - 1], tokens[pos + 1]))
            step = last - first
            # The continued values up to the first at or past the end.
            count = math.ceil((end - last) / step)
            if len(values) + count > _MAX_GRID:
                raise ValueError(f"bad delta grid {text!r}: more than {_MAX_GRID} values")
            values.extend(float(last + k * step) for k in range(1, count))
            values.append(stop)
            return tuple(values)
        try:
            values.append(float(tok))
        except ValueError:
            raise ValueError(f"bad delta grid {text!r}: {tok!r} is not a number") from None
    if not values:
        raise ValueError("delta grid must contain at least one value")
    return tuple(values)


def _parse_methods(text: str) -> tuple[str, ...]:
    # CampaignConfig rejects unknown names.
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(CampaignConfig)}
# Fields read by a dedicated parser; every other field takes the type of its default.
_PARSERS = {"delta_grid": _parse_delta_grid, "methods": _parse_methods}


def _parse_field(name: str, raw: str, source: str):
    """Campaign value of field ``name`` from its INI or flag text; an error names ``source``."""
    try:
        return _PARSERS.get(name, type(_DEFAULTS[name]))(raw)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _read_config_file(path: str) -> dict:
    # Values are read as written: a '%' is not an interpolation.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"config file {path!r} is malformed: {exc}") from None
    if not read:
        raise ValueError(f"config file {path!r} not found or unreadable")
    if "campaign" not in parser:
        raise ValueError(f"config file {path!r} needs a [campaign] section")
    values: dict = {}
    for key, raw in parser["campaign"].items():
        if key not in _DEFAULTS:
            raise ValueError(f"unknown config key {key!r} in {path!r}")
        values[key] = _parse_field(key, raw, f"config key {key!r} in {path!r}")
    return values


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_campaign_flags(sp: argparse.ArgumentParser):
    for f in dataclasses.fields(CampaignConfig):
        sp.add_argument(_flag(f.name), help=f.metadata["help"])
    sp.add_argument("--config", help="INI file with a [campaign] section supplying defaults")
    sp.add_argument("--out", help="CSV output path (default <subcommand>.csv)")
    sp.add_argument("--threads", type=int, default=1, help="worker processes (results are identical)")


def _build_config(command: str, args: argparse.Namespace) -> CampaignConfig:
    values = dict(_DEFAULTS)
    values.update(_SUBCOMMANDS[command][1])
    if args.config:
        values.update(_read_config_file(args.config))
    for name in _DEFAULTS:
        raw = getattr(args, name)
        if raw is not None:
            values[name] = _parse_field(name, raw, _flag(name))
    return CampaignConfig(**values)


def _summarize(stats) -> str:
    lines = [f"{'method':<18}{'delta':>7}{'rmse':>10}{'det':>8}{'fa':>8}{'trials':>8}"]
    for r in stats.rows:
        lines.append(
            f"{r.method:<18}{r.delta:>7.2f}{r.rmse:>10.3f}"
            f"{r.detection_rate:>8.3f}{r.false_alarm_rate:>8.3f}{r.trials:>8d}"
        )
    return "\n".join(lines)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seculoc",
        description="Monte Carlo campaigns for secure localization under enlargement attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (desc, _) in _SUBCOMMANDS.items():
        _add_campaign_flags(sub.add_parser(name, help=desc, description=desc))
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = args.out or f"{args.command}.csv"
    parent = os.path.dirname(out) or os.curdir
    try:
        cfg = _build_config(args.command, args)
        # Checked before the campaign, which can run for minutes.
        if os.path.isdir(out):
            print(f"cannot write campaign CSV to {out}: it is a directory", file=sys.stderr)
            return 3
        if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
            print(f"cannot write campaign CSV to {out}: {parent} is not a writable directory", file=sys.stderr)
            return 3
        stats = run_campaign(cfg, threads=args.threads)
    except ValueError as exc:
        # Construction checks every field and run_campaign the worker count;
        # a region too small to place the anchors, or values whose samples
        # overflow, fail only mid-run.
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        emit_csv(stats, out)
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 3

    print(_summarize(stats))
    if stats.resampled_deployments:
        print(f"resampled degenerate deployments: {stats.resampled_deployments}")
    print(f"wrote {len(stats.rows)} rows to {out}")
    return 0
