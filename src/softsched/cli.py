"""Command-line front end for the experiment harness.

Precedence for settings: built-in defaults, then a --config JSON file, then
explicit command-line flags. Exit code 0 on success, 1 on any error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import (
    ExperimentConfig,
    load_fixture,
    run_sweep,
    write_detail,
    write_results,
)

_DEFAULTS = ExperimentConfig()


def build_parser() -> argparse.ArgumentParser:
    """Flags that set an ExperimentConfig field store into that field's name."""
    p = argparse.ArgumentParser(
        prog="softsched",
        description=(
            "TDMA link-schedule simulator: soft coloring via a link-vs-component "
            "matrix game, benchmarked against greedy coloring and no scheduling."
        ),
    )
    p.add_argument("--nodes", type=int, dest="n_nodes",
                   help=f"network size (default {_DEFAULTS.n_nodes})")
    p.add_argument("--sessions", type=int, dest="n_sessions",
                   help=f"source-sink session count (default {_DEFAULTS.n_sessions})")
    p.add_argument("--beta-min", type=float, dest="beta_min_db",
                   help=f"sweep start, dB (default {_DEFAULTS.beta_min_db})")
    p.add_argument("--beta-max", type=float, dest="beta_max_db",
                   help=f"sweep end, dB (default {_DEFAULTS.beta_max_db})")
    p.add_argument("--beta-step", type=float, dest="beta_step_db",
                   help=f"sweep step, dB (default {_DEFAULTS.beta_step_db})")
    p.add_argument("--alpha", type=float, dest="alpha",
                   help=f"attenuation exponent (default {_DEFAULTS.alpha})")
    p.add_argument("--poisson-mean", type=float, dest="poisson_mean",
                   help=f"mean packets per session (default {_DEFAULTS.poisson_mean})")
    p.add_argument("--runs", type=int, dest="runs",
                   help=f"independent replications (default {_DEFAULTS.runs})")
    p.add_argument("--seed", type=int, dest="seed",
                   help=f"root RNG seed (default {_DEFAULTS.seed})")
    p.add_argument("--modes", type=lambda s: tuple(filter(None, map(str.strip, s.split(",")))),
                   dest="modes", help="comma-separated subset of soft,coloring,none")
    p.add_argument("--fixture", help="topology or conflict-graph fixture file; bypasses generation")
    p.add_argument("--config", help="JSON file with ExperimentConfig fields; flags override it")
    p.add_argument("--out", default="results.csv", help="aggregated CSV path (default results.csv)")
    p.add_argument("--detail", help="optional per-run CSV path")
    return p


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    values = {}
    if args.config:
        with open(args.config) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError(f"{args.config}: expected a JSON object of config fields, "
                             f"got {type(values).__name__}")
        unknown = sorted(set(values) - set(names))
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {unknown}")
    values.update((n, getattr(args, n)) for n in names if getattr(args, n) is not None)
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        fixture = load_fixture(args.fixture) if args.fixture else None
        table, records = run_sweep(cfg, fixture)
        write_results(table, args.out)
        if args.detail:
            write_detail(records, args.detail)
    except Exception as exc:
        print(f"softsched: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
