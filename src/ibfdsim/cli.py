"""Command-line front end: simulate, complexity, summarize.

`simulate` reads every campaign value from its config file; `--out` sets
campaign.output_dir, the one value given beside it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from . import harness


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ibfdsim",
                                     description="IBFD multi-cell MIMO link-level simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulation campaign")
    sim.add_argument("--config", help="campaign config file (omit for defaults)")
    sim.add_argument("--out", help="override campaign.output_dir")

    comp = sub.add_parser("complexity", help="print per-iteration multiplication counts")
    comp.add_argument("--cells", type=int, required=True)
    comp.add_argument("--users", type=int, required=True, help="per-cell users per direction")
    comp.add_argument("--bs-antennas", type=int, required=True)
    comp.add_argument("--ue-antennas", type=int, required=True)
    comp.add_argument("--streams", type=int, required=True, help="per-user streams")

    summ = sub.add_parser("summarize", help="aggregate a written campaign")
    summ.add_argument("--in", dest="input", required=True, help="campaign output directory")
    return parser


def _simulate(args) -> int:
    config = harness.load_config(args.config) if args.config else harness.CampaignConfig()
    if args.out is not None:    # "" too, which CampaignConfig refuses
        config = replace(config, output_dir=args.out)
    summary = harness.run_campaign(config)
    print(summary.table())
    print(f"wrote {config.output_dir}/realizations.csv")
    return 0


def _complexity(args) -> int:
    est = harness.complexity_estimate(args.cells, args.users, args.bs_antennas,
                                      args.ue_antennas, args.streams)
    for f in fields(est):
        print(f"{f.name} = {getattr(est, f.name)}")
    return 0


def _summarize(args) -> int:
    print(harness.summarize(args.input).table())
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on bad usage; --help exits 0
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "simulate":
            return _simulate(args)
        if args.command == "complexity":
            return _complexity(args)
        return _summarize(args)
    except ValueError as exc:   # a harness.ConfigError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
