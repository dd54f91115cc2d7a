"""Command-line front end.

    phasepos run --config scenario.json --out results.csv --format csv

Flags override values from the config file.  Exit codes: 0 on success
(a method whose every trial fails IA resolution is reported with empty
results), 2 for configuration problems, 3 when a measurement or writing the
output fails at runtime.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import AmbiguityError, ConfigError, NoSignalError
from .harness import IA_MODES, METHODS, compute_cdf, emit_results, load_config, run_scenario

_BANDS = {"fr1": "FR1", "fr2": "FR2"}
_PROFILES = {"los": "InF-LOS", "nlos-s": "InF-NLOS-S", "nlos-d": "InF-NLOS-D"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasepos",
        description="Monte-Carlo ranging simulator: TOA, carrier phase, and "
                    "swept carrier phase over indoor-factory channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario and write error CDFs")
    run.add_argument("--config", required=True, help="JSON scenario config file")
    run.add_argument("--out", required=True, help="output file path")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--trials", type=int, help="override n_trials")
    run.add_argument("--seed", type=int, help="override master_seed")
    run.add_argument("--band", choices=sorted(_BANDS))
    run.add_argument("--profile", choices=sorted(_PROFILES))
    run.add_argument("--method", help=f"comma-separated subset of {','.join(METHODS)}")
    run.add_argument("--ia", choices=IA_MODES,
                     help="integer-ambiguity resolution mode")
    run.add_argument("--workers", type=int, default=1,
                     help="parallel trial workers (results identical for any count)")
    return parser


def _apply_overrides(cfg, args):
    changes = {}
    if args.trials is not None:
        changes["n_trials"] = args.trials
    if args.seed is not None:
        changes["master_seed"] = args.seed
    if args.band is not None:
        changes["band"] = _BANDS[args.band]
    if args.profile is not None:
        changes["profile"] = _PROFILES[args.profile]
    if args.method is not None:
        changes["methods"] = tuple(m.strip() for m in args.method.split(",") if m.strip())
    if args.ia is not None:
        changes["ambiguity"] = args.ia
    return dataclasses.replace(cfg, **changes)


def _cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    results = run_scenario(cfg, workers=args.workers)
    cdfs = [compute_cdf(results, m) for m in cfg.methods]
    emit_results(cdfs, cfg, args.out, args.format)
    for c in cdfs:
        pct = "".join(f" p{p}={v:.6g}m" for p, v in sorted(c.percentiles.items()))
        print(f"{c.method}: trials={c.n_trials} ia_failures={c.n_failures}{pct}")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _cmd_run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NoSignalError, AmbiguityError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
