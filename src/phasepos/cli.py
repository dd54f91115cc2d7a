"""Command-line front end.

    phasepos run --config scenario.json --out results.csv --format csv

Each override flag sets the ScenarioConfig field that is its argparse dest:
--trials n_trials, --seed master_seed, --band, --profile (by short name),
--method methods, --ia ambiguity.  Exit codes: 0 on success (a failed trial
is counted whatever its reason, and a method whose every trial fails has
empty results), 2 for configuration problems, 3 when writing the output fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError
from .harness import (_CONFIG_KEYS, IA_MODES, METHODS, compute_cdf, emit_results, load_config,
                      run_scenario)

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
    run.add_argument("--trials", dest="n_trials", metavar="TRIALS", type=int,
                     help="override n_trials")
    run.add_argument("--seed", dest="master_seed", metavar="SEED", type=int,
                     help="override master_seed")
    run.add_argument("--band", help="FR1 or FR2, in either letter case")
    run.add_argument("--profile", choices=sorted(_PROFILES))
    run.add_argument("--method", dest="methods", metavar="METHOD",
                     type=lambda text: tuple(m.strip() for m in text.split(",") if m.strip()),
                     help=f"comma-separated subset of {','.join(METHODS)}")
    run.add_argument("--ia", dest="ambiguity", choices=IA_MODES,
                     help="integer-ambiguity resolution mode")
    run.add_argument("--workers", type=int, default=1,
                     help="parallel trial workers (results identical for any count)")
    return parser


def _cmd_run(args) -> int:
    changes = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None}
    if args.profile is not None:
        changes["profile"] = _PROFILES[args.profile]
    cfg = dataclasses.replace(load_config(args.config), **changes)
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
    except OSError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
