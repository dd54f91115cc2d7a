"""Command-line front end.

    phasepos run --config scenario.json --out results.csv --format csv

The config file sets every scenario field; the options set only the output
and the worker count.  Exit codes: 0 on success, also when trials fail (each
method's line counts them by reason); 2 for a bad config, an unknown option
or an ``--out`` that names no file (a directory), is the config file or is
not in an existing directory (all found before any trial); 3 if writing fails
or a worker process dies; 130 on Ctrl-C.  No exit leaves a partial ``--out``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError
from .harness import compute_cdf, emit_results, load_config, run_scenario


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
    run.add_argument("--workers", type=int, default=1,
                     help="parallel trial workers (results identical for any count)")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    parent, name = os.path.split(args.out)
    if not name or os.path.isdir(args.out):
        raise ConfigError(f"--out {args.out} names no file")
    if not os.path.isdir(parent or os.curdir):
        raise ConfigError(f"--out {args.out} is not in an existing directory")
    if os.path.exists(args.out) and os.path.samefile(args.out, args.config):
        raise ConfigError(f"--out {args.out} is the config file")
    results = run_scenario(cfg, workers=args.workers)
    cdfs = [compute_cdf(results, m) for m in cfg.methods]
    emit_results(cdfs, cfg, args.out, args.format)
    print(*(c.line for c in cdfs), f"wrote {args.out}", sep="\n")
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
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
