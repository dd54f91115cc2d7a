"""Command-line front end.

    phasepos run --config scenario.json --out results.csv --format csv

The config file sets every scenario field; the options set only the output and the worker
count.  Stdout carries nothing but an ``--out`` of /dev/stdout; each method's line goes to
stderr.  Exit codes: 0 on success, also when trials fail (each line counts them by reason);
2 for a bad config, an unknown option or an ``--out`` that names no file (a directory), is
the config file or is not in an existing directory (all before any trial); 3 if a write fails
(``[Errno 32] Broken pipe``: a pipe closed before the file was whole) or a worker dies; 130
on Ctrl-C.  No exit leaves a partial ``--out`` file; a device or a pipe is written in place.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .harness import _output_file, compute_cdf, emit_results, load_config, run_scenario


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
    _output_file("--out", args.out, config=args.config)     # refused before the first trial
    results = run_scenario(cfg, workers=args.workers)
    cdfs = [compute_cdf(results, m) for m in cfg.methods]
    emit_results(cdfs, cfg, args.out, args.format)
    print(*(c.line for c in cdfs), f"wrote {args.out}", sep="\n", file=sys.stderr)
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
