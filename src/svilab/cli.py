"""Command-line entry point.

``svilab run <config> [--seeds a,b,c] [--budget N] [--out DIR]`` runs an
experiment matrix and prints the summary table; ``svilab summarize
<DIR>`` re-aggregates previously written trace CSVs. Exit codes: 0 on
success, 2 for configuration problems, 3 for runtime contract
violations.
"""

from __future__ import annotations

import argparse
import os
import sys
from glob import glob

from .bench import parse_config, run_experiment, summarize
from .errors import ConfigError, SvilabError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="svilab",
        description="Benchmark harness for stochastic variational"
                    " inequality solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("config", help="path to an experiment config file")
    run.add_argument("--seeds", help="comma list overriding the config seeds")
    run.add_argument("--budget", help="override the per-cell sample budget")
    run.add_argument("--out", help="override the output directory")
    summ = sub.add_parser("summarize", help="aggregate trace CSVs in a directory")
    summ.add_argument("dir", help="directory holding per-cell trace CSVs")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from None
            overrides = {key: getattr(args, key)
                         for key in ("seeds", "budget", "out")
                         if getattr(args, key) is not None}
            print(run_experiment(parse_config(text, overrides)))
            return 0
        paths = sorted(
            path for path in glob(os.path.join(args.dir, "*.csv"))
            if os.path.basename(path) != "summary.csv"
        )
        if not paths:
            raise ConfigError(f"no trace CSVs found in {args.dir!r}")
        print(summarize(paths,
                        summary_csv=os.path.join(args.dir, "summary.csv")))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SvilabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
