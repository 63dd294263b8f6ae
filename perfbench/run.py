"""Run one svilab benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ppawss-L7 --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of one untraced pass.
``--trace 1`` makes an untraced and a traced pass, prints the per-layer
metrics of the traced one and writes its spans to
``.perfbench_out/<workload>/spans.jsonl``. Either way every cell's
output is checked, a line per metric goes to stdout, and the last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 when every check passed,
1 when one failed and 2 for a usage error, such as a checkout without
svilab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RECORDED = os.path.join(HERE, "recorded.json")


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_nonnegative, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_svilab():
    """Import svilab from this checkout's sources, serially, one BLAS thread."""
    if not os.path.isfile(os.path.join(SRC, "svilab", "__init__.py")):
        _usage_error(f"no svilab sources under {SRC}")
    os.environ.pop("SVILAB_THREADS", None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, SRC)
    import svilab
    if os.path.dirname(os.path.dirname(os.path.abspath(svilab.__file__))) != SRC:
        _usage_error(f"svilab was imported from {svilab.__file__}, not {SRC}")


def _load_recorded():
    with open(RECORDED, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    args = _parse(argv)
    _import_svilab()
    import core

    if args.workload not in core.WORKLOADS:
        _usage_error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(core.WORKLOADS)}")
    workload = core.WORKLOADS[args.workload]
    config = core.load_config(workload)
    try:
        seeds = workload.trial_seeds(args.seed, args.seconds)
    except ValueError as exc:
        _usage_error(str(exc))
    recorded = _load_recorded().get(workload.name, {})
    out = os.path.join(ROOT, ".perfbench_out", workload.name)

    plain = core.run_pass(workload, config, seeds, os.path.join(out, "plain"),
                          recorded)
    passes = [plain]
    if args.trace:
        traced = core.run_pass(workload, config, seeds,
                               os.path.join(out, "traced"), recorded, fine=True)
        passes.append(traced)
        for rel in core.compare_outputs(plain, traced):
            print(f"traced output differs: {rel}", file=sys.stderr)
        traced.probe.write_spans(os.path.join(out, "spans.jsonl"))
        for name in traced.probe.missing:
            print(f"warning: {name} not found, its layer reads 0",
                  file=sys.stderr)
        metrics, table = core.per_layer(traced, plain), core.PER_LAYER
    else:
        metrics, table = core.end_to_end(plain), core.END_TO_END

    for run in passes:
        for cell in run.cells:
            for problem in cell.problems or ():
                print(f"FAIL {cell.stem}: {problem}", file=sys.stderr)
    attempted = sum(len(run.cells) for run in passes)
    failed = sum(run.failed for run in passes)
    print(f"workload {workload.name}: seed {args.seed}, "
          f"{len(seeds)} trial seeds, {attempted} cells, {failed} failed")
    for run in passes:
        print(f"{os.path.basename(run.out_dir)} pass: solve {run.wall_solve_s:.6g}"
              f" wall s = {run.solve_s:.6g} reference s")
    for name, unit, _ in table:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in table},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
