"""Record one checkout's end-to-end benchmark numbers in a BENCH file.

Usage, from the root of a checkout::

    python3 tools/bench_record.py after
    python3 tools/bench_record.py before --root ../parent-checkout

For each workload that ``BENCHMARK.json`` lists, the script runs
``python3 perfbench/run.py --workload <w> --seed <s> --seconds 7
--trace 0`` once per seed ``1 .. RUNS``, each in its own process, and
keeps the median and the quartiles of every end-to-end metric, with the
plain wall time of the solve next to its reference seconds. One more
run per workload, with ``--trace 1`` and seed ``RUNS + 1``, gives the
cost of each layer (``PER_LAYER``: projection, ``noise_sum``,
``batch_mean``, a map call, a VS-Ave iteration, a PPAWSS outer step and
the reference solve) and the run's sample count, ``oracle.samples``:
the work the run did, which depends on ``--seconds`` but not on the
seed, so two records show whether their runs did the same work. It
then times one run of the non-slow test suite
(``python3 -m pytest -q -m "not slow"``) and one run of criterion 5,
``table1.cfg`` at budget 1e6 (``python3 -m pytest -q
tests/test_acceptance.py -k criterion_5``), in plain wall seconds.
Each of these is a single run with no spread, recorded as such
(``runs: 1``, ``spread: null``), so it only indicates its cost.
Criterion 5's outcome is recorded with its time; the script's exit code
does not depend on it.
Everything goes to ``bench/BENCH_<name>.json`` next to this script's
checkout, with the core count, the number of cores the process may run
on, the numpy version, the OpenBLAS core that numpy selects, the git
revision of the measured checkout, whether its tracked files differ
from that revision and the sha256 of ``git diff HEAD``, which tells two
different working trees on one revision apart
(files git does not track are not part of it: ``git add -A`` first; the
record itself is written after the hash, so it is not part of it
either). It also counts the lines of each ``src/svilab/*.py`` file and
their total, and the total of the ``tests/`` Python files, so the size
of the code has a trajectory next to its speed.
The script refuses to overwrite an existing file: each change adds one,
none rewrites an old one.

``--root`` measures another checkout, say the parent commit's, with the
benchmark code that checkout holds. The workload runs are serial, and
criterion 5 runs its cells on the usable cores; on a 2-core machine the
whole recording takes about 3 minutes, half of it criterion 5.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OWN_ROOT = os.path.dirname(HERE)
SECONDS = 7
RUNS = 3
# the per-layer metrics of a --trace 1 run that a record keeps
PER_LAYER = (
    "sets.project.ns_per_call",
    "oracle.noise_sum.ns_per_call",
    "oracle.noise_sum.ns_per_sample",
    "oracle.batch_mean.self_ns_per_call",
    "maps.call.ns_per_call",
    "vs_ave.us_per_iter",
    "ppawss.outer_step_s",
    "problems.reference_solve_s",
    "oracle.samples",
)
# "plain pass: solve <wall> wall s = <reference> reference s"
_SOLVE_LINE = re.compile(r"^plain pass: solve (\S+) wall s = (\S+) reference s$",
                         re.MULTILINE)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("name", help="file name suffix: bench/BENCH_<name>.json")
    parser.add_argument("--root", default=OWN_ROOT,
                        help="checkout to measure (default: this one)")
    return parser.parse_args(argv)


def _quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q25": values[0], "q75": values[0]}
    q25, median, q75 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q25": q25, "q75": q75}


def _environment(root):
    """Core counts, numpy version, OpenBLAS core and git revision."""
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, OPENBLAS_VERBOSE="2"))
    # OPENBLAS_VERBOSE=2 makes OpenBLAS print "Core: <name>" when it loads
    core = re.search(r"^Core: (\S+)", probe.stdout + probe.stderr, re.MULTILINE)
    rev = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    # tracked files that differ from that revision: the numbers are then
    # of the working tree on top of it
    dirty = subprocess.run(["git", "-C", root, "status", "--porcelain",
                            "--untracked-files=no"],
                           capture_output=True, text=True)
    diff = subprocess.run(["git", "-C", root, "diff", "HEAD", "--binary"],
                          capture_output=True)
    return {
        "cores": os.cpu_count(),
        # the cores this process may run on: the process pool of
        # SVILAB_THREADS runs at most one worker per usable core
        "usable_cores": len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": probe.stdout.split()[-1],
        "openblas_core": core.group(1) if core else None,
        "git_rev": rev.stdout.strip() if rev.returncode == 0 else None,
        "git_dirty": bool(dirty.stdout.strip()) if dirty.returncode == 0
                     else None,
        "git_diff_sha256": hashlib.sha256(diff.stdout).hexdigest()
                           if diff.returncode == 0 else None,
        "git_diff_covers": "git diff HEAD --binary of the tracked files "
                           "when the runs began; this file is not in it",
    }


def _run(root, name, seed, trace, failures):
    """stdout and metrics of one perfbench run, or None after adding
    its failure to ``failures``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", name,
           "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        failures.append({"seed": seed, "trace": trace,
                         "exit_code": done.returncode,
                         "stderr": done.stderr[-2000:]})
        return None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return done.stdout, result["metrics"]


def _workload(root, name):
    """Medians and quartiles of one workload's end-to-end metrics, and
    the ``PER_LAYER`` metrics of one traced run."""
    values, wall, units, failures = {}, [], {}, []
    for seed in range(1, RUNS + 1):
        done = _run(root, name, seed, 0, failures)
        if done is None:
            continue
        stdout, metrics = done
        for metric, entry in metrics.items():
            values.setdefault(metric, []).append(entry["value"])
            units[metric] = entry["unit"]
        solve = _SOLVE_LINE.search(stdout)
        if solve:
            wall.append(float(solve.group(1)))
    record = {metric: dict(_quartiles(v), unit=units[metric])
              for metric, v in values.items()}
    if wall:
        record["wall_solve_s"] = dict(_quartiles(wall), unit="s")
    traced = _run(root, name, RUNS + 1, 1, failures)
    layers = {metric: traced[1][metric] for metric in PER_LAYER
              if metric in traced[1]} if traced else {}
    return {"runs": RUNS, "failed_runs": failures, "metrics": record,
            "per_layer": {"runs": 1, "spread": None, "seed": RUNS + 1,
                          "metrics": layers}}


def _lines(root):
    """Line counts of ``src/svilab/*.py``, per file and in total, and of
    the Python files under ``tests/``."""
    def count(path):
        with open(path, "rb") as fh:
            return sum(1 for _ in fh)

    src = {os.path.basename(path): count(path) for path in
           sorted(glob.glob(os.path.join(root, "src", "svilab", "*.py")))}
    tests = sum(count(path) for path in glob.glob(
        os.path.join(root, "tests", "**", "*.py"), recursive=True))
    return {"src_svilab": src, "src_svilab_total": sum(src.values()),
            "tests_total": tests}


def _pytest(root, *args):
    """Plain wall time and outcome line of one pytest run: one run, so
    no quartiles; the time is indicative only."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *args,
         "-p", "no:cacheprovider"],
        cwd=root, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"wall_s": wall, "runs": 1, "spread": None,
            "exit_code": done.returncode,
            "outcome": lines[-1] if lines else ""}


def main(argv=None):
    args = _parse(argv)
    root = os.path.abspath(args.root)
    out = os.path.join(OWN_ROOT, "bench", f"BENCH_{args.name}.json")
    if os.path.exists(out):
        print(f"error: {out} exists; record under a new name", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    record = {"name": args.name, "seconds": SECONDS, **_environment(root),
              "lines": _lines(root), "workloads": {}}
    for name in workloads:
        print(f"{name}: {RUNS} runs", file=sys.stderr)
        record["workloads"][name] = _workload(root, name)
    print("non-slow test suite", file=sys.stderr)
    record["suite"] = _pytest(root, "-m", "not slow")
    print("criterion 5: table1.cfg at budget 1e6", file=sys.stderr)
    record["criterion_5"] = _pytest(root, "tests/test_acceptance.py",
                                    "-k", "criterion_5")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    failed = any(w["failed_runs"] for w in record["workloads"].values())
    return 1 if failed or record["suite"]["exit_code"] != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
