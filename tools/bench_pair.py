"""Compare a checkout with its parent in alternating pairs of benchmark runs.

Usage, from the root of a checkout::

    python3 tools/bench_pair.py 37 --parent ../parent-checkout

The script first checks that the two checkouts do the same work. On
every workload that ``BENCHMARK.json`` lists it runs ``python3
perfbench/run.py --workload <w> --seed 0 --seconds 7 --trace 1`` in each
tree. The output trees, ``.perfbench_out/<w>`` without
``spans.jsonl``, must hold the same files with the same bytes, and the
two runs must read the same ``oracle.samples``. Both sides run at the
one ``--seconds`` the record states, which ``oracle.samples`` depends
on. It refuses two checkouts whose paths differ in length before it
runs anything: the length of the path has moved a workload's times.

It then runs ``--pairs`` (default 10) alternating pairs per workload at
``--trace 0``, pair ``i`` on seed ``--first-seed + i - 1`` in both trees,
the parent first in odd pairs and the checkout first in even ones. For
every end-to-end metric of ``BENCHMARK.json`` it records each pair's
two values, each side's median and quartiles, the number of pairs in
which the checkout is better, the median's relative change (positive
is better), and whether that change stays within the metric's bound.
``clear_gain`` marks a metric better in at least 9 of 10 pairs whose
medians differ by more than the parent's quartile distance, and
``unresolved`` one whose parent quartile distance is wider than its
bound, unless every run of the checkout beats every run of the parent.

Everything goes to ``bench/BENCH_<name>_pairs.json`` next to this
script's checkout, with each tree's revision, dirty-tree hash, path
length and line counts, as ``bench_record.py`` records them. The script refuses to
overwrite an existing file. It exits 0 when both trees did the same
work, no run failed and every metric stayed within its bound, 1
otherwise and 2 on a usage error. Ten pairs on three workloads take
about 5 minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import bench_record
from bench_record import OWN_ROOT, SECONDS

# a gain is clear when the checkout is better in this share of pairs
CLEAR_SHARE = 0.9


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("name",
                        help="file name part: bench/BENCH_<name>_pairs.json")
    parser.add_argument("--parent", required=True,
                        help="checkout to compare against")
    parser.add_argument("--root", default=OWN_ROOT,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    return parser.parse_args(argv)


def _tree(path):
    """sha256 of every file under ``path`` but ``spans.jsonl``, by
    relative path."""
    files = {}
    for folder, _, names in os.walk(path):
        for name in names:
            if name == "spans.jsonl":
                continue
            full = os.path.join(folder, name)
            with open(full, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            files[os.path.relpath(full, path)] = digest
    return files


def _same_work(roots, name):
    """The seed-0 traced runs of one workload in both trees: the files
    whose bytes differ and each side's ``oracle.samples``."""
    failures, trees, samples = [], [], []
    for root in roots:
        done = bench_record._run(root, name, 0, 1, failures)
        trees.append(_tree(os.path.join(root, ".perfbench_out", name)))
        samples.append(done[1]["oracle.samples"]["value"] if done else None)
    differ = sorted(rel for rel in trees[0].keys() | trees[1].keys()
                    if trees[0].get(rel) != trees[1].get(rel))
    return {"files": len(trees[0]), "files_differ": differ,
            "oracle_samples": dict(zip(("parent", "root"), samples)),
            "failed_runs": failures,
            "same": not differ and not failures and samples[0] == samples[1]}


def _compare(metric, parent, root):
    """The pair verdicts of one metric (a ``BENCHMARK.json`` entry)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base, now = (bench_record._quartiles(v) for v in (parent, root))
    better = sum(sign * (p - r) > 0 for p, r in zip(parent, root))
    change = sign * (base["median"] - now["median"]) / base["median"] \
        if base["median"] else 0.0
    iqr = base["q75"] - base["q25"]
    # every run of the checkout better than every run of the parent
    beats_all = max(sign * r for r in root) < min(sign * p for p in parent)
    return {
        "unit": metric["unit"], "better": metric["better"],
        "parent": parent, "root": root,
        "parent_quartiles": base, "root_quartiles": now,
        "root_better_pairs": better,
        "median_change": change,
        "bound": metric["bound"],
        "within_bound": change >= -metric["bound"],
        # the parent's own spread is wider than the bound
        "unresolved": iqr > metric["bound"] * abs(base["median"])
                      and not beats_all,
        "clear_gain": better >= CLEAR_SHARE * len(parent)
                      and abs(base["median"] - now["median"]) > iqr
                      and change > 0,
    }


def _pairs(roots, name, seeds, metrics):
    """``len(seeds)`` alternating pairs of untraced runs of one workload."""
    values = {side: {m["name"]: [] for m in metrics}
              for side in ("parent", "root")}
    failures = {"parent": [], "root": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "root") if i % 2 == 0 else ("root", "parent")
        done = {side: bench_record._run(roots[side], name, seed, 0,
                                        failures[side]) for side in order}
        if None in done.values():
            continue  # a pair counts only if both of its runs finished
        for side, (_, result) in done.items():
            for metric in values[side]:
                values[side][metric].append(result[metric]["value"])
    pairs = len(values["root"][metrics[0]["name"]])
    return {"pairs": pairs, "failed_runs": failures,
            "metrics": {m["name"]: _compare(m, values["parent"][m["name"]],
                                            values["root"][m["name"]])
                        for m in metrics} if pairs else {}}


def main(argv=None):
    args = _parse(argv)
    roots = {"parent": os.path.abspath(args.parent),
             "root": os.path.abspath(args.root)}
    out = os.path.join(OWN_ROOT, "bench", f"BENCH_{args.name}_pairs.json")
    if os.path.exists(out):
        print(f"error: {out} exists; record under a new name", file=sys.stderr)
        return 2
    if len(roots["parent"]) != len(roots["root"]):
        print(f"error: checkout paths differ in length: {roots['parent']}"
              f" and {roots['root']}", file=sys.stderr)
        return 2
    if args.pairs < 1:
        print("error: --pairs must be at least 1", file=sys.stderr)
        return 2
    with open(os.path.join(roots["root"], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    record = {"name": args.name, "seconds": SECONDS, "seeds": seeds,
              "order": "odd pairs run the parent first",
              "trees": {side: {**bench_record._environment(root),
                               "path_length": len(root),
                               "lines": bench_record._lines(root)}
                        for side, root in roots.items()},
              "same_work": {}, "workloads": {}}
    for name in workloads:
        print(f"{name}: same work at seed 0", file=sys.stderr)
        record["same_work"][name] = _same_work(
            (roots["parent"], roots["root"]), name)
    for name in workloads:
        print(f"{name}: {args.pairs} pairs", file=sys.stderr)
        record["workloads"][name] = _pairs(roots, name, seeds,
                                           benchmark["end_to_end"])
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    for name, entry in record["workloads"].items():
        for metric, verdict in entry["metrics"].items():
            print(f"{name} {metric}: {verdict['parent_quartiles']['median']:.6g}"
                  f" -> {verdict['root_quartiles']['median']:.6g}"
                  f" ({100 * verdict['median_change']:+.1f} %, + is better),"
                  f" better in {verdict['root_better_pairs']} of"
                  f" {entry['pairs']}", file=sys.stderr)
    ok = all(w["same"] for w in record["same_work"].values()) and all(
        not any(w["failed_runs"].values())
        and all(v["within_bound"] for v in w["metrics"].values())
        for w in record["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
