"""Workloads, passes and metrics of the svilab benchmark.

One run drives ``svilab.bench.run_experiment`` (the function behind
``svilab run``) on a workload config from ``configs/``, serially, with
trial seeds derived from the workload seed. An untraced pass gives the
end-to-end metrics. A traced run makes an untraced pass and then a
traced one; the traced pass gives the per-layer metrics, and the two
passes must write byte-identical CSVs.
"""

from __future__ import annotations

import csv
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace

from svilab.bench import parse_config, run_experiment, summarize
from svilab.trace import RunTrace

import checks
from probe import Probe
from speed import SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
# trial seeds are seed * SEED_STRIDE + i, so runs never share a trial
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """A config plus how many trial seeds fill a run.

    ``trial_s`` is the solve time of one trial seed (all rows) measured
    at the baseline, in reference seconds (speed.py); a run of
    ``seconds`` gets ``round(seconds / trial_s)`` trial seeds, at least
    one, so the work of a run is fixed by its arguments and does not
    depend on how fast the code is.
    ``setup_repeats`` splits the trial seeds over that many
    ``run_experiment`` calls, so set-up is timed that many times.
    """

    name: str
    trial_s: float
    setup_repeats: int = 1

    @property
    def config_path(self):
        return os.path.join(HERE, "configs", self.name + ".cfg")

    def trial_seeds(self, seed, seconds):
        count = max(1, round(seconds / self.trial_s))
        if count > SEED_STRIDE:
            raise ValueError(f"--seconds {seconds} asks for {count} trial seeds")
        return [seed * SEED_STRIDE + i for i in range(count)]

    def chunks(self, seeds):
        parts = min(self.setup_repeats, len(seeds))
        size, extra = divmod(len(seeds), parts)
        out, start = [], 0
        for part in range(parts):
            stop = start + size + (part < extra)
            out.append(tuple(seeds[start:stop]))
            start = stop
        return out


WORKLOADS = {w.name: w for w in (
    Workload("ppawss-L7", trial_s=7.9),
    Workload("eg-table1", trial_s=4.1),
    Workload("vsave-affine", trial_s=0.435, setup_repeats=9),
)}

# (name, unit, better); bounds live in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("samples_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
PER_LAYER = [
    ("sets.project.calls", "count", "lower"),
    ("sets.project.ns_per_call", "ns", "lower"),
    ("sets.project.share", "ratio", "lower"),
    ("oracle.noise_sum.ns_per_call", "ns", "lower"),
    ("oracle.noise_sum.share", "ratio", "lower"),
    ("oracle.noise_sum.ns_per_sample", "ns", "lower"),
    ("oracle.batch_mean.calls", "count", "lower"),
    ("oracle.batch_mean.self_ns_per_call", "ns", "lower"),
    ("oracle.samples", "count", "higher"),
    ("oracle.mean_batch", "count", "higher"),
    ("oracle.budget_used_frac", "ratio", "higher"),
    ("ppawss.outer_steps", "count", "higher"),
    ("ppawss.inner_iters", "count", "higher"),
    ("ppawss.outer_step_s", "s", "lower"),
    ("ppawss.self_share", "ratio", "lower"),
    ("vs_ave.iterations", "count", "higher"),
    ("vs_ave.us_per_iter", "us", "lower"),
    ("vs_ave.self_share", "ratio", "lower"),
    ("maps.call.calls", "count", "lower"),
    ("maps.call.ns_per_call", "ns", "lower"),
    ("maps.call.share", "ratio", "lower"),
    ("extragradient.iterations", "count", "higher"),
    ("extragradient.us_per_iter", "us", "lower"),
    ("extragradient.self_share", "ratio", "lower"),
    ("problems.reference_solve_s", "s", "lower"),
    ("detsolve.map_evals", "count", "lower"),
    ("metrics.evaluate_point.calls", "count", "lower"),
    ("metrics.evaluate_point.us_per_call", "us", "lower"),
    ("metrics.evaluate_point.share", "ratio", "lower"),
    ("trace.write_csv.calls", "count", "lower"),
    ("trace.write_csv.ms", "ms", "lower"),
    ("trace.write_csv.bytes", "B", "lower"),
    ("bench.cells", "count", "higher"),
    ("bench.cell_s_p50", "s", "lower"),
    ("bench.cell_s_max", "s", "lower"),
    ("bench.overhead_s", "s", "lower"),
    ("bench.tracing_overhead", "ratio", "lower"),
    ("bench.tracing_overhead_wall", "ratio", "lower"),
    ("bench.wall_solve_s", "s", "lower"),
    ("final_metric_gmean", "1", "lower"),
]


def load_config(workload):
    with open(workload.config_path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _row_of(config, lipschitz):
    """Index of the config row whose target L the built map has."""
    return min(range(len(config.lipschitz)),
               key=lambda row: abs(config.lipschitz[row] - lipschitz))


def cell_stem(config, scheme, row, seed):
    """File name (without .csv) that run_experiment gives a cell."""
    if "ppawss" in config.scheme_params:
        lam = f"{config.scheme_params['ppawss']['lambda'][row]:g}"
    else:
        lam = "na"
    return f"{scheme}_L{config.lipschitz[row]:g}_lam{lam}_seed{seed}"


@dataclass
class Cell:
    """One planned (row, scheme, trial seed) cell and what checking found."""

    stem: str
    path: str
    ledger: int = 0
    trace: RunTrace = None
    problems: list = None


@dataclass
class Pass:
    """Timings, cells and probes of one pass over a workload.

    ``setup_s`` (one entry per run_experiment call) and ``solve_s`` are
    in reference seconds (see speed.py); ``wall_solve_s`` is the same
    solve time in wall seconds, calibration kernel runs left out.
    """

    setup_s: list
    solve_s: float
    wall_solve_s: float
    cells: list
    probe: Probe
    speed: SpeedSampler
    out_dir: str

    def seconds(self, span):
        return self.speed.seconds(span.start_ns, span.end_ns)

    @property
    def failed(self):
        return sum(1 for c in self.cells if c.problems)


def run_pass(workload, config, seeds, out_dir, recorded, fine=False):
    """Run the workload's run_experiment calls under a probe, then check
    every planned cell against ``recorded`` (stem -> final row)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    setups, solve_s, wall_s, planned = [], 0.0, 0.0, []
    with Probe(fine=fine) as probe, SpeedSampler(probe.pause) as speed:
        for index, chunk in enumerate(workload.chunks(seeds)):
            part = replace(config, seeds=chunk, output_path=f"part{index}")
            part_dir = os.path.join(out_dir, part.output_path)
            planned += [(row, scheme, seed, part_dir)
                        for row in range(len(config.lipschitz))
                        for scheme in config.schemes for seed in chunk]
            first = len(probe.spans)
            start = time.perf_counter_ns()
            try:
                run_experiment(part, base_dir=out_dir)
            except Exception:  # noqa: BLE001 - its cells are reported failed
                traceback.print_exc(file=sys.stderr)
            end = time.perf_counter_ns()
            setup = [(s.start_ns, s.end_ns) for s in probe.spans[first:]
                     if s.name == "setup"]
            setups.append(sum(speed.seconds(*s) for s in setup))
            solve_s += speed.seconds(start, end) - setups[-1]
            wall_s += speed.wall(start, end) - sum(speed.wall(*s) for s in setup)
    cells = [check_planned(config, probe, recorded, *plan) for plan in planned]
    return Pass(setups, solve_s, wall_s, cells, probe, speed, out_dir)


def check_planned(config, probe, recorded, row, scheme, seed, part_dir):
    """Find a planned cell's solver span and CSV and run the output checks."""
    stem = cell_stem(config, scheme, row, seed)
    cell = Cell(stem, os.path.join(part_dir, stem + ".csv"))
    span = next((s for s in probe.named("cell")
                 if s.info.get("scheme") == scheme
                 and s.info.get("seed") == seed
                 and _row_of(config, s.info["lipschitz"]) == row
                 and s.info["trace"] is not None), None)
    if span is None:
        cell.problems = ["solver did not return"]
        return cell
    try:
        cell.trace = RunTrace.read_csv(cell.path)
    except Exception as exc:  # noqa: BLE001 - any unreadable CSV fails the cell
        cell.problems = [f"cannot read trace CSV: {exc}"]
        return cell
    cell.ledger = span.info["budget"].consumed
    expected = checks.expected_ledger(config, scheme, row,
                                      span.info["lipschitz"])
    prefix = stem.rsplit("_seed", 1)[0] + "_seed"
    shape = next((v for k, v in sorted(recorded.items())
                  if k.startswith(prefix)), None)
    cell.problems = checks.check_cell(cell.trace, cell.ledger, expected,
                                      shape=shape, recorded=recorded.get(stem))
    return cell


# -- end-to-end metrics -----------------------------------------------------

def end_to_end(run):
    samples = sum(c.ledger for c in run.cells if not c.problems)
    return {
        "setup_s": statistics.median(run.setup_s),
        "solve_s": run.solve_s,
        "samples_per_s": samples / run.solve_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# -- per-layer metrics ------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def final_metric_gmean(run):
    """Geometric mean of the per-(row, scheme) medians of the run's cells.

    All passing cells of the run are summarized together (one call of
    run_experiment per set-up repeat would otherwise give one summary
    each); with one repeat this is the run's own summary.csv.
    """
    paths = [c.path for c in run.cells if not c.problems]
    if not paths:
        return 0.0
    summary = os.path.join(run.out_dir, "summary.csv")
    summarize(paths, summary_csv=summary)
    with open(summary, encoding="ascii", newline="") as fh:
        medians = [float(row["median"]) for row in csv.DictReader(fh)]
    if not all(m > 0 for m in medians):
        return 0.0
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def per_layer(traced, plain):
    """Per-layer metrics of a traced pass; ``plain`` is its untraced twin."""
    probe = traced.probe
    # shares compare wall times (kernel runs left out); times are in
    # reference units (speed.py)
    solve_ns = traced.wall_solve_s * 1e9
    scale = _ratio(traced.solve_s, traced.wall_solve_s)
    cells = probe.named("cell")
    tables = [s.counts for s in cells] + [probe.harness]

    def total(key):
        out = [0, 0, 0, 0]
        for table in tables:
            for i, v in enumerate(table.get(key, ())):
                out[i] += v
        return out

    def by_scheme(scheme):
        return [s for s in cells if s.info.get("scheme") == scheme]

    project = total("sets.project")
    maps = total("maps.call")
    noise = total("oracle.noise_sum")
    batch_vs = total("oracle.batch_mean.vs_ave")
    batch_eg = total("oracle.batch_mean.extragradient")
    batch = [a + b for a, b in zip(batch_vs, batch_eg)]
    evaluate = total("metrics.evaluate_point")
    write = total("trace.write_csv")
    ppawss_cells = by_scheme("ppawss")
    eg_cells = by_scheme("extragradient")
    vs_spans = probe.named("subproblem") + by_scheme("vs_ave")
    outer_steps = len(probe.named("subproblem"))
    inner_iters = sum(s.counts["oracle.batch_mean.vs_ave"][0]
                      for s in ppawss_cells) // 2
    vs_iters = batch_vs[0] // 2
    eg_iters = batch_eg[0] // 2
    ledgers = [s.info["budget"] for s in cells if "budget" in s.info]
    references = probe.named("reference")
    cell_s = sorted(traced.seconds(s) for s in cells)

    def seconds(spans):
        return sum(traced.seconds(s) for s in spans)

    def self_share(spans):
        return _ratio(sum(s.self_ns for s in spans), solve_ns)

    return {
        "sets.project.calls": project[0],
        "sets.project.ns_per_call": scale * _ratio(project[1], project[0]),
        "sets.project.share": _ratio(project[1], solve_ns),
        "oracle.noise_sum.ns_per_call": scale * _ratio(noise[1], noise[0]),
        "oracle.noise_sum.share": _ratio(noise[1], solve_ns),
        "oracle.noise_sum.ns_per_sample": scale * _ratio(noise[1], noise[3]),
        "oracle.batch_mean.calls": batch[0],
        "oracle.batch_mean.self_ns_per_call":
            scale * _ratio(batch[1] - batch[2], batch[0]),
        "oracle.samples": batch[3],
        "oracle.mean_batch": _ratio(batch[3], batch[0]),
        "oracle.budget_used_frac": _ratio(sum(b.consumed for b in ledgers),
                                          sum(b.limit for b in ledgers)),
        "ppawss.outer_steps": outer_steps,
        "ppawss.inner_iters": inner_iters,
        "ppawss.outer_step_s":
            _ratio(seconds(ppawss_cells), outer_steps),
        "ppawss.self_share": self_share(ppawss_cells),
        "vs_ave.iterations": vs_iters,
        "vs_ave.us_per_iter": _ratio(seconds(vs_spans) * 1e6, vs_iters),
        "vs_ave.self_share": self_share(vs_spans),
        "maps.call.calls": maps[0],
        "maps.call.ns_per_call": scale * _ratio(maps[1], maps[0]),
        "maps.call.share": _ratio(maps[1], solve_ns),
        "extragradient.iterations": eg_iters,
        "extragradient.us_per_iter": _ratio(seconds(eg_cells) * 1e6,
                                            eg_iters),
        "extragradient.self_share": self_share(eg_cells),
        "problems.reference_solve_s": seconds(references),
        "detsolve.map_evals": sum(s.counts["maps.call"][0] for s in references
                                  if "maps.call" in s.counts),
        "metrics.evaluate_point.calls": evaluate[0],
        "metrics.evaluate_point.us_per_call":
            scale * _ratio(evaluate[1] / 1e3, evaluate[0]),
        "metrics.evaluate_point.share": _ratio(evaluate[1], solve_ns),
        "trace.write_csv.calls": write[0],
        "trace.write_csv.ms": scale * write[1] / 1e6,
        "trace.write_csv.bytes": write[3],
        "bench.cells": len(cells),
        "bench.cell_s_p50": statistics.median(cell_s) if cell_s else 0.0,
        "bench.cell_s_max": cell_s[-1] if cell_s else 0.0,
        "bench.overhead_s": traced.solve_s - sum(cell_s),
        "bench.tracing_overhead": _ratio(traced.solve_s, plain.solve_s) - 1.0,
        "bench.tracing_overhead_wall":
            _ratio(traced.wall_solve_s, plain.wall_solve_s) - 1.0,
        "bench.wall_solve_s": plain.wall_solve_s,
        "final_metric_gmean": final_metric_gmean(traced),
    }


def compare_outputs(plain, traced):
    """Mark cells whose traced CSVs differ from the untraced ones byte for
    byte; returns the relative paths of every differing file."""
    differing = []
    for root, _, files in os.walk(plain.out_dir):
        for name in sorted(files):
            if not name.endswith(".csv") or root == plain.out_dir:
                continue
            rel = os.path.relpath(os.path.join(root, name), plain.out_dir)
            other = os.path.join(traced.out_dir, rel)
            with open(os.path.join(root, name), "rb") as fh:
                mine = fh.read()
            try:
                with open(other, "rb") as fh:
                    same = fh.read() == mine
            except OSError:
                same = False
            if not same:
                differing.append(rel)
    for cell in traced.cells:
        rel = os.path.relpath(cell.path, traced.out_dir)
        if rel in differing:
            cell.problems = (cell.problems or []) + [
                "traced CSV differs from the untraced one"]
    return differing
