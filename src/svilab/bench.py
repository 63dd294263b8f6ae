"""Benchmark harness: experiment configs, seeded runs, CSV summaries.

Configs are flat INI-style text: ``[problem]`` and ``[run]`` sections
plus one ``[scheme.<name>]`` section per solver. Each scheme is declared
once, in ``_SCHEMES``: its keys, solver config, first step, runner and
trace cadence. Values that vary per problem row (lambda, rho, stepsize)
accept comma lists zipped with the ``lipschitz`` list. Every (problem,
scheme, seed) cell runs the steps a fresh budget counter pays for, with
samples keyed by its seed, and writes one trace CSV; the summary
aggregates final metrics per cell.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .extragradient import (ExtragradientConfig, check_stepsize,
                            max_stepsize, run_extragradient)
from .oracle import BudgetCounter, Tape
from .ppawss import PpawssConfig, run_ppawss
from .problems import BimatrixSpec, make_affine_strongly_monotone, make_bimatrix
from .schedule import steps_within
from .trace import Recorder, RunTrace
from .vs_ave import VsAveConfig, rate_q, run_vs_ave

__all__ = ["ExperimentConfig", "parse_config", "run_experiment", "summarize"]

# key -> (type tag, default); REQUIRED means no default
_REQUIRED = object()
_PROBLEM_KEYS = {
    "kind": ("str", _REQUIRED),
    "n": ("int", _REQUIRED),
    "m": ("int", None),
    "mu": ("float", None),
    "lipschitz": ("float_list", _REQUIRED),
    "noise": ("float", 0.0),
    "seed": ("int", 0),
    "reference_tol": ("float", 1e-10),
}
# problem kind -> the [problem] key it requires; the others' keys it refuses
_KIND_KEYS = {"bimatrix": "m", "affine": "mu"}
_RUN_KEYS = {
    "budget": ("int", _REQUIRED),
    "seeds": ("int_list", _REQUIRED),
    "out": ("str", "results"),
}


@dataclass(frozen=True)
class _Scheme:
    """One scheme as the harness runs it.

    ``keys`` is its ``[scheme.<name>]`` table, whose one ``float_list``
    key takes a value per problem row. ``solver(config, params, row)``
    builds a cell's uncapped solver config, and ``first_step(solver,
    lipschitz)`` the config whose schedule is the cell's first step.
    ``runner`` names the solver among this module's globals, looked up
    as a cell runs. A ``flat`` cell is sized to the budget and traced at
    about 200 rows. A ``taped`` runner takes a ``tape``: its batch sizes
    do not depend on the row, so the rows of one trial seed can replay
    the batches the first of them prepared.
    """

    keys: dict
    solver: Callable
    first_step: Callable
    runner: str
    flat: bool
    taped: bool = False

    @property
    def per_row_key(self):
        return next(k for k, (tag, _) in self.keys.items() if tag == "float_list")


def _vs_ave_solver(config, params, row):
    if not (config.kind == "affine" and config.mu > 0):
        raise ConfigError("vs_ave requires a strongly monotone problem"
                          " (mu > 0); bimatrix maps have mu = 0")
    lip = config.lipschitz[row]
    rho = (params["rho"][row] if params["rho"]
           else rate_q(lip / config.mu, params["q_rule"]) ** 1.001)
    return VsAveConfig(mu=config.mu, lipschitz=lip, rho=rho,
                       max_iterations=2**31, min_batch=params["min_batch"])


def _ppawss_solver(config, params, row):
    return PpawssConfig(lam=params["lambda"][row], eta=params["eta"],
                        alpha=params["alpha"], beta=params["beta"],
                        outer_iterations=2**31, min_inner=params["min_inner"])


def _extragradient_solver(config, params, row):
    lip = config.lipschitz[row]
    if params["stepsize"]:
        stepsize = params["stepsize"][row]
        check_stepsize(stepsize, lip)
    else:
        stepsize = 0.99 * max_stepsize(lip)
    return ExtragradientConfig(
        stepsize=stepsize, theta=params["theta"], mu_shift=params["mu_shift"],
        b=params["b"], averaged=params["averaged"])


def _one_step(solver, lipschitz):
    return replace(solver, max_iterations=1)


def _first_subproblem(solver, lipschitz):
    # priced on the row's configured Lipschitz constant
    return solver.subproblem(0, lipschitz)


# every scheme, in the order of a config's cells and the summary's columns
_SCHEMES = {
    "vs_ave": _Scheme(
        keys={"rho": ("float_list", None), "q_rule": ("str", "kappa_plus_2"),
              "min_batch": ("int", VsAveConfig.min_batch)},
        solver=_vs_ave_solver, first_step=_one_step, runner="run_vs_ave",
        flat=True),
    "ppawss": _Scheme(
        keys={"lambda": ("float_list", _REQUIRED), "eta": ("float", 1.0),
              "alpha": ("float", 1.001), "beta": ("float", 1.001),
              "min_inner": ("int", PpawssConfig.min_inner)},
        solver=_ppawss_solver, first_step=_first_subproblem,
        runner="run_ppawss", flat=False),
    "extragradient": _Scheme(
        keys={"stepsize": ("float_list", None),
              "theta": ("float", ExtragradientConfig.theta),
              "b": ("float", ExtragradientConfig.b),
              "mu_shift": ("float", ExtragradientConfig.mu_shift),
              "averaged": ("bool", ExtragradientConfig.averaged)},
        solver=_extragradient_solver, first_step=_one_step,
        runner="run_extragradient", flat=True, taped=True),
}
_SECTIONS = {"problem": _PROBLEM_KEYS, "run": _RUN_KEYS,
             **{f"scheme.{name}": s.keys for name, s in _SCHEMES.items()}}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description.

    ``scheme_params`` maps scheme name to its resolved parameters with
    defaults filled; per-row values are tuples aligned with
    ``lipschitz``.
    """

    kind: str
    n: int
    m: int
    mu: float
    lipschitz: tuple
    noise_scale: float
    problem_seed: int
    reference_tol: float
    schemes: tuple
    scheme_params: dict
    budget: int
    seeds: tuple
    output_path: str


def _parse_value(raw, kind, lineno):
    try:
        if kind == "str":
            return raw
        if kind == "int":
            try:
                # exact for integers past 2**53, such as 64-bit seeds
                return int(raw)
            except ValueError:
                value = float(raw)
            if value != int(value):
                raise ValueError
            return int(value)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "false"):
                return lowered == "true"
            raise ValueError
        if kind == "float_list":
            return tuple(float(part) for part in raw.split(","))
        if kind == "int_list":
            return tuple(int(part) for part in raw.split(","))
    except (ValueError, OverflowError):
        raise ConfigError(f"cannot parse {raw!r} as {kind}", line=lineno) from None
    raise AssertionError(kind)


def parse_config(text, overrides=None):
    """Parse and validate experiment config text.

    Rejects unknown sections and keys, duplicate keys, and malformed
    values, always naming the offending line. Cross-field constraints
    (per-row list lengths, scheme applicability) are checked once the
    whole file is read.

    ``overrides`` maps ``[run]`` keys (``seeds``, ``budget``, ``out``)
    to raw strings, as given to the CLI flag ``--<key>``. Each replaces
    the file's value before any check, and is parsed and checked like
    it; an error names the flag instead of a line.
    """
    overrides = overrides or {}
    sections = {}
    key_lines = {}
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"unterminated section header {line!r}", line=lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", line=lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line=lineno)
        if current is None:
            raise ConfigError("key outside any section", line=lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        table = _SECTIONS[current]
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in [{current}]", line=lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", line=lineno)
        sections[current][key] = _parse_value(raw_value, table[key][0], lineno)
        key_lines[(current, key)] = lineno

    def resolved(section, table):
        got = sections.get(section, {})
        for key, (_, default) in table.items():
            if key not in got and default is _REQUIRED:
                raise ConfigError(f"[{section}] is missing required key {key!r}")
        return {key: got.get(key, default) for key, (_, default) in table.items()}

    for name in ("problem", "run"):
        if name not in sections:
            raise ConfigError(f"missing [{name}] section")
    for key, raw in overrides.items():
        try:
            sections["run"][key] = _parse_value(raw, _RUN_KEYS[key][0], None)
        except ConfigError:
            raise ConfigError(f"cannot parse --{key} {raw!r}") from None
        key_lines[("run", key)] = None
    problem = resolved("problem", _PROBLEM_KEYS)
    run = resolved("run", _RUN_KEYS)
    schemes = tuple(name for name in _SCHEMES if f"scheme.{name}" in sections)
    if not schemes:
        raise ConfigError("at least one [scheme.<name>] section is required")
    scheme_params = {
        name: resolved(f"scheme.{name}", _SCHEMES[name].keys) for name in schemes
    }

    kind = problem["kind"]
    if kind not in _KIND_KEYS:
        raise ConfigError(f"kind must be {' or '.join(map(repr, _KIND_KEYS))};"
                          f" got {kind!r}", line=key_lines.get(("problem", "kind")))
    if problem[_KIND_KEYS[kind]] is None:
        raise ConfigError(
            f"[problem] kind = {kind} requires key {_KIND_KEYS[kind]!r}")
    for other, key in _KIND_KEYS.items():
        if other != kind and problem[key] is not None:
            raise ConfigError(f"{key!r} applies only to {other} problems",
                              line=key_lines.get(("problem", key)))
    rows = len(problem["lipschitz"])
    for value in problem["lipschitz"]:
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(
                f"lipschitz entries must be positive; got {value!r}",
                line=key_lines.get(("problem", "lipschitz")),
            )
    if run["budget"] <= 0:
        raise ConfigError(
            f"budget must be positive; got {run['budget']}",
            line=key_lines.get(("run", "budget")),
        )
    _check_seeds(run["seeds"], "--seeds" if "seeds" in overrides else "seeds",
                 key_lines.get(("run", "seeds")))
    _check_seeds((problem["seed"],), "seed", key_lines.get(("problem", "seed")))

    # normalize per-row lists: length 1 broadcasts, otherwise must match;
    # checked in the order of the keys' names
    for per_row_key, name in sorted((_SCHEMES[name].per_row_key, name)
                                    for name in schemes):
        value = scheme_params[name][per_row_key]
        if value is None:
            continue
        if len(value) == 1:
            value = value * rows
        if len(value) != rows:
            raise ConfigError(
                f"{per_row_key} needs 1 or {rows} values to match lipschitz;"
                f" got {len(value)}",
                line=key_lines.get((f"scheme.{name}", per_row_key)),
            )
        scheme_params[name][per_row_key] = value

    config = ExperimentConfig(
        kind=kind, n=problem["n"], m=problem["m"], mu=problem["mu"],
        lipschitz=tuple(problem["lipschitz"]), noise_scale=problem["noise"],
        problem_seed=problem["seed"], reference_tol=problem["reference_tol"],
        schemes=schemes, scheme_params=scheme_params, budget=run["budget"],
        seeds=tuple(run["seeds"]), output_path=run["out"])
    labels = [_row_label(config, row) for row in range(rows)]
    for row, label in enumerate(labels):
        if label in labels[:row]:
            raise ConfigError(
                f"rows {labels.index(label)} and {row} share the cell label"
                f" L = {label[0]}, lambda = {label[1]}; their trace files"
                " would collide",
                line=key_lines.get(("problem", "lipschitz")),
            )
    validate_solver_configs(config)
    return config


def _check_seeds(seeds, name, line=None):
    """Seeds must be distinct integers in ``[0, 2**64)``, the range
    every random stream is keyed by."""
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{name} must be distinct", line=line)
    for seed in seeds:
        if not 0 <= seed < 2**64:
            raise ConfigError(f"{name} must lie in [0, 2**64); got {seed}",
                              line=line)


def _solver_config(config, scheme, row):
    """Uncapped solver config of one cell; raises ConfigError early."""
    return _SCHEMES[scheme].solver(config, config.scheme_params[scheme], row)


def validate_solver_configs(config):
    """Build every cell's solver config once, before any run starts, and
    check that the budget pays for each cell's first step."""
    for scheme in config.schemes:
        for row, lip in enumerate(config.lipschitz):
            first = _SCHEMES[scheme].first_step(
                _solver_config(config, scheme, row), lip)
            sizes = list(first.schedule)
            where = f"{scheme} on row {row} (L = {lip:g})"
            if len(sizes) < first.max_iterations:
                raise ConfigError(f"{where}: batch sizes overflow within"
                                  " the first step")
            cost = 2 * sum(sizes)
            if cost > config.budget:
                raise ConfigError(f"budget {config.budget} cannot pay for the"
                                  f" first step of {where}: it costs {cost}"
                                  " oracle calls")


def _build_problem(config, row):
    lip = config.lipschitz[row]
    if config.kind == "bimatrix":
        spec = BimatrixSpec(
            n=config.n, m=config.m, target_lipschitz=lip,
            noise_scale=config.noise_scale, seed=config.problem_seed,
        )
        return make_bimatrix(spec, reference_tol=config.reference_tol)
    return make_affine_strongly_monotone(
        config.n, config.mu, lip, sigma=config.noise_scale,
        seed=config.problem_seed,
    )


def _row_label(config, row):
    # a row's lambda names its cells when the config runs PPAWSS
    ppawss = config.scheme_params.get("ppawss")
    lam = f"{ppawss['lambda'][row]:g}" if ppawss else "na"
    return f"{config.lipschitz[row]:g}", lam


def _cell_filename(scheme, lip_label, lam_label, seed):
    return f"{scheme}_L{lip_label}_lam{lam_label}_seed{seed}.csv"

_CELL_RE = re.compile(
    r"^(?P<scheme>[a-z_]+)_L(?P<lip>[^_]+)_lam(?P<lam>[^_]+)_seed(?P<seed>\d+)\.csv$"
)


def _cell_solver(config, scheme, row):
    """A cell's solver config; a flat cell's runs what the budget pays
    for."""
    solver = _solver_config(config, scheme, row)
    if _SCHEMES[scheme].flat:
        solver = replace(solver, max_iterations=steps_within(
            solver.schedule, config.budget))
    return solver


def _batch_key(config, scheme, row, problem, seed):
    """Cells of equal keys would read the same prepared batches: a taped
    scheme's cells of one seed, noise model, oracle seed, dimension and
    list of batch sizes. Any other cell's key is its own."""
    if not _SCHEMES[scheme].taped:
        return scheme, row, seed
    oracle = problem.oracle
    return (scheme, seed, oracle.noise_model, oracle.rng_seed,
            problem.dimension, tuple(_cell_solver(config, scheme, row).schedule))


def _run_cell(job, tape=None):
    """Run one (problem row, scheme, seed) cell and write its CSV."""
    config, scheme, row, problem, seed, out_path = job
    record = _SCHEMES[scheme]
    start = problem.feasible_set.project(np.zeros(problem.dimension))
    solver = _cell_solver(config, scheme, row)
    recorder = Recorder()
    if record.flat:
        recorder = Recorder(every=max(1, math.ceil(solver.max_iterations / 200)))
    shared = {} if tape is None else {"tape": tape}
    # looked up by name, so a wrapper set on this module's global runs
    _, trace = globals()[record.runner](
        problem, start, solver, BudgetCounter(config.budget), scheme=scheme,
        seed=seed, recorder=recorder, **shared)
    trace.write_csv(out_path)


def _run_group(jobs):
    """Run the cells of one group in order. With more than one, the
    first records a tape of its prepared batches and the others replay
    it; the tape goes with the group."""
    tape = Tape() if len(jobs) > 1 else None
    for job in jobs:
        _run_cell(job, tape)


def _usable_cores():
    """The cores this process may run on: its affinity set where the
    platform has one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(raw, groups):
    """Worker processes for ``groups`` groups of cells given
    ``SVILAB_THREADS``.

    ``raw`` is the variable's text, or None when it is unset; unset or
    blank means one worker. Anything but a positive integer raises
    :class:`ConfigError`. The count is clamped to the number of groups
    and to the cores the process may use, so a huge value never starts
    more processes than there is work or hardware for.
    """
    if raw is None or not raw.strip():
        return 1
    try:
        requested = int(raw)
        if requested < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"SVILAB_THREADS must be a positive integer; got {raw!r}"
        ) from None
    return max(1, min(requested, groups, _usable_cores()))


def run_experiment(config, base_dir="."):
    """Run the full scheme x row x seed matrix; returns the summary text.

    Writes one trace CSV per cell plus ``summary.csv`` into the output
    directory. Cells that would read the same prepared batches (the
    rows of one extragradient trial seed, see :func:`_batch_key`) form a
    group: its first cell records a :class:`~svilab.oracle.Tape` of its
    batches, and the others replay it and draw nothing. Groups run in
    parallel when the environment variable ``SVILAB_THREADS`` is set
    above 1, with at most one worker per group and per usable core.
    Outputs do not depend on the schedule: every cell owns its file, and
    its samples are keyed by its seed, whether it draws or replays them.
    """
    validate_solver_configs(config)
    try:
        problems = [_build_problem(config, row)
                    for row in range(len(config.lipschitz))]
    except ValueError as exc:
        # the problem constructors check the [problem] values
        raise ConfigError(str(exc)) from exc
    out_dir = os.path.join(base_dir, config.output_path)
    groups, paths = {}, []
    for row in range(len(config.lipschitz)):
        lip_label, lam_label = _row_label(config, row)
        for scheme in config.schemes:
            for seed in config.seeds:
                paths.append(os.path.join(
                    out_dir, _cell_filename(scheme, lip_label, lam_label, seed)
                ))
                key = _batch_key(config, scheme, row, problems[row], seed)
                groups.setdefault(key, []).append(
                    (config, scheme, row, problems[row], seed, paths[-1]))
    groups = list(groups.values())
    workers = _worker_count(os.environ.get("SVILAB_THREADS"), len(groups))
    os.makedirs(out_dir, exist_ok=True)
    if workers > 1:
        # imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_run_group, groups))
    else:
        for group in groups:
            _run_group(group)
    return summarize(paths, summary_csv=os.path.join(out_dir, "summary.csv"))


def _final_metric(trace):
    """(metric name, value) of a run's last recorded row."""
    row = trace.final
    if row is None:
        raise ConfigError(f"trace of {trace.scheme} seed {trace.seed} is empty")
    if row.saddle_gap is not None:
        return "saddle_gap", row.saddle_gap
    if row.natural_residual is not None:
        return "natural_residual", row.natural_residual
    raise ConfigError(
        f"no usable final metric for {trace.scheme} seed {trace.seed}"
    )


def summarize(csv_paths, summary_csv=None):
    """Aggregate trace CSVs into an aligned text table.

    One row per (L, lambda) label pair, one column per scheme showing
    the median final metric with the interquartile range over seeds;
    cells containing budget-truncated runs are flagged with ``*``.
    When ``summary_csv`` is given the same data is written there in
    machine-readable form.
    """
    cells = {}
    for path in csv_paths:
        trace = RunTrace.read_csv(path)
        match = _CELL_RE.match(os.path.basename(path))
        if match:
            label = (match.group("lip"), match.group("lam"))
            scheme = match.group("scheme")
        else:
            label = ("na", "na")
            scheme = trace.scheme
        metric, value = _final_metric(trace)
        cells.setdefault((label, scheme), []).append(
            (metric, value, trace.truncated)
        )

    def sort_key(label):
        lip, lam = label
        try:
            return (0, float(lip), lam)
        except ValueError:
            return (1, 0.0, lip)

    labels = sorted({label for label, _ in cells}, key=sort_key)
    schemes = sorted(
        {scheme for _, scheme in cells},
        key=lambda s: (list(_SCHEMES).index(s) if s in _SCHEMES else 99, s),
    )
    summary_rows = []
    display = {}
    for label in labels:
        for scheme in schemes:
            entries = cells.get((label, scheme))
            if entries is None:
                display[(label, scheme)] = "-"
                continue
            metrics = {metric for metric, _, _ in entries}
            if len(metrics) > 1:
                raise ConfigError(
                    f"mixed final metrics {sorted(metrics)} for scheme"
                    f" {scheme} at L={label[0]}"
                )
            metric = next(iter(metrics))
            values = np.array([value for _, value, _ in entries])
            med = float(np.median(values))
            q25 = float(np.percentile(values, 25))
            q75 = float(np.percentile(values, 75))
            truncated = any(flag for _, _, flag in entries)
            star = "*" if truncated else ""
            display[(label, scheme)] = (
                f"{med:.4e} (iqr {q75 - q25:.1e}){star}"
            )
            summary_rows.append({
                "L": label[0], "lam": label[1], "scheme": scheme,
                "metric": metric, "median": med, "q25": q25, "q75": q75,
                "n_seeds": len(values), "any_truncated": truncated,
            })

    headers = ["L", "lambda"] + [f"{s} (median final)" for s in schemes]
    table_rows = [
        [label[0], label[1]] + [display[(label, s)] for s in schemes]
        for label in labels
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in table_rows))
        if table_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in table_rows:
        lines.append("  ".join(str(c).ljust(widths[i])
                               for i, c in enumerate(row)))
    text = "\n".join(lines)
    if summary_csv is not None:
        with open(summary_csv, "w", encoding="ascii", newline="\n") as fh:
            fh.write("L,lam,scheme,metric,median,q25,q75,n_seeds,any_truncated\n")
            for row in summary_rows:
                fh.write(
                    f"{row['L']},{row['lam']},{row['scheme']},{row['metric']},"
                    f"{row['median']!r},{row['q25']!r},{row['q75']!r},"
                    f"{row['n_seeds']},{str(row['any_truncated']).lower()}\n"
                )
    return text
