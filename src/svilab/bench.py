"""Benchmark harness: experiment configs, seeded runs, CSV summaries.

Configs are flat INI-style text: ``[problem]`` and ``[run]`` sections
plus one ``[scheme.<name>]`` section per solver. Values that vary per
problem row (lambda, rho, stepsize) accept comma lists zipped with the
``lipschitz`` list. Every (problem, scheme, seed) cell runs under a
fresh budget counter and an oracle substream keyed by the seed, and
writes one trace CSV; the summary aggregates final metrics per cell.
"""

from __future__ import annotations

import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import ConfigError, ScheduleOverflow
from .extragradient import ExtragradientConfig, eg_sample_size, run_extragradient
from .oracle import BudgetCounter
from .ppawss import PpawssConfig, run_ppawss
from .problems import BimatrixSpec, make_affine_strongly_monotone, make_bimatrix
from .trace import Recorder, RunTrace
from .vs_ave import VsAveConfig, rate_q, run_vs_ave, sample_size

__all__ = ["ExperimentConfig", "parse_config", "run_experiment", "summarize"]

_SCHEME_ORDER = ["vs_ave", "ppawss", "extragradient"]

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
_RUN_KEYS = {
    "budget": ("int", _REQUIRED),
    "seeds": ("int_list", _REQUIRED),
    "out": ("str", "results"),
}
# per-scheme keys; iteration counts of 0 mean "as many as the budget allows"
_SCHEME_KEYS = {
    "ppawss": {
        "lambda": ("float_list", _REQUIRED),
        "eta": ("float", 1.0),
        "alpha": ("float", 1.001),
        "beta": ("float", 1.001),
        "outer_iterations": ("int", 0),
        "min_inner": ("int", 1),
        "warm_start": ("bool", True),
    },
    "vs_ave": {
        "rho": ("float_list", None),
        "q_rule": ("str", "kappa_plus_2"),
        "min_batch": ("int", 1),
        "iterations": ("int", 0),
    },
    "extragradient": {
        "stepsize": ("float_list", None),
        "theta": ("float", 1.0),
        "b": ("float", 1e-3),
        "mu_shift": ("float", 2.001),
        "iterations": ("int", 0),
        "averaged": ("bool", False),
    },
}


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


def parse_config(text):
    """Parse and validate experiment config text.

    Rejects unknown sections and keys, duplicate keys, and malformed
    values, always naming the offending line. Cross-field constraints
    (per-row list lengths, scheme applicability) are checked once the
    whole file is read.
    """
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
            if name not in ("problem", "run") and not (
                name.startswith("scheme.") and name[7:] in _SCHEME_KEYS
            ):
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
        if current == "problem":
            table = _PROBLEM_KEYS
        elif current == "run":
            table = _RUN_KEYS
        else:
            table = _SCHEME_KEYS[current[7:]]
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in [{current}]", line=lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", line=lineno)
        sections[current][key] = _parse_value(raw_value, table[key][0], lineno)
        key_lines[(current, key)] = lineno

    def resolved(section, table):
        got = sections.get(section, {})
        out = {}
        for key, (_, default) in table.items():
            if key in got:
                out[key] = got[key]
            elif default is _REQUIRED:
                raise ConfigError(f"[{section}] is missing required key {key!r}")
            else:
                out[key] = default
        return out

    if "problem" not in sections:
        raise ConfigError("missing [problem] section")
    if "run" not in sections:
        raise ConfigError("missing [run] section")
    problem = resolved("problem", _PROBLEM_KEYS)
    run = resolved("run", _RUN_KEYS)
    schemes = tuple(
        name for name in _SCHEME_ORDER if f"scheme.{name}" in sections
    )
    if not schemes:
        raise ConfigError("at least one [scheme.<name>] section is required")
    scheme_params = {
        name: resolved(f"scheme.{name}", _SCHEME_KEYS[name]) for name in schemes
    }

    kind = problem["kind"]
    if kind not in ("bimatrix", "affine"):
        raise ConfigError(
            f"kind must be 'bimatrix' or 'affine'; got {kind!r}",
            line=key_lines.get(("problem", "kind")),
        )
    if kind == "bimatrix":
        if problem["m"] is None:
            raise ConfigError("[problem] kind = bimatrix requires key 'm'")
        if problem["mu"] is not None:
            raise ConfigError(
                "'mu' applies only to affine problems",
                line=key_lines.get(("problem", "mu")),
            )
    else:
        if problem["mu"] is None:
            raise ConfigError("[problem] kind = affine requires key 'mu'")
        if problem["m"] is not None:
            raise ConfigError(
                "'m' applies only to bimatrix problems",
                line=key_lines.get(("problem", "m")),
            )
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
    if not run["seeds"]:
        raise ConfigError("seeds list must not be empty",
                          line=key_lines.get(("run", "seeds")))
    if len(set(run["seeds"])) != len(run["seeds"]):
        raise ConfigError("seeds must be distinct",
                          line=key_lines.get(("run", "seeds")))

    # normalize per-row lists: length 1 broadcasts, otherwise must match
    for name, per_row_key in (("ppawss", "lambda"), ("vs_ave", "rho"),
                              ("extragradient", "stepsize")):
        if name not in scheme_params:
            continue
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
        kind=kind,
        n=problem["n"],
        m=problem["m"],
        mu=problem["mu"],
        lipschitz=tuple(problem["lipschitz"]),
        noise_scale=problem["noise"],
        problem_seed=problem["seed"],
        reference_tol=problem["reference_tol"],
        schemes=schemes,
        scheme_params=scheme_params,
        budget=run["budget"],
        seeds=tuple(run["seeds"]),
        output_path=run["out"],
    )
    validate_solver_configs(config)
    return config


def _map_bounds(config, row):
    """(mu, lipschitz) of the mean map for a problem row."""
    lip = config.lipschitz[row]
    return (0.0, lip) if config.kind == "bimatrix" else (config.mu, lip)


def _default_rho(mu, lip, q_rule):
    return rate_q(lip / mu, q_rule) ** 1.001


def _solver_config(config, scheme, row, iterations):
    """Concrete solver config for one cell; raises ConfigError early."""
    params = config.scheme_params[scheme]
    mu, lip = _map_bounds(config, row)
    if scheme == "ppawss":
        return PpawssConfig(
            lam=params["lambda"][row],
            eta=params["eta"],
            alpha=params["alpha"],
            beta=params["beta"],
            outer_iterations=iterations if iterations else 2**31,
            min_inner=params["min_inner"],
            warm_start=params["warm_start"],
        )
    if scheme == "vs_ave":
        if mu <= 0:
            raise ConfigError(
                "vs_ave requires a strongly monotone problem (mu > 0);"
                " bimatrix maps have mu = 0"
            )
        rho = (params["rho"][row] if params["rho"]
               else _default_rho(mu, lip, params["q_rule"]))
        return VsAveConfig(
            mu=mu,
            lipschitz=lip,
            rho=rho,
            max_iterations=iterations if iterations else 2**31,
            min_batch=params["min_batch"],
        )
    if scheme == "extragradient":
        bound = 1.0 / (math.sqrt(6.0) * lip)
        if params["stepsize"]:
            stepsize = params["stepsize"][row]
            if not stepsize < bound:
                raise ConfigError(
                    f"stepsize must be < 1/(sqrt(6)*L) = {bound:g};"
                    f" got {stepsize:g}"
                )
        else:
            stepsize = 0.99 * bound
        return ExtragradientConfig(
            stepsize=stepsize,
            theta=params["theta"],
            mu_shift=params["mu_shift"],
            b=params["b"],
            max_iterations=iterations if iterations else 2**31,
            averaged=params["averaged"],
        )
    raise AssertionError(scheme)


def validate_solver_configs(config):
    """Build every cell's solver config once, before any run starts."""
    for scheme in config.schemes:
        for row in range(len(config.lipschitz)):
            _solver_config(config, scheme, row, iterations=1)


def _iterations_within(budget, size_of):
    """Completed iterations before the schedule Sum 2*N_k passes budget."""
    k = 0
    consumed = 0
    while True:
        try:
            n = size_of(k)
        except ScheduleOverflow:
            break
        if consumed + 2 * n > budget:
            break
        consumed += 2 * n
        k += 1
    return max(k, 1)


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
    lip = config.lipschitz[row]
    if "ppawss" in config.scheme_params:
        lam = config.scheme_params["ppawss"]["lambda"][row]
        return f"{lip:g}", f"{lam:g}"
    return f"{lip:g}", "na"


def _cell_filename(scheme, lip_label, lam_label, seed):
    return f"{scheme}_L{lip_label}_lam{lam_label}_seed{seed}.csv"

_CELL_RE = re.compile(
    r"^(?P<scheme>[a-z_]+)_L(?P<lip>[^_]+)_lam(?P<lam>[^_]+)_seed(?P<seed>\d+)\.csv$"
)


def _run_cell(job):
    """Run one (problem row, scheme, seed) cell and write its CSV."""
    config, scheme, row, problem, seed, out_path = job
    problem = replace(problem, oracle=problem.oracle.for_trial(seed))
    budget = BudgetCounter(config.budget)
    start = problem.feasible_set.project(np.zeros(problem.dimension))
    params = config.scheme_params[scheme]
    if scheme == "ppawss":
        solver = _solver_config(config, scheme, row,
                                params["outer_iterations"])
        _, trace = run_ppawss(problem, start, solver, budget,
                              scheme=scheme, seed=seed)
    else:
        if scheme == "vs_ave":
            run = run_vs_ave
            probe = _solver_config(config, scheme, row, 1)
            size_of = partial(sample_size, rho=probe.rho,
                              min_batch=probe.min_batch)
        else:
            run = run_extragradient
            size_of = partial(eg_sample_size, theta=params["theta"],
                              mu_shift=params["mu_shift"], b=params["b"])
        iters = params["iterations"] or _iterations_within(config.budget,
                                                           size_of)
        solver = _solver_config(config, scheme, row, iters)
        # flat schemes trace about 200 rows, whatever their length
        every = max(1, math.ceil(iters / 200))
        _, trace = run(problem, start, solver, budget, scheme=scheme,
                       seed=seed, recorder=Recorder(every=every))
    trace.write_csv(out_path)
    return out_path


def _worker_count(raw, cells):
    """Worker processes for ``cells`` cells given ``SVILAB_THREADS``.

    ``raw`` is the variable's text, or None when it is unset; unset or
    blank means one worker. Anything but a positive integer raises
    :class:`ConfigError`. The count is clamped to the number of cells
    and to the machine's core count, so a huge value never starts more
    processes than there is work or hardware for.
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
    return max(1, min(requested, cells, os.cpu_count() or 1))


def run_experiment(config, base_dir="."):
    """Run the full scheme x row x seed matrix; returns the summary text.

    Writes one trace CSV per cell plus ``summary.csv`` into the output
    directory. Cells run in parallel when the environment variable
    ``SVILAB_THREADS`` is set above 1, with at most one worker per cell
    and per core; outputs do not depend on the schedule since every
    cell owns its file and its substream.
    """
    validate_solver_configs(config)
    workers = _worker_count(
        os.environ.get("SVILAB_THREADS"),
        len(config.lipschitz) * len(config.schemes) * len(config.seeds),
    )
    out_dir = os.path.join(base_dir, config.output_path)
    os.makedirs(out_dir, exist_ok=True)
    problems = [_build_problem(config, row)
                for row in range(len(config.lipschitz))]
    jobs = []
    for row in range(len(config.lipschitz)):
        lip_label, lam_label = _row_label(config, row)
        for scheme in config.schemes:
            for seed in config.seeds:
                path = os.path.join(
                    out_dir, _cell_filename(scheme, lip_label, lam_label, seed)
                )
                jobs.append((config, scheme, row, problems[row], seed, path))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            paths = list(pool.map(_run_cell, jobs))
    else:
        paths = [_run_cell(job) for job in jobs]
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
        key=lambda s: (_SCHEME_ORDER.index(s) if s in _SCHEME_ORDER else 99, s),
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
