"""Solvers and benchmarks for stochastic variational inequalities.

The package provides a variable-sample-size averaging solver for
strongly monotone problems, a proximal-point outer loop that extends it
to merely monotone problems, a variance-reduced extragradient baseline,
solution-quality metrics, seeded test problems, and a CSV-writing
benchmark harness with a CLI.
"""

from .errors import (
    BudgetExhausted,
    ConfigError,
    ContractViolation,
    MetricUnavailable,
    NoConvergence,
    ScheduleOverflow,
    SvilabError,
)
from .sets import Ball, Box, Product, Simplex, project_simplex
from .maps import AffineMap, BimatrixMap, ShiftedMap
from .oracle import (
    AdditiveGaussian,
    BudgetCounter,
    MatrixPerturbation,
    SampleStream,
    StochasticOracle,
    ZeroNoise,
    batch_mean,
    shift,
)
from .problems import (
    BimatrixSpec,
    ProblemInstance,
    bimatrix_from_payoff,
    make_affine_strongly_monotone,
    make_bimatrix,
    read_matrix,
    reference_solution,
    write_matrix,
    z_saddle_value,
)
from .detsolve import solve_deterministic_vi
from .metrics import (
    evaluate_point,
    natural_residual,
    saddle_gap,
    strongly_monotone_gap,
    yosida_residual,
)
from .trace import CSV_HEADER, Recorder, RunTrace, TraceRow
from .vs_ave import (
    VsAveConfig,
    VsAveState,
    gamma_update,
    rate_q,
    run_vs_ave,
    sample_size,
    schedule_cost,
    x_step,
    y_step,
)
from .ppawss import (
    PpawssConfig,
    inner_iterations,
    prox_subproblem,
    relaxation_step,
    run_ppawss,
)
from .extragradient import (
    ExtragradientConfig,
    eg_sample_size,
    run_extragradient,
)
from .bench import ExperimentConfig, parse_config, run_experiment, summarize

__version__ = "0.1.0"

__all__ = [
    "AdditiveGaussian",
    "AffineMap",
    "Ball",
    "BimatrixMap",
    "BimatrixSpec",
    "Box",
    "BudgetCounter",
    "BudgetExhausted",
    "CSV_HEADER",
    "ConfigError",
    "ContractViolation",
    "ExperimentConfig",
    "ExtragradientConfig",
    "MatrixPerturbation",
    "MetricUnavailable",
    "NoConvergence",
    "PpawssConfig",
    "ProblemInstance",
    "Product",
    "Recorder",
    "RunTrace",
    "SampleStream",
    "ScheduleOverflow",
    "ShiftedMap",
    "Simplex",
    "StochasticOracle",
    "SvilabError",
    "TraceRow",
    "VsAveConfig",
    "VsAveState",
    "ZeroNoise",
    "batch_mean",
    "bimatrix_from_payoff",
    "eg_sample_size",
    "evaluate_point",
    "gamma_update",
    "inner_iterations",
    "make_affine_strongly_monotone",
    "make_bimatrix",
    "natural_residual",
    "parse_config",
    "prox_subproblem",
    "rate_q",
    "read_matrix",
    "reference_solution",
    "relaxation_step",
    "run_experiment",
    "run_extragradient",
    "run_ppawss",
    "run_vs_ave",
    "saddle_gap",
    "sample_size",
    "schedule_cost",
    "shift",
    "solve_deterministic_vi",
    "strongly_monotone_gap",
    "summarize",
    "write_matrix",
    "x_step",
    "y_step",
    "z_saddle_value",
]
