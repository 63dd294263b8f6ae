"""Solvers and benchmarks for stochastic variational inequalities.

The package provides a variable-sample-size averaging solver for
strongly monotone problems, a proximal-point outer loop that extends it
to merely monotone problems, a variance-reduced extragradient baseline,
solution-quality metrics, seeded test problems, and a CSV-writing
benchmark harness with a CLI. The names exported here are the
documented API; everything else is imported from its own module.
"""

from .errors import ConfigError, SvilabError
from .oracle import BudgetCounter
from .problems import BimatrixSpec, make_affine_strongly_monotone, make_bimatrix
from .trace import Recorder
from .vs_ave import VsAveConfig, run_vs_ave
from .ppawss import PpawssConfig, run_ppawss
from .extragradient import ExtragradientConfig, run_extragradient
from .bench import parse_config, run_experiment, summarize

__version__ = "0.1.0"

__all__ = [
    "BimatrixSpec",
    "BudgetCounter",
    "ConfigError",
    "ExtragradientConfig",
    "PpawssConfig",
    "Recorder",
    "SvilabError",
    "VsAveConfig",
    "make_affine_strongly_monotone",
    "make_bimatrix",
    "parse_config",
    "run_experiment",
    "run_extragradient",
    "run_ppawss",
    "run_vs_ave",
    "summarize",
]
