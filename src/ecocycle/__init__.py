"""Ecological Cycle Optimizer (ECO) and supporting experiment tooling.

The package bundles the optimizer itself, a particle swarm baseline, the 23
classic benchmark functions, five constrained engineering design problems,
nonparametric comparison statistics, and a command line experiment harness.
"""

from .problems import (
    Bounds,
    BudgetExhausted,
    DimensionMismatch,
    EvalBudget,
    Problem,
    TOL_FEAS,
)
from .classic import CLASSIC_IDS, ClassicFunction, UnknownFunction, make_classic
from .engineering import (
    ENGINEERING_IDS,
    EngineeringProblem,
    constraint_report,
    make_engineering,
)
from .eco import EcoOptimizer
from .pso import PsoOptimizer
from .base import RunTrace
from .analysis import (
    DiversityCurve,
    FriedmanResult,
    PairwiseVerdict,
    RunSummary,
    friedman,
    population_diversity,
    summarize,
    wilcoxon_rank_sum,
    win_tie_loss,
)
from .harness import (
    ExperimentSpec,
    RunRecord,
    make_problem,
    resolve_budget,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "BudgetExhausted",
    "CLASSIC_IDS",
    "ClassicFunction",
    "DimensionMismatch",
    "DiversityCurve",
    "ENGINEERING_IDS",
    "EcoOptimizer",
    "EngineeringProblem",
    "EvalBudget",
    "ExperimentSpec",
    "FriedmanResult",
    "PairwiseVerdict",
    "Problem",
    "PsoOptimizer",
    "RunRecord",
    "RunSummary",
    "RunTrace",
    "TOL_FEAS",
    "UnknownFunction",
    "constraint_report",
    "friedman",
    "make_classic",
    "make_engineering",
    "make_problem",
    "population_diversity",
    "resolve_budget",
    "run_experiment",
    "summarize",
    "wilcoxon_rank_sum",
    "win_tie_loss",
]
