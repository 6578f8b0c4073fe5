"""Ecological Cycle Optimizer (ECO) and supporting experiment tooling.

The package bundles the optimizer itself, a particle swarm baseline, the 23
classic benchmark functions, five constrained engineering design problems,
nonparametric comparison statistics, and a command line experiment harness.

Importing the package loads none of them: each name in __all__ imports its
submodule on first access (PEP 562), so a script that only builds classic
problems compiles and loads only ``problems`` and ``classic``.
"""

__version__ = "0.1.0"

# Where each exported name lives.
_SOURCES = {
    "Bounds": "problems",
    "BudgetExhausted": "problems",
    "DimensionMismatch": "problems",
    "EvalBudget": "problems",
    "Problem": "problems",
    "TOL_FEAS": "problems",
    "CLASSIC_IDS": "classic",
    "ClassicFunction": "classic",
    "UnknownFunction": "classic",
    "make_classic": "classic",
    "ENGINEERING_IDS": "engineering",
    "EngineeringProblem": "engineering",
    "constraint_report": "engineering",
    "make_engineering": "engineering",
    "EcoOptimizer": "eco",
    "PsoOptimizer": "pso",
    "RunTrace": "base",
    "DiversityCurve": "analysis",
    "FriedmanResult": "analysis",
    "PairwiseVerdict": "analysis",
    "RunSummary": "analysis",
    "friedman": "analysis",
    "population_diversity": "analysis",
    "summarize": "analysis",
    "wilcoxon_rank_sum": "analysis",
    "win_tie_loss": "analysis",
    "ExperimentSpec": "harness",
    "RunRecord": "harness",
    "make_problem": "harness",
    "resolve_budget": "harness",
    "run_experiment": "harness",
}
__all__ = sorted(_SOURCES)


def __getattr__(name):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{source}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
