"""Constrained mixed-variable blackbox optimization.

Variables partition into meta, categorical and standard components; meta
variables decree which other variables and constraints are acting.  Two
solvers share the evaluation runtime: a direct search over user-defined
neighborhoods and Bayesian optimization with a mixed-kernel Gaussian process.

The modules that parse, validate and evaluate use only the standard library
and are imported with the package.  The solvers' names (and their modules
``direct_search``, ``bayesian`` and ``gp``) are imported on first use:
``direct_search`` loads numpy, ``bayesian`` and ``gp`` load numpy and scipy.
"""

from importlib import import_module as _import_module

from .blackbox import (BudgetState, EvaluationRecord, Evaluator, Problem,
                       barrier_value, cache_key, write_history)
from .builtin_problems import mlp_minimizer, toy_table
from .constraints import (BlackboxOutput, ConstraintSpec, ConstraintSystem,
                          LinearExpression)
from .domain import (ALWAYS, CategoricalScope, ContinuousScope, DecreePredicate,
                     Domain, IntegerScope, Membership, MetaComponent, Point, Role,
                     Threshold, VariableSpec, VariableType, enumerate_domain_points)
from .errors import (BudgetExhaustedError, ConfigurationError, DecreeViolationError,
                     DomainError, EvaluationError, FactorizationError, FittingError,
                     IncompleteConstraintValuesError, InvalidMetaError,
                     KernelDomainError, MetaboxError, NotEnumerableError,
                     ProblemFileError, ScopeError)
from .neighborhoods import (Combined, IncrementMetaInteger, IncrementOrdinal,
                            NeighborhoodMapping, SwapCategorical, categorical_neighbors,
                            default_meta_mapping, meta_neighbors, realize_neighbor)
from .problem_file import (ParsedProblem, bundled_problem_path, parse_problem,
                           parse_problem_file, serialize_problem)

#: Each name imported on first access, and the module that defines it; a
#: module's own name maps to itself.  Resolved values are not bound here, so
#: every access reads the defining module's current binding.
_LAZY = {name: module for module, names in {
    "bayesian": ("AuxiliaryCandidate", "BOConfig", "BOResult", "expected_improvement",
                 "latin_hypercube", "maximize_acquisition", "run_bo"),
    "direct_search": ("DirectSearchResult", "MeshState", "SearchConfig",
                      "global_search_step", "run_direct_search", "solve_standard_subproblem"),
    "gp": ("GPModel", "KernelConfig", "default_kernel_config", "fit_hyperparameters",
           "log_marginal_likelihood"),
}.items() for name in (module, *names)}

__all__ = sorted([*(name for name in globals() if not name.startswith("_")), *_LAZY])

__version__ = "0.1.0"


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
